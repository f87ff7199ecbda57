package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tbaa"
	"tbaa/internal/server"
)

// env is one run's settings.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // tbaad built from the tree under test
	work     string // this run's scratch directory inside the checkout
}

const (
	// Set-up is timed at least setupRepeats times and until the timings
	// cover setupSpan, at most setupMaxRepeats times; setup_s is their
	// median. Short set-ups repeat more, so that a burst of load from
	// the rest of the machine moves few of them.
	setupRepeats    = 5
	setupMaxRepeats = 25
	setupSpan       = 3 * time.Second
	warmBatches     = 1024 // per serve-query connection
	warmEdits       = 32
	// serve-edit's reader sends at most one batch per readerPace.
	// Without that wait it kept both cores saturated beside the edits,
	// and its latency moved with every change in the machine's speed.
	readerPace = 4 * time.Millisecond
	// maxStretch bounds how far past --seconds a timed phase may run to
	// collect the samples its p90s need.
	maxStretch = 3
)

// phase is a timed phase: it lasts at least min and ends once enough
// reports true, or at min*maxStretch regardless.
type phase struct {
	start  time.Time
	min    time.Duration
	enough func() bool
}

func newPhase(min time.Duration, enough func() bool) *phase {
	return &phase{start: time.Now(), min: min, enough: enough}
}

func (p *phase) over() bool {
	el := time.Since(p.start)
	if el >= p.min*maxStretch {
		return true
	}
	return el >= p.min && p.enough()
}

// freeLoadGenerator returns the in-process reference analyzers' memory
// before the system under test starts, so the two do not compete.
func freeLoadGenerator() {
	runtime.GC()
	debug.FreeOSMemory()
}

// ---- serve-query and serve-edit set-up ----

// firstVerdicts sends one batch per level and checks them.
func firstVerdicts(ctx context.Context, d *daemon, hash string, bs [2]*batch) error {
	for _, bt := range bs {
		code, b, _, err := d.post(ctx, "/v1/modules/"+hash+"/mayalias-batch", bt.body)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return statusErr(code, b)
		}
		if _, err := checkBatch(b, bt); err != nil {
			return err
		}
	}
	return nil
}

// moreSetups reports whether set-up should be timed again after the
// given timings.
func moreSetups(times []float64) bool {
	total := 0.0
	for _, t := range times {
		total += t
	}
	n := len(times)
	return n < setupMaxRepeats && (n < setupRepeats || total < setupSpan.Seconds())
}

// serveSetup starts tbaad as often as moreSetups asks, each time timing
// daemon start → module resident → first verdict at both levels, and
// keeps the last daemon. setup(d) installs the module(s) and returns
// the hash.
func serveSetup(e env, flags func() ([]string, func(), error), setup func(d *daemon) (string, error)) (*daemon, string, func(), []float64, error) {
	var times []float64
	for {
		extra, cleanup, err := flags()
		if err != nil {
			return nil, "", nil, nil, err
		}
		start := time.Now()
		d, err := startDaemon(e.bin, e.work, extra...)
		if err != nil {
			cleanup()
			return nil, "", nil, nil, err
		}
		hash, err := setup(d)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			d.stop()
			cleanup()
			return nil, "", nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if !moreSetups(times) {
			return d, hash, cleanup, times, nil
		}
		if err := d.stop(); err != nil {
			cleanup()
			return nil, "", nil, nil, fmt.Errorf("stop tbaad after set-up: %w", err)
		}
		cleanup()
	}
}

func noFlags() ([]string, func(), error) { return nil, func() {}, nil }

// finishDaemon records resident_mb, checks that nothing was shed, and
// stops the daemon cleanly.
func finishDaemon(d *daemon, r *report) error {
	rss, err := d.vmHWM()
	if err != nil {
		return err
	}
	r.set("resident_mb", rss)
	m, err := scrapeMetrics(d.get)
	if err != nil {
		return err
	}
	for _, reason := range []string{"batch_size", "inflight", "memory"} {
		if n := m[`tbaad_shed_total{reason="`+reason+`"}`]; n != 0 {
			r.fail("tbaad shed %v requests (%s)", n, reason)
		}
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("tbaad did not stop cleanly: %w", err)
	}
	return nil
}

// reader is one closed-loop connection walking its batch sequence,
// wrapping at the end. With a pace it also waits, after each reply, for
// its next slot of one batch per pace. It records each batch's latency
// under its level.
// Every checkEvery-th batch of the sequence is decoded, checked for
// per-pair errors and compared with its expected verdicts if it has
// them; the rest must answer 200. Decoding every answer would load the
// two cores the daemon runs on.
type reader struct {
	bs    []batch
	next  int           // next index into bs
	pace  time.Duration // 0: no wait between batches
	lat   [2][]time.Duration
	pairs int64
	count *[2]atomic.Int64 // per-level sample counters shared by the connections
}

// run sends batches until stop reports true.
func (rd *reader) run(ctx context.Context, d *daemon, hash string, r *report, mu *sync.Mutex, stop func() bool) {
	path := "/v1/modules/" + hash + "/mayalias-batch"
	slot := time.Now()
	for !stop() {
		if rd.pace > 0 {
			time.Sleep(time.Until(slot))
			// A batch that overran its slot skips the slots it missed
			// rather than sending a burst to catch up.
			if slot = slot.Add(rd.pace); slot.Before(time.Now()) {
				slot = time.Now()
			}
		}
		i := rd.next % len(rd.bs)
		rd.next++
		bt := &rd.bs[i]
		code, b, dur, err := d.post(ctx, path, bt.body)
		if err == nil && code != http.StatusOK {
			err = statusErr(code, b)
		}
		if err == nil && i%checkEvery == 0 {
			_, err = checkBatch(b, bt)
		}
		mu.Lock()
		r.op(err == nil, "batch: %v", err)
		mu.Unlock()
		if err != nil {
			continue
		}
		rd.lat[bt.level] = append(rd.lat[bt.level], dur)
		rd.pairs += int64(len(bt.pairs))
		rd.count[bt.level].Add(1)
	}
}

// reset drops the samples taken so far (after the warm-up).
func (rd *reader) reset() { rd.lat, rd.pairs = [2][]time.Duration{}, 0 }

// firstN returns a stop function that allows n more iterations.
func firstN(n int) func() bool {
	return func() bool {
		n--
		return n < 0
	}
}

// runServeQuery: two closed-loop connections send 256-pair batches,
// alternating the two levels, against one ~30k-line module.
func runServeQuery(ctx context.Context, e env, r *report) error {
	m, err := newServeModule(e.seed)
	if err != nil {
		return err
	}
	_, as, err := buildBoth("serve.m3", m.src)
	if err != nil {
		return err
	}
	paths := as[0].Paths()
	var counts [2]atomic.Int64
	var conns [2]*reader
	for c := range conns {
		bs := queryBatches(e.seed, paths, c)
		if err := expect(bs, as, checkEvery); err != nil {
			return err
		}
		conns[c] = &reader{bs: bs, count: &counts}
	}
	first := [2]*batch{&conns[0].bs[0], &conns[1].bs[0]}
	as = [2]*tbaa.Analyzer{}
	freeLoadGenerator()

	d, hash, cleanup, setups, err := serveSetup(e, noFlags, func(d *daemon) (string, error) {
		h, err := d.upload(ctx, "serve.m3", m.src)
		if err != nil {
			return "", err
		}
		return h, firstVerdicts(ctx, d, h, first)
	})
	if err != nil {
		return err
	}
	defer cleanup()
	defer d.stop()
	r.setSetup(setups)

	var mu sync.Mutex
	run := func(stop func() func() bool) {
		var wg sync.WaitGroup
		for _, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(ctx, d, hash, r, &mu, stop())
			}()
		}
		wg.Wait()
	}
	// Warm-up: about two seconds of the same traffic. Shorter warm-ups
	// left the first seconds of the timed phase measurably slower.
	run(func() func() bool { return firstN(warmBatches) })
	for _, c := range conns {
		c.reset()
	}
	counts[0].Store(0)
	counts[1].Store(0)

	need := int64(needSamples())
	p := newPhase(e.seconds, func() bool { return counts[0].Load() >= need && counts[1].Load() >= need })
	run(func() func() bool { return p.over })
	elapsed := time.Since(p.start)

	var lat [2][]time.Duration
	var pairs int64
	for _, c := range conns {
		lat[0] = append(lat[0], c.lat[0]...)
		lat[1] = append(lat[1], c.lat[1]...)
		pairs += c.pairs
	}
	r.setDist("primary", summarize(lat[0]))
	r.setDist("secondary", summarize(lat[1]))
	r.set("throughput_per_s", float64(pairs)/elapsed.Seconds())
	return finishDaemon(d, r)
}

// runServeEdit: one connection applies one-procedure edits, each timed
// until the first verdict of the new generation; a second connection
// sends serve-query's 256-pair batches beside it, one per readerPace.
func runServeEdit(ctx context.Context, e env, r *report) error {
	m, err := newServeModule(e.seed)
	if err != nil {
		return err
	}
	stable, err := m.stablePaths()
	if err != nil {
		return err
	}
	var counts [2]atomic.Int64
	rd := &reader{bs: readerBatches(e.seed, stable), pace: readerPace, count: &counts}
	verdicts := editVerdictBatches(e.seed, stable)
	final := makeBatches(rngFor(e.seed, "final"), stable, 4, queryPairs, 0)
	editBodies := make([][]byte, len(m.edits))
	for i, ed := range m.edits {
		editBodies[i], _ = json.Marshal(server.EditRequest{Source: ed.src})
	}
	freeLoadGenerator()

	first := [2]*batch{&verdicts[1], &verdicts[0]}
	d, hash, cleanup, setups, err := serveSetup(e, noFlags, func(d *daemon) (string, error) {
		h, err := d.upload(ctx, "serve.m3", m.src)
		if err != nil {
			return "", err
		}
		return h, firstVerdicts(ctx, d, h, first)
	})
	if err != nil {
		return err
	}
	defer cleanup()
	defer d.stop()
	r.setSetup(setups)

	var mu sync.Mutex
	var applied []edit
	var editLat []time.Duration
	var lastGen uint64
	nextEdit := 0
	editPath := "/v1/modules/" + hash + "/edit"
	queryPath := "/v1/modules/" + hash + "/mayalias-batch"
	// oneEdit applies the next edit and waits for the first verdict of
	// the generation it produced.
	oneEdit := func() {
		i := nextEdit
		nextEdit++
		ed := m.edits[i%len(m.edits)]
		start := time.Now()
		code, b, _, err := d.post(ctx, editPath, editBodies[i%len(editBodies)])
		var resp server.EditResponse
		if err == nil && code != http.StatusOK {
			err = statusErr(code, b)
		}
		if err == nil {
			err = json.Unmarshal(b, &resp)
		}
		if err == nil {
			applied = append(applied, ed)
			if resp.Generation <= lastGen {
				err = fmt.Errorf("edit %d: generation %d does not advance past %d", i, resp.Generation, lastGen)
			}
			lastGen = resp.Generation
		}
		var gen uint64
		if err == nil {
			bt := &verdicts[i%len(verdicts)]
			code, b, _, err = d.post(ctx, queryPath, bt.body)
			if err == nil && code != http.StatusOK {
				err = statusErr(code, b)
			}
			if err == nil {
				gen, err = checkBatch(b, bt)
			}
			if err == nil && gen < resp.Generation {
				err = fmt.Errorf("edit %d: first verdict from generation %d, edit made %d", i, gen, resp.Generation)
			}
		}
		dur := time.Since(start)
		mu.Lock()
		r.op(err == nil, "edit: %v", err)
		mu.Unlock()
		if err == nil {
			editLat = append(editLat, dur)
		}
	}
	// concurrent runs the edit loop and the reader until stop.
	var tried, edits atomic.Int64
	concurrent := func(stop func() bool) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.run(ctx, d, hash, r, &mu, stop)
		}()
		for !stop() {
			oneEdit()
			tried.Add(1)
			edits.Store(int64(len(editLat)))
		}
		wg.Wait()
	}
	// Warm-up: the same traffic for warmEdits edits.
	concurrent(func() bool { return tried.Load() >= warmEdits })
	rd.reset()
	editLat = nil
	edits.Store(0)
	counts[0].Store(0)
	counts[1].Store(0)

	need := int64(needSamples())
	p := newPhase(e.seconds, func() bool {
		return edits.Load() >= need && counts[0].Load()+counts[1].Load() >= need
	})
	concurrent(p.over)
	elapsed := time.Since(p.start)

	r.setDist("primary", summarize(editLat))
	r.setDist("secondary", summarize(append(rd.lat[0], rd.lat[1]...)))
	r.set("throughput_per_s", float64(len(editLat))/elapsed.Seconds())
	r.info["reader_pairs_per_s"] = float64(rd.pairs) / elapsed.Seconds()
	r.info["edits_applied"] = float64(len(applied))

	// The daemon's last generation must answer exactly as a from-scratch
	// compile of the edited source.
	_, as, err := buildBoth("serve.m3", m.afterEdits(applied))
	if err != nil {
		return fmt.Errorf("compile the edited source: %w", err)
	}
	if err := expect(final, as, 1); err != nil {
		return err
	}
	for i := range final {
		code, b, _, err := d.post(ctx, queryPath, final[i].body)
		if err == nil && code != http.StatusOK {
			err = statusErr(code, b)
		}
		if err == nil {
			_, err = checkBatch(b, &final[i])
		}
		r.op(err == nil, "final generation vs fresh compile: %v", err)
	}
	return finishDaemon(d, r)
}

// runServeChurn: one connection uploads a stream of ~4k-line modules,
// more than tbaad's 16-module cap, each followed by one batch per level;
// first uploads build cold, re-uploads after eviction warm-start from
// the artifact cache.
func runServeChurn(ctx context.Context, e env, r *report) error {
	pool, err := newChurnPool(e.seed)
	if err != nil {
		return err
	}
	ops, evictions := churnStream(e.seed)
	freeLoadGenerator()

	uploadBody := func(b, v int) []byte {
		body, _ := json.Marshal(server.UploadRequest{File: pool.file(b, v), Source: pool.source(b, v)})
		return body
	}
	// Each daemon gets a fresh artifact directory, removed with it.
	flags := func() ([]string, func(), error) {
		dir, err := os.MkdirTemp(e.work, "artifacts-*")
		if err != nil {
			return nil, nil, err
		}
		return []string{"-cache-dir", dir}, func() { os.RemoveAll(dir) }, nil
	}
	d, _, cleanup, setups, err := serveSetup(e, flags, func(d *daemon) (string, error) {
		for b := 0; b < churnSetupModules; b++ {
			h, err := d.upload(ctx, pool.file(b, 0), pool.source(b, 0))
			if err != nil {
				return "", err
			}
			if err := firstVerdicts(ctx, d, h, [2]*batch{&pool.lists[b][0][0], &pool.lists[b][1][0]}); err != nil {
				return "", err
			}
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	defer cleanup()
	defer d.stop()
	r.setSetup(setups)

	var lat [2][]time.Duration // cold, warm
	var warmDone, coldDone int
	oneOp := func(op churnOp) {
		body := uploadBody(op.base, op.variant)
		start := time.Now()
		code, b, _, err := d.post(ctx, "/v1/modules", body)
		var up server.UploadResponse
		if err == nil && code != http.StatusCreated {
			err = statusErr(code, b)
		}
		if err == nil {
			err = json.Unmarshal(b, &up)
		}
		for lv := 0; lv < 2 && err == nil; lv++ {
			bt := &pool.lists[op.base][lv][op.batches[lv]]
			code, b, _, err = d.post(ctx, "/v1/modules/"+up.Hash+"/mayalias-batch", bt.body)
			if err == nil && code != http.StatusOK {
				err = statusErr(code, b)
			}
			if err == nil {
				_, err = checkBatch(b, bt)
			}
		}
		dur := time.Since(start)
		r.op(err == nil, "churn upload %s: %v", pool.file(op.base, op.variant), err)
		if err != nil {
			return
		}
		k := 0
		if op.warm {
			k = 1
			warmDone++
		} else {
			coldDone++
		}
		lat[k] = append(lat[k], dur)
	}
	const warmUp = 24
	for _, op := range ops[:warmUp] {
		oneOp(op)
	}
	lat = [2][]time.Duration{}
	need := needSamples()
	p := newPhase(e.seconds, func() bool { return len(lat[0]) >= need && len(lat[1]) >= need })
	n := warmUp
	for ; n < len(ops) && !p.over(); n++ {
		oneOp(ops[n])
	}
	elapsed := time.Since(p.start)
	r.setDist("primary", summarize(lat[0]))
	r.setDist("secondary", summarize(lat[1]))
	r.set("throughput_per_s", float64(len(lat[0])+len(lat[1]))/elapsed.Seconds())

	// The daemon's own counters must agree with the stream: every
	// eviction the LRU model predicts happened, every warm re-upload hit
	// its artifact at both levels, and every cold one missed.
	m, err := scrapeMetrics(d.get)
	if err != nil {
		return err
	}
	if r.failed == 0 {
		checks := []struct {
			name      string
			got, want float64
		}{
			{"tbaad_evictions_total", m["tbaad_evictions_total"], float64(evictions[n-1])},
			{"tbaad_artifact_hits_total", m["tbaad_artifact_hits_total"], float64(2 * warmDone)},
			{"tbaad_artifact_misses_total", m["tbaad_artifact_misses_total"], float64(2 * (coldDone + churnSetupModules))},
			{"tbaad_artifact_invalid_total", m["tbaad_artifact_invalid_total"], 0},
		}
		for _, c := range checks {
			r.op(c.got == c.want, "%s = %v, the stream implies %v", c.name, c.got, c.want)
		}
	}
	r.info["cold_uploads"] = float64(coldDone)
	r.info["warm_uploads"] = float64(warmDone)
	return finishDaemon(d, r)
}
