package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"tbaa"
	"tbaa/internal/randprog"
	"tbaa/internal/server"
)

// Input sizes. On two cores, edit latency on 100k-line modules spread
// too widely between runs, hence ~30k lines for the served module.
const (
	serveLines  = 30000 // serve-query / serve-edit module
	churnLines  = 4000  // serve-churn pool modules
	optGenLines = 1200  // optimize's generated programs
	optGenCount = 32

	queryPairs = 256 // pairs per serve-query / reader batch
	editPairs  = 64  // pairs in the first-verdict batch after an edit
	churnPairs = 32  // pairs per serve-churn batch
	seqPerConn = 384 // distinct batches per serving connection
	checkEvery = 4   // every 4th served batch is decoded and checked
	// An edit's cost depends on how many procedures reach the replaced
	// worker. Drawing edits over many workers makes a run's mix of cheap
	// and costly edits, and so its edit p90, vary less with the seed.
	editTargets  = 192 // workers an edit may replace (at most half of them)
	editSeqLen   = 4096
	churnBases   = 16 // generated bases of the churn pool
	churnPerBase = 8  // batches per base and level
	// Set-up uploads variant 0 of this many bases, so that setup_s
	// averages over several modules rather than hanging on one.
	churnSetupModules = 4
	churnCap          = 16   // tbaad's default -max-modules
	churnSeqLen       = 4096 // churn stream length (a run uses a prefix)
)

// levels are the two served configurations, in alternation order.
var levels = [2]tbaa.Level{tbaa.SMFieldTypeRefs, tbaa.IPTypeRefs}

var levelNames = [2]string{"smfieldtyperefs", "iptyperefs"}

// rngFor derives an independent stream for one purpose from the seed.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// batch is one pre-encoded mayalias-batch request and, when it is
// checked, the verdicts an in-process Analyzer gives for it.
type batch struct {
	level int // index into levels
	pairs []tbaa.Pair
	body  []byte
	want  []bool // nil: not compared
}

func encodeBatch(level int, pairs []tbaa.Pair) []byte {
	req := server.BatchRequest{
		LevelRequest: server.LevelRequest{Level: levelNames[level]},
		Pairs:        make([]server.PairJSON, len(pairs)),
	}
	for i, p := range pairs {
		req.Pairs[i] = server.PairJSON{P: p.P, Q: p.Q}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	return b
}

func randomPairs(rng *rand.Rand, paths []string, n int) []tbaa.Pair {
	out := make([]tbaa.Pair, n)
	for i := range out {
		out[i] = tbaa.Pair{P: paths[rng.Intn(len(paths))], Q: paths[rng.Intn(len(paths))]}
	}
	return out
}

// makeBatches draws n batches of size pairs over paths, alternating the
// two levels starting at first.
func makeBatches(rng *rand.Rand, paths []string, n, size, first int) []batch {
	out := make([]batch, n)
	for i := range out {
		out[i] = newBatch(rng, paths, size, (first+i)%2)
	}
	return out
}

// levelBatches draws n batches of size pairs over paths, all at level lv.
func levelBatches(rng *rand.Rand, paths []string, n, size, lv int) []batch {
	out := make([]batch, n)
	for i := range out {
		out[i] = newBatch(rng, paths, size, lv)
	}
	return out
}

func newBatch(rng *rand.Rand, paths []string, size, lv int) batch {
	ps := randomPairs(rng, paths, size)
	return batch{level: lv, pairs: ps, body: encodeBatch(lv, ps)}
}

// queryBatches is serving connection c's serve-query sequence.
func queryBatches(seed int64, paths []string, c int) []batch {
	return makeBatches(rngFor(seed, fmt.Sprintf("query%d", c)), paths, seqPerConn, queryPairs, c)
}

// readerBatches is serve-edit's reader sequence, over paths no edit
// touches.
func readerBatches(seed int64, stable []string) []batch {
	return makeBatches(rngFor(seed, "reader"), stable, seqPerConn, queryPairs, 0)
}

// editVerdictBatches are serve-edit's first-verdict batches, one per
// edit in turn.
func editVerdictBatches(seed int64, stable []string) []batch {
	return makeBatches(rngFor(seed, "editverdict"), stable, 64, editPairs, 1)
}

// expect fills want for every batch whose index is a multiple of every
// (every=1: all) from the per-level analyzers.
func expect(bs []batch, as [2]*tbaa.Analyzer, every int) error {
	for i := range bs {
		if i%every != 0 {
			continue
		}
		vs := as[bs[i].level].MayAliasBatch(context.Background(), bs[i].pairs)
		want := make([]bool, len(vs))
		for j, v := range vs {
			if v.Err != nil {
				return fmt.Errorf("in-process reference: %v", v.Err)
			}
			want[j] = v.MayAlias
		}
		bs[i].want = want
	}
	return nil
}

// buildBoth compiles src and builds an Analyzer at both served levels.
func buildBoth(file, src string) (*tbaa.Module, [2]*tbaa.Analyzer, error) {
	var as [2]*tbaa.Analyzer
	mod, err := tbaa.Compile(file, src)
	if err != nil {
		return nil, as, err
	}
	for i, lv := range levels {
		if as[i], err = mod.NewAnalyzer(tbaa.WithLevel(lv)); err != nil {
			return nil, as, err
		}
	}
	return mod, as, nil
}

// ---- the served module and its edits ----

var workerHead = regexp.MustCompile(`(?m)^PROCEDURE W(\d+)\(`)

// workers maps each worker index of a GenerateScale module to the byte
// span of its declaration ("PROCEDURE Wk(" … "END Wk;").
func workers(src string) (map[int][2]int, []int, error) {
	spans := map[int][2]int{}
	var order []int
	for _, m := range workerHead.FindAllStringSubmatchIndex(src, -1) {
		k, _ := strconv.Atoi(src[m[2]:m[3]])
		tail := fmt.Sprintf("END W%d;", k)
		end := strings.Index(src[m[0]:], tail)
		if end < 0 {
			return nil, nil, fmt.Errorf("worker W%d has no %q", k, tail)
		}
		spans[k] = [2]int{m[0], m[0] + end + len(tail)}
		order = append(order, k)
	}
	if len(order) < 4 {
		return nil, nil, fmt.Errorf("module has %d workers, need 4", len(order))
	}
	return spans, order, nil
}

// edit replaces worker target's declaration with worker from's,
// renamed to target.
type edit struct {
	target, from int
	src          string
}

// renameWorker returns worker from's declaration renamed to target.
// Worker bodies only call other workers, never themselves, so the
// header and the END line are the only occurrences of the name.
func renameWorker(decl string, from, target int) string {
	decl = strings.Replace(decl, fmt.Sprintf("PROCEDURE W%d(", from), fmt.Sprintf("PROCEDURE W%d(", target), 1)
	return strings.Replace(decl, fmt.Sprintf("END W%d;", from), fmt.Sprintf("END W%d;", target), 1)
}

// serveModule is a generated module (the ~30k-line one of serve-query
// and serve-edit, or a smaller one) with a seeded edit sequence over
// editTargets of its workers.
type serveModule struct {
	src     string
	spans   map[int][2]int
	targets []int
	edits   []edit
}

func newServeModule(seed int64) (*serveModule, error) {
	return newEditable(randprog.GenerateScale(seed, randprog.ScaleConfigForLines(serveLines)), seed)
}

// newEditable draws the seeded edit sequence for a GenerateScale module.
func newEditable(src string, seed int64) (*serveModule, error) {
	spans, order, err := workers(src)
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, "edits")
	perm := rng.Perm(len(order))
	m := &serveModule{src: src, spans: spans}
	for _, i := range perm[:min(editTargets, len(order)/2)] {
		m.targets = append(m.targets, order[i])
	}
	for len(m.edits) < editSeqLen {
		t := m.targets[rng.Intn(len(m.targets))]
		f := m.targets[rng.Intn(len(m.targets))]
		if f == t {
			continue
		}
		sp := spans[f]
		m.edits = append(m.edits, edit{target: t, from: f, src: renameWorker(src[sp[0]:sp[1]], f, t)})
	}
	return m, nil
}

// withBodies returns the module with each worker of repl replaced by
// the given declaration.
func (m *serveModule) withBodies(repl map[int]string) string {
	type cut struct {
		lo, hi int
		text   string
	}
	cuts := make([]cut, 0, len(repl))
	for k, text := range repl {
		sp := m.spans[k]
		cuts = append(cuts, cut{sp[0], sp[1], text})
	}
	// Apply from the end so earlier offsets stay valid.
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j].lo > cuts[j-1].lo; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := m.src
	for _, c := range cuts {
		out = out[:c.lo] + c.text + out[c.hi:]
	}
	return out
}

// afterEdits is the module source once the given edits are applied in
// order.
func (m *serveModule) afterEdits(applied []edit) string {
	repl := map[int]string{}
	for _, e := range applied {
		repl[e.target] = e.src
	}
	return m.withBodies(repl)
}

// stablePaths are the access paths present in every edited state: the
// paths of the module with every edit target's body emptied, i.e. the
// paths of code no edit touches.
func (m *serveModule) stablePaths() ([]string, error) {
	repl := map[int]string{}
	for _, k := range m.targets {
		repl[k] = fmt.Sprintf("PROCEDURE W%d(d: INTEGER; a: INTEGER): INTEGER =\nBEGIN\n  RETURN a + d;\nEND W%d;", k, k)
	}
	a, err := tbaa.New("stable.m3", m.withBodies(repl), tbaa.WithLevel(tbaa.TypeDecl))
	if err != nil {
		return nil, fmt.Errorf("stripped module: %w", err)
	}
	return a.Paths(), nil
}

// ---- serve-churn's pool and stream ----

// churnPool is serve-churn's module pool: churnBases generated bases
// and, per base and level, churnPerBase batches over the base's paths
// with the verdicts in-process analyzers give for them.
type churnPool struct {
	bases []string
	lists [][2][]batch // per base, per level
}

func newChurnPool(seed int64) (*churnPool, error) {
	rng := rngFor(seed, "churnbase")
	p := &churnPool{bases: make([]string, churnBases), lists: make([][2][]batch, churnBases)}
	for b := range p.bases {
		p.bases[b] = randprog.GenerateScale(rng.Int63(), randprog.ScaleConfigForLines(churnLines))
		_, as, err := buildBoth(fmt.Sprintf("base%d.m3", b), p.bases[b])
		if err != nil {
			return nil, err
		}
		paths := as[0].Paths()
		for lv := range levels {
			bs := levelBatches(rngFor(seed, fmt.Sprintf("churn%d.%d", b, lv)), paths, churnPerBase, churnPairs, lv)
			if err := expect(bs, as, 1); err != nil {
				return nil, err
			}
			p.lists[b][lv] = bs
		}
	}
	return p, nil
}

// file names variant v of base b.
func (p *churnPool) file(b, v int) string { return fmt.Sprintf("base%d-v%d.m3", b, v) }

// source is variant v of base b.
func (p *churnPool) source(b, v int) string { return churnVariant(p.bases[b], v) }

// churnVariant is base b with one extra integer statement in the module
// body: a distinct module (own content hash, so a cold build) whose
// access paths and verdicts are the base's.
func churnVariant(base string, v int) string {
	i := strings.LastIndex(base, "\nEND ")
	return base[:i] + fmt.Sprintf("\n  gi0 := (gi0 + %d) MOD 99991;", v) + base[i:]
}

// churnOp is one upload of the stream: which base and variant, whether
// the module was ever uploaded before (warm: it was, and has since been
// evicted), and the two checked batches that follow it.
type churnOp struct {
	base, variant int
	warm          bool
	batches       [2]int // indices into the base's batch list
}

// churnStream simulates tbaad's LRU (cap churnCap, variant 0 of the
// first churnSetupModules bases resident from set-up) to draw a stream in which every upload is either a
// module's first (cold) or a re-upload after its eviction (warm), half
// and half once evictions exist. It also returns the number of LRU
// evictions after each op.
func churnStream(seed int64) (ops []churnOp, evictions []int) {
	rng := rngFor(seed, "churn")
	type key struct{ b, v int }
	var lru []key                   // most recent last
	uploaded := map[key]bool{}      // ever uploaded
	var evicted []key               // uploaded and not resident
	next := make([]int, churnBases) // next fresh variant per base
	for i := range next {
		next[i] = 1
	}
	for b := 0; b < churnSetupModules; b++ { // the set-up modules
		lru = append(lru, key{b, 0})
		uploaded[key{b, 0}] = true
	}
	ev := 0
	for len(ops) < churnSeqLen {
		var k key
		warm := len(evicted) > 0 && rng.Intn(2) == 0
		if warm {
			j := rng.Intn(len(evicted))
			k = evicted[j]
			evicted = append(evicted[:j], evicted[j+1:]...)
		} else {
			b := rng.Intn(churnBases)
			k = key{b, next[b]}
			next[b]++
		}
		uploaded[k] = true
		lru = append(lru, k)
		if len(lru) > churnCap {
			evicted = append(evicted, lru[0])
			lru = lru[1:]
			ev++
		}
		ops = append(ops, churnOp{
			base: k.b, variant: k.v, warm: warm,
			batches: [2]int{rng.Intn(churnPerBase), rng.Intn(churnPerBase)},
		})
		evictions = append(evictions, ev)
	}
	return ops, evictions
}

// ---- optimize's program set ----

// program is one member of optimize's set.
type program struct {
	name  string
	src   string
	lines int
}

// optPrograms returns the eight measured stock programs, lower-vm and
// optGenCount seeded generated modules.
func optPrograms(seed int64) ([]program, error) {
	var out []program
	stock := tbaa.MeasuredBenchmarks()
	vm, ok := tbaa.BenchmarkByName("lower-vm")
	if !ok {
		return nil, fmt.Errorf("no lower-vm benchmark")
	}
	for _, b := range append(stock, vm) {
		out = append(out, program{name: b.Name, src: b.Source})
	}
	rng := rngFor(seed, "optimize")
	for i := 0; i < optGenCount; i++ {
		s := rng.Int63()
		out = append(out, program{
			name: fmt.Sprintf("gen%d", i),
			src:  randprog.GenerateScale(s, randprog.ScaleConfigForLines(optGenLines)),
		})
	}
	for i := range out {
		out[i].lines = strings.Count(out[i].src, "\n") + 1
	}
	return out, nil
}
