package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"tbaa"
	"tbaa/internal/alias"
	"tbaa/internal/artifact"
	"tbaa/internal/ast"
	"tbaa/internal/driver"
	"tbaa/internal/interp"
	"tbaa/internal/ir"
	"tbaa/internal/lower"
	"tbaa/internal/modref"
	"tbaa/internal/parser"
	"tbaa/internal/sema"
	"tbaa/internal/server"
	"tbaa/internal/types"
)

// The traced run (--trace 1) replays a workload's inputs in process
// with a span around every call the benchmark makes into a layer:
//
//   - the library replay times the public tbaa calls the daemon makes
//     (Compile, NewAnalyzer, warm start, MayAliasBatch, EditProc,
//     ApplyEdit);
//   - the decomposition replay calls the exported layer functions in
//     the order the tbaa API calls them (parser.Parse, sema.Check,
//     lower.Lower, ir.InternAPs, alias.New, modref.ComputeWith,
//     artifact.Write/Load, ir.ExtendAPs, modref.Update,
//     driver.RunPasses, interp.Run);
//   - the served replay sends the workload's requests through an
//     in-process Server.Handler().ServeHTTP, and the same batches over
//     a loopback connection.
//
// Every layer runs at least once on every workload's own inputs; the
// workload decides how often. Spans are written to <work>/trace/ at the
// end.

// libModule is one module the library replay builds and queries.
type libModule struct {
	name, src string
	editable  *serveModule // nil: no edits
	batches   func(paths []string) []batch
}

// traceInputs is what one workload's traced run replays.
type traceInputs struct {
	lib    []libModule // modules the library and decomposition replays walk
	edits  int         // edits the library replay applies per editable module
	served func(sr *servedReplay) error
}

// counters accumulates a traced run's counts and failures.
type counters struct {
	r      *report
	counts map[string]float64
}

func (c *counters) add(name string, v float64) { c.counts[name] += v }

func runTrace(e env, r *report, traceDir string) error {
	in, err := traceInputsFor(e)
	if err != nil {
		return err
	}
	tr := newTracer()
	c := &counters{r: r, counts: map[string]float64{}}

	overhead, err := libraryReplay(tr, c, e, in)
	if err != nil {
		return err
	}
	if err := decompositionReplay(tr, c, e, in); err != nil {
		return err
	}
	sr, err := newServedReplay(tr, c, e)
	if err != nil {
		return err
	}
	err = in.served(sr)
	if cerr := sr.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	self := tr.selfTimes()
	for _, name := range []string{
		"parser.parse", "sema.check", "lower.lower", "ir.intern", "ir.extend",
		"alias.build", "alias.flow", "modref.rta", "modref.update",
		"tbaa.build", "tbaa.edit_check", "tbaa.apply_edit", "tbaa.warm_start",
		"artifact.load", "artifact.write",
		"opt.devirt", "opt.inline", "opt.rle", "opt.pre",
		"server.decode", "server.encode", "server.batch_handler",
		"server.edit_handler", "server.upload_handler",
	} {
		lt := self[name]
		if lt.Calls == 0 {
			return fmt.Errorf("layer %s never ran", name)
		}
		r.set(name+"_ms", meanMs(lt))
		r.info[name+".calls"] = float64(lt.Calls)
	}
	pairs := c.counts["alias.batch.pairs"]
	r.set("alias.batch_ns_per_pair", float64(self["alias.batch"].Self)/pairs)
	r.set("server.transport_ms", meanMs(self["server.loopback"])-meanMs(self["server.batch_handler"]))
	r.set("server.response_bytes_per_pair", c.counts["server.response_bytes"]/c.counts["server.pairs"])
	r.set("tbaa.alloc_mb_per_build", c.counts["tbaa.build.alloc"]/float64(self["tbaa.build"].Calls)/(1<<20))
	r.set("tbaa.alloc_mb_per_edit", c.counts["tbaa.edit.alloc"]/c.counts["tbaa.edits"]/(1<<20))
	for _, name := range []string{
		"lower.instrs", "ir.aps", "alias.classes", "artifact.bytes",
		"opt.loads_eliminated", "opt.loads_hoisted", "opt.devirtualized",
		"interp.instructions", "interp.heap_loads",
		"server.evictions", "server.shed", "artifact.hit_ratio",
	} {
		r.set(name, c.counts[name])
	}
	r.set("trace.overhead_pct", overhead)
	return tr.write(filepath.Join(traceDir, e.workload+".jsonl"))
}

// traceInputsFor assembles the workload's inputs with the same seeded
// generators its untraced run uses.
func traceInputsFor(e env) (*traceInputs, error) {
	switch e.workload {
	case "serve-query", "serve-edit":
		m, err := newServeModule(e.seed)
		if err != nil {
			return nil, err
		}
		in := &traceInputs{edits: 4}
		lm := libModule{name: "serve.m3", src: m.src, editable: m}
		var stable []string
		if e.workload == "serve-query" {
			lm.batches = func(paths []string) []batch {
				return append(queryBatches(e.seed, paths, 0)[:48], queryBatches(e.seed, paths, 1)[:48]...)
			}
		} else {
			in.edits = 40
			if stable, err = m.stablePaths(); err != nil {
				return nil, err
			}
			lm.batches = func([]string) []batch {
				return readerBatches(e.seed, stable)[:96]
			}
		}
		in.lib = []libModule{lm}
		in.served = func(sr *servedReplay) error { return sr.serveModule(e, m, stable, in.edits) }
		return in, nil

	case "serve-churn":
		pool, err := newChurnPool(e.seed)
		if err != nil {
			return nil, err
		}
		in := &traceInputs{edits: 4}
		for b, src := range pool.bases {
			ed, err := newEditable(src, e.seed)
			if err != nil {
				return nil, err
			}
			bs := append(slices.Clone(pool.lists[b][0]), pool.lists[b][1]...)
			in.lib = append(in.lib, libModule{
				name: fmt.Sprintf("base%d.m3", b), src: src, editable: ed,
				batches: func([]string) []batch { return bs },
			})
		}
		in.served = func(sr *servedReplay) error { return sr.churn(e, pool) }
		return in, nil

	case "optimize":
		progs, err := optPrograms(e.seed)
		if err != nil {
			return nil, err
		}
		in := &traceInputs{edits: 4}
		for _, p := range progs {
			lm := libModule{name: p.name, src: p.src}
			if len(p.name) > 3 && p.name[:3] == "gen" {
				if lm.editable, err = newEditable(p.src, e.seed); err != nil {
					return nil, err
				}
			}
			name := p.name
			lm.batches = func(paths []string) []batch {
				return makeBatches(rngFor(e.seed, "optlib"+name), paths, 16, 64, 0)
			}
			in.lib = append(in.lib, lm)
		}
		in.served = func(sr *servedReplay) error { return sr.programs(in.lib) }
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q", e.workload)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// libraryReplay builds every library module at both levels — fresh, and
// through the artifact cache twice (a miss, then a warm start whose
// answers must equal the fresh build's) — queries it, and applies the
// module's edits. It returns the tracing overhead in percent.
func libraryReplay(tr *tracer, c *counters, e env, in *traceInputs) (float64, error) {
	var probe []batch
	var probeA *tbaa.Analyzer
	for _, lm := range in.lib {
		var mod *tbaa.Module
		var err error
		tr.do("tbaa.compile", func() { mod, err = tbaa.Compile(lm.name, lm.src) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", lm.name, err)
		}
		dir, err := os.MkdirTemp(e.work, "lib-artifacts-*")
		if err != nil {
			return 0, err
		}
		var as [2]*tbaa.Analyzer
		var bs []batch
		for lv, level := range levels {
			// NewAnalyzer lowers the module; the first query then builds
			// the alias and mod-ref layers. Both are the build.
			a0 := totalAlloc()
			tr.do("tbaa.build", func() {
				if as[lv], err = mod.NewAnalyzer(tbaa.WithLevel(level)); err == nil {
					as[lv].Paths()
				}
			})
			c.add("tbaa.build.alloc", float64(totalAlloc()-a0))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", lm.name, err)
			}
			var cold, warm *tbaa.Analyzer
			tr.do("tbaa.build_cached", func() { cold, err = mod.NewAnalyzer(tbaa.WithLevel(level), tbaa.WithArtifactCache(dir)) })
			if err == nil {
				tr.do("tbaa.warm_start", func() {
					if warm, err = mod.NewAnalyzer(tbaa.WithLevel(level), tbaa.WithArtifactCache(dir)); err == nil {
						warm.Paths()
					}
				})
			}
			if err != nil {
				return 0, fmt.Errorf("%s: %w", lm.name, err)
			}
			c.r.op(cold.ArtifactStatus() == tbaa.ArtifactMiss && warm.ArtifactStatus() == tbaa.ArtifactHit,
				"%s at %s: artifact statuses %v then %v, want miss then hit", lm.name, level, cold.ArtifactStatus(), warm.ArtifactStatus())
			if bs == nil {
				bs = lm.batches(as[0].Paths())
			}
			for i := range bs {
				if bs[i].level != lv {
					continue
				}
				var vs []tbaa.Verdict
				tr.do("alias.batch", func() { vs = as[lv].MayAliasBatch(context.Background(), bs[i].pairs) })
				c.add("alias.batch.pairs", float64(len(bs[i].pairs)))
				ws := warm.MayAliasBatch(context.Background(), bs[i].pairs)
				c.r.op(sameVerdicts(vs, ws), "%s at %s: warm-started answers differ from a fresh build", lm.name, level)
			}
		}
		os.RemoveAll(dir)
		if probe == nil {
			probe, probeA = bs, as[0]
		}
		if lm.editable == nil {
			continue
		}
		for _, ed := range lm.editable.edits[:in.edits] {
			a0 := totalAlloc()
			var pe *tbaa.ProcEdit
			tr.do("tbaa.edit_check", func() { pe, err = mod.EditProc(ed.src) })
			for _, a := range as {
				if err == nil {
					tr.do("tbaa.apply_edit", func() { err = a.ApplyEdit(pe) })
				}
			}
			c.add("tbaa.edit.alloc", float64(totalAlloc()-a0))
			c.add("tbaa.edits", 1)
			c.r.op(err == nil, "%s: edit W%d: %v", lm.name, ed.target, err)
		}
	}
	return traceOverhead(probeA, probe), nil
}

// traceOverhead times the probe batches at level 0 without and with a
// span per call, seven times each in alternating order, and returns
// the difference of the fastest of each as a percentage of the
// untraced one: the fastest pass is the one least disturbed by the
// rest of the machine. Each timing repeats the batches until it covers
// at least 100ms.
func traceOverhead(a *tbaa.Analyzer, bs []batch) float64 {
	var probe []*batch
	for i := range bs {
		if bs[i].level == 0 {
			probe = append(probe, &bs[i])
		}
	}
	reps := 1
	pass := func(t *tracer) float64 {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, bt := range probe {
				if t == nil {
					a.MayAliasBatch(context.Background(), bt.pairs)
					continue
				}
				t.do("probe", func() { a.MayAliasBatch(context.Background(), bt.pairs) })
			}
		}
		return float64(time.Since(start))
	}
	if d := pass(nil); d < float64(100*time.Millisecond) {
		reps = int(float64(100*time.Millisecond)/d) + 1
	}
	var plain, traced []float64
	for i := 0; i < 7; i++ {
		if i%2 == 0 {
			plain = append(plain, pass(nil))
			traced = append(traced, pass(newTracer()))
		} else {
			traced = append(traced, pass(newTracer()))
			plain = append(plain, pass(nil))
		}
	}
	u := slices.Min(plain)
	return (slices.Min(traced) - u) / u * 100
}

func sameVerdicts(a, b []tbaa.Verdict) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MayAlias != b[i].MayAlias || (a[i].Err == nil) != (b[i].Err == nil) {
			return false
		}
	}
	return true
}

// decompositionReplay walks every decomposition module through the
// layer functions at both levels.
func decompositionReplay(tr *tracer, c *counters, e env, in *traceInputs) error {
	dir, err := os.MkdirTemp(e.work, "decomp-artifacts-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, lm := range in.lib {
		for _, level := range levels {
			tr.begin("decompose")
			err := decompose(tr, c, dir, lm, level)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s at %s: %w", lm.name, level, err)
			}
		}
	}
	return nil
}

func countInstrs(prog *ir.Program) int {
	n := 0
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// frontend is parser.Parse then sema.Check, each in its span.
func frontend(tr *tracer, lm libModule) (*sema.Program, error) {
	var m *ast.Module
	var err error
	tr.do("parser.parse", func() { m, err = parser.Parse(lm.name, lm.src) })
	if err != nil {
		return nil, err
	}
	var sp *sema.Program
	tr.do("sema.check", func() {
		if sp, err = sema.Check(m); err == nil {
			sp.Universe.Precompute()
		}
	})
	return sp, err
}

func decompose(tr *tracer, c *counters, dir string, lm libModule, level tbaa.Level) error {
	sp, err := frontend(tr, lm)
	if err != nil {
		return err
	}
	var prog *ir.Program
	tr.do("lower.lower", func() { prog = lower.Lower(sp) })
	c.add("lower.instrs", float64(countInstrs(prog)))
	var idx *ir.APIndex
	tr.do("ir.intern", func() { idx = ir.InternAPs(prog) })
	c.add("ir.aps", float64(idx.Len()))

	opts := alias.Options{Level: alias.Level(level)}.Normalize()
	var o *alias.Analysis
	var snap *alias.Snapshot
	// alias.New interns again internally; over already-numbered paths
	// that walk writes nothing.
	tr.do("alias.build", func() {
		o = alias.New(prog, opts)
		snap = o.Snapshot()
	})
	if snap == nil {
		return fmt.Errorf("alias: no snapshot")
	}
	c.add("alias.classes", float64(len(snap.RepIIDs)))
	// At IPTypeRefs, the summaries are configured and wired into the
	// oracle as driver.PassEnv.Oracle does before any flow fact exists.
	var mr *modref.ModRef
	var mrCfg modref.Config
	var mrSnap *modref.Snapshot
	if opts.Interprocedural {
		mrCfg = modref.Config{RTA: true, OpenWorld: opts.OpenWorld, Refine: refineFrom(o)}
		tr.do("modref.rta", func() { mr = modref.ComputeWith(prog, mrCfg) })
		o.SetCallSummaries(ipSummaries{mr: mr, o: o, at: prog.AddressTakenVars})
		tr.do("alias.flow", func() { alias.CountPairs(prog, o) })
		mrSnap = mr.Snapshot()
	}
	key := artifact.Key{ModuleHash: tbaa.ModuleHash(lm.src), Level: int(opts.Level)}
	tr.do("artifact.write", func() { err = artifact.Write(dir, key, prog, o.Index(), snap, mrSnap) })
	if err != nil {
		return err
	}
	st, err := os.Stat(artifact.Path(dir, key))
	if err != nil {
		return err
	}
	c.add("artifact.bytes", float64(st.Size()))
	tr.do("artifact.load", func() { _, err = artifact.Load(dir, key, sp.Universe) })
	if err != nil {
		return err
	}

	// The pass pipeline, one driver.RunPasses call per pass, over a
	// fresh lowering; the optimized program must print what the
	// unoptimized one does.
	env, err := driver.NewPassEnv(lower.Lower(sp), opts)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		span string
		pass driver.Pass
	}{
		{"opt.devirt", driver.DevirtPass{}},
		{"opt.inline", driver.MinvInlinePass{}},
		{"opt.rle", driver.RLEPass{}},
		{"opt.pre", driver.PREPass{}},
	} {
		var res []driver.PassResult
		tr.do(p.span, func() { res, err = driver.RunPasses(env, p.pass) })
		if err != nil {
			return err
		}
		for _, pr := range res {
			c.add("opt.loads_eliminated", float64(pr.Eliminated))
			c.add("opt.loads_hoisted", float64(pr.Hoisted))
			c.add("opt.devirtualized", float64(pr.Devirtualized))
		}
	}
	want, err := interp.New(lower.Lower(sp)).Run()
	if err != nil {
		return fmt.Errorf("unoptimized run: %w", err)
	}
	run := interp.New(env.Prog)
	var got string
	tr.do("interp.run", func() { got, err = run.Run() })
	if err != nil {
		return fmt.Errorf("optimized run: %w", err)
	}
	c.r.op(got == want, "%s at %s: optimized output differs from the unoptimized run", lm.name, level)
	c.add("interp.instructions", float64(run.Stats().Instructions))
	c.add("interp.heap_loads", float64(run.Stats().HeapLoads))

	// One edit, as ApplyEdit performs it: re-lower the procedure, then
	// extend the intern index and update the summaries from the dirty set.
	if lm.editable == nil {
		return nil
	}
	ed := lm.editable.edits[0]
	decl, err := parseProcDecl(lm.name, ed.src)
	if err != nil {
		return err
	}
	proc, err := sp.ReplaceProc(decl)
	if err != nil {
		return err
	}
	clock := prog.MutClock()
	lower.LowerProcInto(prog, sp, proc)
	dirty := prog.DirtySince(clock)
	tr.do("ir.extend", func() { ir.ExtendAPs(prog, o.Index(), dirty) })
	if mr != nil {
		tr.do("modref.update", func() { modref.Update(mr, mrCfg, dirty) })
	}
	return nil
}

// refineFrom narrows receivers by the oracle's TypeRefsTable, as the
// driver's IPTypeRefs mod-ref configuration does.
func refineFrom(o *alias.Analysis) func(*types.Object) []int {
	return func(obj *types.Object) []int {
		if refs := o.TypeRefs(obj); refs != nil {
			return refs.IDs()
		}
		return nil
	}
}

// ipSummaries answers the oracle's call-kill questions from the mod-ref
// summaries, context-free, as the driver's adapter does.
type ipSummaries struct {
	mr *modref.ModRef
	o  alias.Oracle
	at map[*ir.Var]bool
}

func (s ipSummaries) CallKillsPath(call *ir.Instr, ap *ir.AP) bool {
	return modref.MayModify(s.mr.CallEffects(call), ap, alias.Site{}, s.o, s.at)
}

func (s ipSummaries) CallMayRebind(call *ir.Instr, v *ir.Var) bool {
	return s.mr.CallEffects(call).MayRebind(v, s.at)
}

// parseProcDecl parses one PROCEDURE declaration the way tbaa's edit
// path does: as the only declaration of a wrapper module.
func parseProcDecl(file, src string) (*ast.ProcDecl, error) {
	m, err := parser.Parse(file, "MODULE EditM3; "+src+" BEGIN END EditM3.")
	if err != nil {
		return nil, err
	}
	if len(m.Decls) != 1 {
		return nil, fmt.Errorf("edit source has %d declarations", len(m.Decls))
	}
	pd, ok := m.Decls[0].(*ast.ProcDecl)
	if !ok {
		return nil, fmt.Errorf("edit source is not a procedure")
	}
	return pd, nil
}

// servedReplay sends requests through an in-process server's handler,
// and batches also over a loopback connection to the same handler.
type servedReplay struct {
	tr     *tracer
	c      *counters
	h      http.Handler
	ts     *httptest.Server
	client *http.Client
	dir    string // artifact directory, if any
}

func newServedReplay(tr *tracer, c *counters, e env) (*servedReplay, error) {
	cfg := server.Config{}
	sr := &servedReplay{tr: tr, c: c}
	if e.workload == "serve-churn" {
		dir, err := os.MkdirTemp(e.work, "served-artifacts-*")
		if err != nil {
			return nil, err
		}
		cfg.CacheDir, sr.dir = dir, dir
	}
	sr.h = server.New(cfg).Handler()
	sr.ts = httptest.NewServer(sr.h)
	sr.client = sr.ts.Client()
	return sr, nil
}

// close scrapes /metrics for the evictions, shed requests and artifact
// hit ratio, and releases the loopback server.
func (sr *servedReplay) close() error {
	defer func() {
		sr.ts.Close()
		if sr.dir != "" {
			os.RemoveAll(sr.dir)
		}
	}()
	m, err := scrapeMetrics(func(path string) (int, []byte, error) {
		code, b := sr.do("metrics", http.MethodGet, path, nil)
		return code, b, nil
	})
	if err != nil {
		return err
	}
	sr.c.add("server.evictions", m["tbaad_evictions_total"])
	sr.c.add("server.shed", m[`tbaad_shed_total{reason="batch_size"}`]+m[`tbaad_shed_total{reason="inflight"}`]+m[`tbaad_shed_total{reason="memory"}`])
	hits := m["tbaad_artifact_hits_total"]
	if all := hits + m["tbaad_artifact_misses_total"] + m["tbaad_artifact_invalid_total"]; all > 0 {
		sr.c.add("artifact.hit_ratio", hits/all)
	}
	return nil
}

// do serves one request through the handler inside a span
// "server.<kind>".
func (sr *servedReplay) do(kind, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sr.tr.do("server."+kind, func() { sr.h.ServeHTTP(rec, req) })
	return rec.Code, rec.Body.Bytes()
}

func (sr *servedReplay) upload(file, src string) (string, error) {
	body, _ := json.Marshal(server.UploadRequest{File: file, Source: src})
	code, b := sr.do("upload_handler", http.MethodPost, "/v1/modules", body)
	sr.c.r.op(code == http.StatusCreated, "upload %s: HTTP %d", file, code)
	var resp server.UploadResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return "", fmt.Errorf("upload %s: %w", file, err)
	}
	return resp.Hash, nil
}

// firstBatch serves a module's first batch at a level, which builds
// the analyzer (or warm-starts it), and checks the answer.
func (sr *servedReplay) firstBatch(hash string, bt *batch) {
	code, b := sr.do("first_batch", http.MethodPost, "/v1/modules/"+hash+"/mayalias-batch", bt.body)
	var err error
	if code != http.StatusOK {
		err = statusErr(code, b)
	} else {
		_, err = checkBatch(b, bt)
	}
	sr.c.r.op(err == nil, "served first batch: %v", err)
}

// batch serves bt through the handler and over loopback, checks the
// answer, and replays the handler's JSON decode and encode.
func (sr *servedReplay) batch(hash string, bt *batch) error {
	path := "/v1/modules/" + hash + "/mayalias-batch"
	code, b := sr.do("batch_handler", http.MethodPost, path, bt.body)
	var err error
	if code != http.StatusOK {
		err = statusErr(code, b)
	} else {
		_, err = checkBatch(b, bt)
	}
	sr.c.r.op(err == nil, "served batch: %v", err)
	if err != nil {
		return nil
	}
	sr.tr.do("server.decode", func() {
		var req server.BatchRequest
		dec := json.NewDecoder(bytes.NewReader(bt.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return err
	}
	var buf bytes.Buffer
	sr.tr.do("server.encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	if err != nil {
		return err
	}
	sr.c.add("server.response_bytes", float64(len(b)))
	sr.c.add("server.pairs", float64(len(bt.pairs)))

	sr.tr.do("server.loopback", func() {
		var resp *http.Response
		resp, err = sr.client.Post(sr.ts.URL+path, "application/json", bytes.NewReader(bt.body))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	return err
}

func (sr *servedReplay) edit(hash string, ed edit) {
	body, _ := json.Marshal(server.EditRequest{Source: ed.src})
	code, b := sr.do("edit_handler", http.MethodPost, "/v1/modules/"+hash+"/edit", body)
	sr.c.r.op(code == http.StatusOK, "served edit W%d: HTTP %d: %s", ed.target, code, clip(b))
}

// serveModule replays serve-query / serve-edit: upload, the first
// batches of the workload's sequences, and edits each followed by a
// first-verdict batch and two reader batches.
func (sr *servedReplay) serveModule(e env, m *serveModule, stable []string, edits int) error {
	hash, err := sr.upload("serve.m3", m.src)
	if err != nil {
		return err
	}
	if stable == nil {
		_, as, err := buildBoth("serve.m3", m.src)
		if err != nil {
			return err
		}
		paths := as[0].Paths()
		for c := 0; c < 2; c++ {
			bs := queryBatches(e.seed, paths, c)[:48]
			if err := expect(bs, as, 1); err != nil {
				return err
			}
			if c == 0 {
				sr.firstBatch(hash, &bs[0])
				sr.firstBatch(hash, &bs[1])
			}
			for i := range bs {
				if err := sr.batch(hash, &bs[i]); err != nil {
					return err
				}
			}
		}
		for _, ed := range m.edits[:edits] {
			sr.edit(hash, ed)
		}
		return nil
	}
	rd := readerBatches(e.seed, stable)
	verdicts := editVerdictBatches(e.seed, stable)
	sr.firstBatch(hash, &verdicts[1])
	sr.firstBatch(hash, &verdicts[0])
	for i, ed := range m.edits[:edits] {
		sr.edit(hash, ed)
		for _, bt := range []*batch{&verdicts[i%len(verdicts)], &rd[2*i], &rd[2*i+1]} {
			if err := sr.batch(hash, bt); err != nil {
				return err
			}
		}
	}
	return nil
}

// churn replays serve-churn's set-up uploads and the first 48
// operations of its stream, and edits the module uploaded last.
func (sr *servedReplay) churn(e env, pool *churnPool) error {
	stream, _ := churnStream(e.seed)
	var ops []churnOp
	for b := 0; b < churnSetupModules; b++ {
		ops = append(ops, churnOp{base: b})
	}
	ops = append(ops, stream...)
	var hash string
	var last churnOp
	for _, op := range ops[:churnSetupModules+48] {
		h, err := sr.upload(pool.file(op.base, op.variant), pool.source(op.base, op.variant))
		if err != nil {
			return err
		}
		for lv := range levels {
			sr.firstBatch(h, &pool.lists[op.base][lv][op.batches[lv]])
		}
		for lv := range levels {
			if err := sr.batch(h, &pool.lists[op.base][lv][(op.batches[lv]+1)%churnPerBase]); err != nil {
				return err
			}
		}
		hash, last = h, op
	}
	ed, err := newEditable(pool.bases[last.base], e.seed)
	if err != nil {
		return err
	}
	for _, x := range ed.edits[:4] {
		sr.edit(hash, x)
	}
	return nil
}

// programs replays optimize through the server: every program uploaded
// and queried at both levels, then edits of the first generated one.
func (sr *servedReplay) programs(lib []libModule) error {
	sort.SliceStable(lib, func(i, j int) bool { return lib[i].editable == nil && lib[j].editable != nil })
	for _, lm := range lib {
		hash, err := sr.upload(lm.name, lm.src)
		if err != nil {
			return err
		}
		_, as, err := buildBoth(lm.name, lm.src)
		if err != nil {
			return err
		}
		bs := lm.batches(as[0].Paths())[:4]
		if err := expect(bs, as, 1); err != nil {
			return err
		}
		sr.firstBatch(hash, &bs[0])
		sr.firstBatch(hash, &bs[1])
		for i := 2; i < len(bs); i++ {
			if err := sr.batch(hash, &bs[i]); err != nil {
				return err
			}
		}
		if lm.editable != nil {
			for _, ed := range lm.editable.edits[:4] {
				sr.edit(hash, ed)
			}
			return nil
		}
	}
	return fmt.Errorf("optimize has no editable program")
}
