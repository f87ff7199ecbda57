package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"tbaa"
	"tbaa/internal/randprog"
)

var fakePaths = []string{"p0.i0", "p1.r0", "p1.r0.i0", "ga0[0]", "gi0", "p2.f3x1"}

func batchBodies(seed int64) [][]byte {
	var out [][]byte
	for _, bt := range queryBatches(seed, fakePaths, 0) {
		out = append(out, bt.body)
	}
	return out
}

func editSources(t *testing.T, seed int64) []string {
	t.Helper()
	src := randprog.GenerateScale(seed, randprog.ScaleConfigForLines(churnLines))
	m, err := newEditable(src, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range m.edits[:64] {
		out = append(out, e.src)
	}
	return out
}

func programSources(t *testing.T, seed int64) []string {
	t.Helper()
	ps, err := optPrograms(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range ps {
		out = append(out, p.src)
	}
	return out
}

// TestSeedDeterminism: one seed gives byte-identical requests, edits,
// churn streams and programs; another seed gives different ones.
func TestSeedDeterminism(t *testing.T) {
	churn := func(seed int64) []churnOp { ops, _ := churnStream(seed); return ops }
	for _, c := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"batches", func(s int64) any { return batchBodies(s) }},
		{"edits", func(s int64) any { return editSources(t, s) }},
		{"churn", func(s int64) any { return churn(s) }},
		{"programs", func(s int64) any { return programSources(t, s) }},
	} {
		a, b, other := c.gen(1), c.gen(1), c.gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", c.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", c.name)
		}
	}
}

func TestSummarize(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[n-1-i] = time.Duration(i+1) * time.Millisecond // reversed
		}
		return s
	}
	d := summarize(mk(100))
	if d.N != 100 || d.P50 != 50 || d.P90 != 90 || d.Beyond90 != minBeyond {
		t.Errorf("100 samples: %+v", d)
	}
	if d := summarize(mk(99)); d.Beyond90 != minBeyond-1 {
		t.Errorf("99 samples: p90 has %d beyond it, want %d", d.Beyond90, minBeyond-1)
	}
	if d := summarize(mk(1000)); d.P90 != 900 || d.Beyond90 != 100 {
		t.Errorf("1000 samples: %+v", d)
	}
	if got := needSamples(); summarize(mk(got)).Beyond90 < minBeyond || summarize(mk(got-1)).Beyond90 >= minBeyond {
		t.Errorf("needSamples()=%d is not the smallest count with a valid tail", got)
	}
	if d := summarize(nil); d.N != 0 {
		t.Errorf("no samples: %+v", d)
	}

	// A reported p90 needs minBeyond samples beyond it; one with fewer
	// is a failed check.
	r := newReport()
	r.setDist("primary", summarize(mk(needSamples())))
	if r.attempted != 1 || r.failed != 0 || r.samples["primary_p90_ms"] != minBeyond {
		t.Errorf("full tail: attempted %d, failed %d, beyond %d", r.attempted, r.failed, r.samples["primary_p90_ms"])
	}
	r.setDist("secondary", summarize(mk(needSamples()-1)))
	if r.attempted != 2 || r.failed != 1 {
		t.Errorf("short tail: attempted %d, failed %d, want 2 and 1", r.attempted, r.failed)
	}
}

// TestMoreSetups: set-up is timed at least setupRepeats times, more
// often while the timings cover less than setupSpan, and at most
// setupMaxRepeats times.
func TestMoreSetups(t *testing.T) {
	times := func(n int, each float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = each
		}
		return out
	}
	long := setupSpan.Seconds()
	for _, c := range []struct {
		times []float64
		want  bool
	}{
		{nil, true},
		{times(setupRepeats-1, long), true},
		{times(setupRepeats, long), false},
		{times(setupRepeats, 0.01), true},
		{times(setupMaxRepeats, 0.01), false},
	} {
		if got := moreSetups(c.times); got != c.want {
			t.Errorf("moreSetups(%v) = %v, want %v", c.times, got, c.want)
		}
	}
	r := newReport()
	r.setSetup([]float64{0.3, 0.1, 0.2})
	if r.values["setup_s"] != 0.2 || r.info["setup_s_min"] != 0.1 || r.info["setup_s_max"] != 0.3 {
		t.Errorf("setSetup: %v, range %v–%v", r.values["setup_s"], r.info["setup_s_min"], r.info["setup_s_max"])
	}
}

// TestMetricNames: every metric name is well formed, unique and has a
// unit, and BENCHMARK.json lists exactly these metrics.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd")
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(spec.Work), len(workloads))
	}
}

// TestReportFinish: a run reports every metric of its table with its
// unit, and refuses to report with one missing.
func TestReportFinish(t *testing.T) {
	r := newReport()
	r.op(true, "")
	for _, d := range endToEnd {
		r.set(d.Name, 1.5)
	}
	res, err := r.finish(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Unit != d.Unit || m.Value != 1.5 {
			t.Errorf("%s: %+v", d.Name, m)
		}
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 4 {
		t.Errorf("result line %q: %v", buf.String(), err)
	}
	delete(r.values, "setup_s")
	if _, err := r.finish(endToEnd); err == nil {
		t.Error("finish accepted a run without setup_s")
	}
}

// TestChurnStream: every warm upload re-uploads a module evicted by the
// LRU model, every cold one is new, and the eviction count is right.
func TestChurnStream(t *testing.T) {
	ops, evictions := churnStream(3)
	type key struct{ b, v int }
	// Every upload in order: the set-up modules, then the stream.
	var all []key
	for b := 0; b < churnSetupModules; b++ {
		all = append(all, key{b, 0})
	}
	for _, op := range ops {
		all = append(all, key{op.base, op.variant})
	}
	last := map[key]int{} // index into all of the module's last upload
	for b := 0; b < churnSetupModules; b++ {
		last[all[b]] = b
	}
	cold, warm := 0, 0
	for i, op := range ops {
		n := churnSetupModules + i
		k := all[n]
		prev, seen := last[k]
		if op.warm != seen {
			t.Fatalf("op %d: warm=%v but uploaded before=%v", i, op.warm, seen)
		}
		if seen {
			distinct := map[key]bool{}
			for _, other := range all[prev+1 : n] {
				distinct[other] = true
			}
			if len(distinct) < churnCap {
				t.Fatalf("op %d re-uploads %v after only %d other modules: still resident", i, k, len(distinct))
			}
			warm++
		} else {
			cold++
		}
		last[k] = n
		if want := max(0, n+1-churnCap); evictions[i] != want {
			t.Fatalf("op %d: %d evictions, want %d", i, evictions[i], want)
		}
	}
	if warm < len(ops)/3 || cold < len(ops)/3 {
		t.Errorf("stream is %d cold and %d warm, want both near half", cold, warm)
	}
}

// TestEditsCompile: an edited module — each edit a worker's body under
// another worker's name — still compiles, and its procedures accept the
// edits the daemon would apply.
func TestEditsCompile(t *testing.T) {
	src := randprog.GenerateScale(5, randprog.ScaleConfigForLines(churnLines))
	m, err := newEditable(src, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.afterEdits(nil) != src {
		t.Fatal("applying no edits changed the source")
	}
	mod, err := tbaa.Compile("m.m3", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.edits[:8] {
		if _, err := mod.EditProc(e.src); err != nil {
			t.Fatalf("edit W%d from W%d: %v", e.target, e.from, err)
		}
	}
	edited := m.afterEdits(m.edits[:8])
	if edited == src {
		t.Fatal("edits left the source unchanged")
	}
	if _, err := tbaa.Compile("m.m3", edited); err != nil {
		t.Fatalf("edited source: %v", err)
	}
	v := churnVariant(src, 7)
	if v == src || tbaa.ModuleHash(v) == tbaa.ModuleHash(src) {
		t.Fatal("a churn variant must be a distinct module")
	}
	if _, err := tbaa.Compile("v.m3", v); err != nil {
		t.Fatalf("churn variant: %v", err)
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x\ntbaad_evictions_total 3\ntbaad_shed_total{reason=\"memory\"} 0\nbad line\n"))
	if m["tbaad_evictions_total"] != 3 || len(m) != 2 {
		t.Errorf("parsed %v", m)
	}
}

// TestSelfTimes: a span's self time excludes its children's.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.begin("outer")
	time.Sleep(2 * time.Millisecond)
	tr.do("inner", func() { time.Sleep(5 * time.Millisecond) })
	tr.do("inner", func() { time.Sleep(5 * time.Millisecond) })
	tr.end()
	self := tr.selfTimes()
	if self["inner"].Calls != 2 || self["outer"].Calls != 1 {
		t.Fatalf("calls: %+v", self)
	}
	total := time.Duration(tr.spans[0].End - tr.spans[0].Start)
	if got := self["outer"].Self + self["inner"].Self; got != total {
		t.Errorf("self times sum to %v, outer span lasted %v", got, total)
	}
	if self["outer"].Self >= self["inner"].Self {
		t.Errorf("outer self %v should be below inner %v", self["outer"].Self, self["inner"].Self)
	}
	if tr.spans[1].Parent != tr.spans[0].ID {
		t.Errorf("inner span's parent is %d, want %d", tr.spans[1].Parent, tr.spans[0].ID)
	}
}
