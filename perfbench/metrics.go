package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's vocabulary: BENCHMARK.json lists exactly
// these names and units (perfbench_test.go holds the two in step).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run (--trace 0) reports on every
// workload. Each workload maps its own operations onto the primary and
// secondary slots; README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"resident_mb", "MB"},
	{"primary_p50_ms", "ms"},
	{"primary_p90_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"secondary_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is what a traced run (--trace 1) reports on every workload.
// Times are self time per call; counts are totals over one replay of
// the workload's inputs and repeat exactly for a given seed.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms"},
	{"sema.check_ms", "ms"},
	{"lower.lower_ms", "ms"},
	{"lower.instrs", "count"},
	{"ir.intern_ms", "ms"},
	{"ir.aps", "count"},
	{"ir.extend_ms", "ms"},
	{"alias.build_ms", "ms"},
	{"alias.classes", "count"},
	{"alias.flow_ms", "ms"},
	{"alias.batch_ns_per_pair", "ns"},
	{"modref.rta_ms", "ms"},
	{"modref.update_ms", "ms"},
	{"tbaa.build_ms", "ms"},
	{"tbaa.alloc_mb_per_build", "MB"},
	{"tbaa.edit_check_ms", "ms"},
	{"tbaa.apply_edit_ms", "ms"},
	{"tbaa.alloc_mb_per_edit", "MB"},
	{"tbaa.warm_start_ms", "ms"},
	{"artifact.load_ms", "ms"},
	{"artifact.write_ms", "ms"},
	{"artifact.bytes", "bytes"},
	{"artifact.hit_ratio", "ratio"},
	{"opt.devirt_ms", "ms"},
	{"opt.inline_ms", "ms"},
	{"opt.rle_ms", "ms"},
	{"opt.pre_ms", "ms"},
	{"opt.loads_eliminated", "count"},
	{"opt.loads_hoisted", "count"},
	{"opt.devirtualized", "count"},
	{"interp.instructions", "count"},
	{"interp.heap_loads", "count"},
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.response_bytes_per_pair", "bytes"},
	{"server.batch_handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.edit_handler_ms", "ms"},
	{"server.upload_handler_ms", "ms"},
	{"server.evictions", "count"},
	{"server.shed", "count"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's values, sample counts and failures.
type report struct {
	values    map[string]float64
	samples   map[string]int     // sample count behind a timing, for the table
	info      map[string]float64 // further figures for the table only
	attempted int64
	failed    int64
	problems  []string // first few failure descriptions, for stderr
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, info: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setSetup records setup_s as the median of the run's set-up times, and
// their range for the table.
func (r *report) setSetup(times []float64) {
	r.set("setup_s", median(times))
	r.samples["setup_s"] = len(times)
	lo, hi := times[0], times[0]
	for _, t := range times {
		lo, hi = min(lo, t), max(hi, t)
	}
	r.info["setup_s_min"], r.info["setup_s_max"] = lo, hi
}

// setDist records a distribution's median and p90 under the given
// prefix ("primary" → primary_p50_ms, primary_p90_ms). A p90 with fewer
// than minBeyond samples beyond it — a timed phase that hit its
// maxStretch limit first — counts as a failed check, so an
// under-sampled tail never passes as a measurement.
func (r *report) setDist(prefix string, d dist) {
	r.op(d.Beyond90 >= minBeyond, "%s_p90_ms has %d samples beyond it, need %d", prefix, d.Beyond90, minBeyond)
	r.set(prefix+"_p50_ms", d.P50)
	r.set(prefix+"_p90_ms", d.P90)
	r.samples[prefix+"_p50_ms"] = d.N
	r.samples[prefix+"_p90_ms"] = d.Beyond90
}

// op counts one attempted operation; ok=false counts it failed.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure that is not tied to a fresh attempt (a check
// on an operation already counted).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// finish checks that every metric of defs is present and builds the
// result line.
func (r *report) finish(defs []metricDef) (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// writeTable prints every metric with its unit and, for timings, the
// sample count behind it (for a p90, the samples beyond it).
func (r *report) writeTable(w io.Writer, workload string, defs []metricDef) {
	fmt.Fprintf(w, "# %s: attempted %d, failed %d\n", workload, r.attempted, r.failed)
	for _, d := range defs {
		line := fmt.Sprintf("%-32s %14.4f %s", d.Name, r.values[d.Name], d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			line += fmt.Sprintf("  (%s %d)", r.sampleLabel(d.Name), n)
		}
		fmt.Fprintln(w, line)
	}
	extra := make([]string, 0, len(r.info))
	for k := range r.info {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "%-32s %14.4f (table only)\n", k, r.info[k])
	}
}

// sampleLabel says what a timing's sample count counts: all samples
// for a median, the samples beyond it for a p90.
func (r *report) sampleLabel(name string) string {
	if strings.HasSuffix(name, "_p90_ms") {
		return "beyond"
	}
	return "samples"
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
