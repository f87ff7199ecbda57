// Command perfbench is the repository benchmark. It drives the system
// only through its public entry points — the tbaad daemon, started as a
// child process and loaded over HTTP with the internal/server wire
// types, and the tbaa library API — on four seeded workloads, checks
// every answer, and prints one JSON result line last.
//
// Usage (from the repository root; perfbench/run.sh builds the daemon
// and this command from the tree first):
//
//	perfbench --workload serve-query --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same
// inputs in process with spans around each layer and reports the
// per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads lists the runnable workloads by name.
var workloads = map[string]func(context.Context, env, *report) error{
	"serve-query": runServeQuery,
	"serve-edit":  runServeEdit,
	"serve-churn": runServeChurn,
	"optimize": func(_ context.Context, e env, r *report) error {
		return runOptimize(e, r)
	},
}

// The default seed, and a held-out seed to re-check a gain on inputs
// its author never tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func main() {
	workload := flag.String("workload", "", "workload: serve-query, serve-edit, serve-churn or optimize")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	bin := flag.String("tbaad", "", "tbaad binary built from the tree under test")
	work := flag.String("work", ".bench_build", "scratch directory inside the checkout")
	probe := flag.Bool("rss-probe", false, "internal: run one optimize pass and print the peak RSS in MB")
	flag.Parse()

	if *probe {
		if err := rssProbe(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*workload, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, bin, work string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if bin == "" && trace == 0 && workload != "optimize" {
		return fmt.Errorf("--tbaad is required")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if bin != "" {
		if bin, err = filepath.Abs(bin); err != nil {
			return err
		}
	}
	e := env{workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second, bin: bin, work: dir}

	r := newReport()
	defs := endToEnd
	steal0, stealErr := cpuSteal()
	if trace == 1 {
		defs = perLayer
		err = runTrace(e, r, filepath.Join(work, "trace"))
	} else {
		err = fn(context.Background(), e, r)
	}
	if steal1, err1 := cpuSteal(); stealErr == nil && err1 == nil {
		// On a shared virtual machine, CPU time taken by other guests
		// explains most of the spread between runs; show it beside them.
		r.info["machine_steal_pct"] = steal1.since(steal0)
	}
	if err != nil {
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "perfbench: failure:", p)
		}
		return fmt.Errorf("%s: %w", workload, err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", p)
	}
	res, err := r.finish(defs)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	r.writeTable(os.Stdout, workload, defs)
	return writeResult(os.Stdout, res)
}
