package main

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tbaa"
)

// pipeline is the pass list of the optimize workload, in the order the
// paper's client runs it.
func pipeline() tbaa.Option {
	return tbaa.WithPasses(tbaa.Devirt(), tbaa.MinvInline(), tbaa.RLE(), tbaa.PRE())
}

// optimizeOnce compiles p and builds it at level lv with the pipeline.
func optimizeOnce(p program, lv tbaa.Level) (*tbaa.Analyzer, error) {
	mod, err := tbaa.Compile(p.name, p.src)
	if err != nil {
		return nil, err
	}
	return mod.NewAnalyzer(tbaa.WithLevel(lv), pipeline())
}

// optOutcome is what one (program, level) build must reproduce on
// every pass: its pass results and its optimized program's run.
type optOutcome struct {
	passes    []tbaa.PassResult
	out       string
	heapLoads uint64
}

// runOptimized executes a's optimized program and compares its output
// with the unoptimized TypeDecl reference.
func runOptimized(a *tbaa.Analyzer, p program, ref string) (string, uint64, error) {
	out, st, err := a.Run()
	if err != nil {
		return "", 0, fmt.Errorf("%s at %s: run: %w", p.name, a.Level(), err)
	}
	if out != ref {
		return "", 0, fmt.Errorf("%s at %s: optimized output differs from the TypeDecl run", p.name, a.Level())
	}
	return out, st.HeapLoads, nil
}

// runOptimize: the in-process library client. Each pass compiles every
// program of the set and runs Devirt, MinvInline, RLE and PRE at both
// levels; every optimized program's output is checked against its
// unoptimized TypeDecl run.
func runOptimize(e env, r *report) error {
	progs, err := optPrograms(e.seed)
	if err != nil {
		return err
	}
	// References: the unoptimized TypeDecl run of every program, made
	// before any clock starts.
	refs := make([]string, len(progs))
	for i, p := range progs {
		a, err := tbaa.New(p.name, p.src, tbaa.WithLevel(tbaa.TypeDecl))
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		if refs[i], _, err = a.Run(); err != nil {
			return fmt.Errorf("%s: reference run: %w", p.name, err)
		}
	}

	// Set-up: the frontend over the whole set, timed as often as
	// moreSetups asks, each time from a collected heap.
	var setups []float64
	for len(setups) == 0 || moreSetups(setups) {
		runtime.GC()
		start := time.Now()
		for _, p := range progs {
			if _, err := tbaa.Compile(p.name, p.src); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.setSetup(setups)

	// Warm-up pass: build, run and check everything once; what it
	// produced is what every timed pass must reproduce.
	want := make([][2]optOutcome, len(progs))
	var heapLoads uint64
	for i, p := range progs {
		for lv, level := range levels {
			a, err := optimizeOnce(p, level)
			if err == nil {
				var o optOutcome
				o.passes = a.PassResults()
				o.out, o.heapLoads, err = runOptimized(a, p, refs[i])
				want[i][lv] = o
				heapLoads += o.heapLoads
			}
			r.op(err == nil, "warm-up: %v", err)
		}
	}
	r.info["heap_loads_left"] = float64(heapLoads)

	// Timed passes: two workers, one per core, take the pass's (program,
	// level) builds in order. Outside the clock each build's pass results
	// are compared with the warm-up's; after each pass one seeded
	// (program, level) is run and checked again.
	type item struct{ prog, lv int }
	var items []item
	for i := range progs {
		for lv := range levels {
			items = append(items, item{i, lv})
		}
	}
	rng := rngFor(e.seed, "optcheck")
	need := needSamples()
	var lat [2][]time.Duration
	var lines int
	var wall time.Duration
	var mu sync.Mutex
	p := newPhase(e.seconds, func() bool { return len(lat[0]) >= need && len(lat[1]) >= need })
	for !p.over() {
		check := items[rng.Intn(len(items))]
		var checkA *tbaa.Analyzer
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(items) {
						return
					}
					it := items[k]
					pr, level := progs[it.prog], levels[it.lv]
					t0 := time.Now()
					a, err := optimizeOnce(pr, level)
					dur := time.Since(t0)
					if err == nil && !reflect.DeepEqual(a.PassResults(), want[it.prog][it.lv].passes) {
						err = fmt.Errorf("%s at %s: pass results differ from the warm-up pass", pr.name, level)
					}
					mu.Lock()
					r.op(err == nil, "optimize: %v", err)
					if err == nil {
						lat[it.lv] = append(lat[it.lv], dur)
						lines += pr.lines
						if it == check {
							checkA = a
						}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		if checkA != nil {
			pr, w := progs[check.prog], want[check.prog][check.lv]
			_, hl, err := runOptimized(checkA, pr, refs[check.prog])
			if err == nil && hl != w.heapLoads {
				err = fmt.Errorf("%s at %s: %d heap loads, warm-up ran %d", pr.name, levels[check.lv], hl, w.heapLoads)
			}
			r.op(err == nil, "optimize check: %v", err)
		}
	}
	r.setDist("primary", summarize(lat[0]))
	r.setDist("secondary", summarize(lat[1]))
	r.set("throughput_per_s", float64(lines)/wall.Seconds())
	rss, err := probeRSS(e)
	if err != nil {
		return err
	}
	r.set("resident_mb", rss)
	return nil
}

// probeRSS runs one pass over the program set in a child process that
// does nothing else, and returns that process's peak RSS in MB: the
// memory the library needs for the pass, without the benchmark's
// references and checks.
func probeRSS(e env) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "--rss-probe", "--workload", e.workload, "--seed", strconv.FormatInt(e.seed, 10)).Output()
	if err != nil {
		return 0, fmt.Errorf("rss probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// rssProbe is the child side of probeRSS.
func rssProbe(seed int64) error {
	progs, err := optPrograms(seed)
	if err != nil {
		return err
	}
	for _, p := range progs {
		for _, level := range levels {
			if _, err := optimizeOnce(p, level); err != nil {
				return err
			}
		}
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	fmt.Println(rss)
	return nil
}
