// Command perfbench is AdaptDB's canonical benchmark. It runs one of
// three closed-loop workloads over TPC-H SF 0.05 on 4 fragments, checks
// every query result against an oracle, and prints the workload's
// end-to-end metrics (or, with --trace 1, its per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload shift-sim --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn. --compare BASE HEAD gates
// two sets of results against the bounds in BENCHMARK.json. The
// workloads, metrics and layer map are described in perfbench/README.md
// and perfbench/layers.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptdb/internal/net/datasets"
)

// workload is one named closed-loop workload. run performs one fresh
// set-up plus one full pass over the query stream; want computes the
// oracle's per-query checksums for one client's stream.
type workload struct {
	name string
	run  func(seed int64, traced bool) (*stream, error)
	want func(seed int64) ([]uint64, error)
}

// maxProcs caps the benchmark's parallelism: at most two clients or
// workers, and never more than the machine's CPUs.
const maxProcs = 2

func main() {
	datasets.Register() // in-process TCP workers build their replicas from the registry
	var (
		name    = flag.String("workload", "", "shift-sim, shift-tcp, budget-serve, or all")
		seed    = flag.Int64("seed", 1, "workload seed: query parameters and adaptation randomness, and on the shift workloads the data and upfront layout")
		seconds = flag.Int("seconds", 20, "how long to keep replaying the stream (whole passes, at least one)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run reporting per-layer metrics")
		compare = flag.Bool("compare", false, "gate two result files: perfbench --compare BASE HEAD")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("--compare takes two result files"))
		}
		if err := runCompare(spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	// Spill files stay inside the checkout, next to the build output.
	spill, err := filepath.Abs(filepath.Join(".bench_build", "spill"))
	if err == nil {
		err = os.MkdirAll(spill, 0o755)
	}
	if err == nil {
		spill, err = os.MkdirTemp(spill, "run-*")
	}
	if err != nil {
		fail(fmt.Errorf("spill dir: %w", err))
	}
	defer os.RemoveAll(spill)
	all := workloads(spill)

	var todo []workload
	for _, w := range all {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	// With one workload the result line is that workload's; with all of
	// them, metric names are prefixed by the workload.
	combined := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err == nil {
			err = spec.conform(res.Metrics, *trace == 1)
		}
		if err != nil {
			os.RemoveAll(spill)
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			fmt.Printf("%-14s %-28s %14.4f %s\n", w.name, k, m.Value, m.Unit)
			combined.Metrics[w.name+"."+k] = m
		}
		for _, note := range res.notes {
			fmt.Printf("%-14s %s\n", w.name, note)
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		if len(todo) == 1 {
			combined = res
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !combined.Correct {
		os.RemoveAll(spill)
		os.Exit(1)
	}
}

func workloads(spill string) []workload {
	return []workload{
		{
			name: "shift-sim",
			run:  func(seed int64, traced bool) (*stream, error) { return runShift(seed, false, traced) },
			want: func(seed int64) ([]uint64, error) { return oracle(seed, seed, shiftSpecs) },
		},
		{
			name: "shift-tcp",
			run:  func(seed int64, traced bool) (*stream, error) { return runShift(seed, true, traced) },
			want: func(seed int64) ([]uint64, error) { return oracle(seed, seed, shiftSpecs) },
		},
		{
			name: "budget-serve",
			run:  func(seed int64, traced bool) (*stream, error) { return runServe(seed, spill, traced) },
			want: func(seed int64) ([]uint64, error) { return oracle(serveDataSeed, seed, serveSpecs) },
		},
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
