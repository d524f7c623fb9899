package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustRuns(t *testing.T, path string) map[string][]result {
	t.Helper()
	runs, err := loadRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// Two identical result sets pass the gate on every metric.
func TestGateIdenticalRunsPass(t *testing.T) {
	spec := mustSpec(t)
	base := mustRuns(t, "testdata/base.jsonl")
	verdicts, failures := gate(spec, base, base)
	if len(failures) > 0 {
		t.Fatalf("identical runs failed the gate: %v", failures)
	}
	if want := len(spec.Workloads) * len(spec.EndToEnd); len(verdicts) != want {
		t.Fatalf("got %d verdicts, want one per workload and end-to-end metric (%d)", len(verdicts), want)
	}
}

// The fixture doubles query_p50_ms on shift-sim and leaves everything
// else as in the base; exactly that pairing must fail its bound.
func TestGateTwiceWorseFails(t *testing.T) {
	spec := mustSpec(t)
	base := mustRuns(t, "testdata/base.jsonl")
	head := mustRuns(t, "testdata/p50_2x.jsonl")
	verdicts, failures := gate(spec, base, head)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "shift-sim query_p50_ms:") {
		t.Fatalf("want exactly the shift-sim query_p50_ms failure, got %v", failures)
	}
	for _, v := range verdicts {
		if v.workload == "shift-sim" && v.metric == "query_p50_ms" && (v.pass || v.worse < 0.99) {
			t.Fatalf("doubled p50 judged %+v", v)
		}
	}
}

// A metric where higher is better fails when it halves.
func TestGateHigherIsBetter(t *testing.T) {
	spec := mustSpec(t)
	base := mustRuns(t, "testdata/base.jsonl")
	head := map[string][]result{}
	for w, rs := range base {
		for _, r := range rs {
			m := map[string]metric{}
			for k, v := range r.Metrics {
				m[k] = v
			}
			if w == "budget-serve" {
				m["qps"] = metric{m["qps"].Value / 2, m["qps"].Unit}
			}
			r.Metrics = m
			head[w] = append(head[w], r)
		}
	}
	_, failures := gate(spec, base, head)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "budget-serve qps:") {
		t.Fatalf("want exactly the budget-serve qps failure, got %v", failures)
	}
}

// An incorrect head run fails the gate whatever its timings.
func TestGateIncorrectRunFails(t *testing.T) {
	spec := mustSpec(t)
	base := mustRuns(t, "testdata/base.jsonl")
	head := map[string][]result{}
	for w, rs := range base {
		head[w] = append([]result(nil), rs...)
	}
	head["shift-tcp"][0].Correct = false
	if _, failures := gate(spec, base, head); len(failures) != 1 {
		t.Fatalf("want one failure for the incorrect run, got %v", failures)
	}
}

// The fixtures hold exactly the declared end-to-end metrics, so the
// self-test exercises every bound.
func TestFixturesConform(t *testing.T) {
	spec := mustSpec(t)
	for _, path := range []string{"testdata/base.jsonl", "testdata/p50_2x.jsonl"} {
		for w, rs := range mustRuns(t, path) {
			for _, r := range rs {
				if err := spec.conform(r.Metrics, false); err != nil {
					t.Errorf("%s %s: %v", path, w, err)
				}
			}
		}
	}
}

// BENCHMARK.json declares exactly the per-layer metrics the traced run
// computes, and layers.json maps every one of them to the end-to-end
// metrics and workloads it should move.
func TestSpecMatchesCode(t *testing.T) {
	spec := mustSpec(t)
	got := map[string]metric{}
	for name, unit := range layerUnits {
		got[name] = metric{Unit: unit}
	}
	if err := spec.conform(got, true); err != nil {
		t.Fatal(err)
	}
	got = endToEnd([]*stream{newStream(setupTimes{}, 1, 1, false)}, &result{Attempted: 1})
	if err := spec.conform(got, false); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers map[string]struct {
			Moves []string `json:"moves"`
			On    []string `json:"on"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &lm); err != nil {
		t.Fatal(err)
	}
	e2e, workloads := map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	var missing []string
	for _, m := range spec.PerLayer {
		entry, ok := lm.Layers[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		for _, e := range entry.Moves {
			if !e2e[e] {
				t.Errorf("layers.json: %s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range entry.On {
			if !workloads[w] {
				t.Errorf("layers.json: %s names unknown workload %q", m.Name, w)
			}
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("layers.json lacks %v", missing)
	}
	if len(lm.Layers) != len(spec.PerLayer) {
		t.Errorf("layers.json maps %d metrics, BENCHMARK.json declares %d per-layer metrics", len(lm.Layers), len(spec.PerLayer))
	}
}

func TestTailRank(t *testing.T) {
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(48 - i)
	}
	v, rank := tailOf(xs)
	if rank != 38 || v != 38 {
		t.Fatalf("tail of 1..48 = %v at rank %d, want 38 at rank 38 (10 samples beyond)", v, rank)
	}
	if v, rank := tailOf([]float64{3, 1, 2}); v != 3 || rank != 3 {
		t.Fatalf("tail of 3 samples = %v at rank %d, want the maximum", v, rank)
	}
}

func TestHDMedian(t *testing.T) {
	if got := hdMedian([]float64{7}); got != 7 {
		t.Fatalf("one sample: %v", got)
	}
	// Symmetric samples: the estimate is the centre.
	if got := hdMedian([]float64{1, 2, 3, 4, 5}); math.Abs(got-3) > 1e-9 {
		t.Fatalf("1..5: %v, want 3", got)
	}
	// Two clusters meeting at the middle: the sample median jumps by the
	// whole gap when one sample crosses it; the estimate moves a little.
	lo := make([]float64, 0, 48)
	for i := 0; i < 24; i++ {
		lo = append(lo, 100)
	}
	for i := 0; i < 24; i++ {
		lo = append(lo, 200)
	}
	hi := append([]float64(nil), lo...)
	hi[0] = 200
	if d := hdMedian(hi) - hdMedian(lo); d <= 0 || d > 15 {
		t.Fatalf("one sample crossing a 100 ms gap moved the estimate by %v ms", d)
	}
	if d := median(hi) - median(lo); d != 50 {
		t.Fatalf("sample median moved by %v, want 50 (the case the estimator exists for)", d)
	}
}
