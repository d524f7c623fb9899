package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics it must report and the bound on each end-to-end one.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// conform checks that a run reports exactly the metrics the spec
// declares for its mode, each in the declared unit.
func (s *benchSpec) conform(got map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not reported", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s reported in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
		}
	}
	return nil
}

// run is one benchmark run as a result file records it: one JSON
// object per line naming the workload and holding the run's result
// line. Other keys are ignored.
type run struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

func loadRuns(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[r.Workload] = append(out[r.Workload], r.Result)
	}
	return out, sc.Err()
}

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	workload, metric string
	base, head       float64
	// worse is the head's change as a share of the base median, signed
	// so that positive is worse.
	worse, bound float64
	pass         bool
}

// gate compares the head runs with the base runs: on every workload
// the base ran, the median of each end-to-end metric may be worse than
// the base median by at most the metric's bound, and every head run
// must be correct. It returns the per-metric verdicts and the reasons
// the gate fails, if any.
func gate(spec *benchSpec, base, head map[string][]result) ([]verdict, []string) {
	var verdicts []verdict
	var failures []string
	for _, w := range spec.Workloads {
		b, h := base[w.Name], head[w.Name]
		if len(b) == 0 {
			continue
		}
		if len(h) == 0 {
			failures = append(failures, fmt.Sprintf("%s: no head runs", w.Name))
			continue
		}
		for i, r := range h {
			if !r.Correct {
				failures = append(failures, fmt.Sprintf("%s: head run %d is not correct", w.Name, i))
			}
		}
		for _, m := range spec.EndToEnd {
			bm, hm := medianOf(b, m.Name), medianOf(h, m.Name)
			v := verdict{workload: w.Name, metric: m.Name, base: bm, head: hm, bound: m.Bound}
			if bm != 0 {
				v.worse = (hm - bm) / bm
				if m.Better == "higher" {
					v.worse = -v.worse
				}
			}
			v.pass = v.worse <= m.Bound
			if !v.pass {
				failures = append(failures, fmt.Sprintf("%s %s: median %.4g vs %.4g, %.1f%% worse, bound %.0f%%",
					w.Name, m.Name, hm, bm, 100*v.worse, 100*m.Bound))
			}
			verdicts = append(verdicts, v)
		}
	}
	return verdicts, failures
}

func medianOf(rs []result, name string) float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return median(xs)
}

// runCompare prints the gate's verdicts for two result files and
// fails when the head regresses past a bound.
func runCompare(spec *benchSpec, basePath, headPath string) error {
	base, err := loadRuns(basePath)
	if err != nil {
		return err
	}
	head, err := loadRuns(headPath)
	if err != nil {
		return err
	}
	verdicts, failures := gate(spec, base, head)
	for _, v := range verdicts {
		status := "ok"
		if !v.pass {
			status = "FAIL"
		}
		fmt.Printf("%-14s %-14s base %12.4f head %12.4f worse %+7.2f%% bound %3.0f%% %s\n",
			v.workload, v.metric, v.base, v.head, 100*v.worse, 100*v.bound, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
