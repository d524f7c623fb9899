package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed before the result line: mismatches, the tail
	// percentile's rank and sample count.
	notes []string
}

// measure runs one workload for a run: the oracle first (untimed),
// then fresh passes over the stream until the time budget is spent
// (always at least one). Every query of every pass must match the
// oracle. A traced run also makes one untraced pass first and requires
// every traced pass to reproduce it exactly.
func measure(w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	want, err := w.want(seed)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	fails := func(what string, bad []string) {
		if len(bad) > 0 {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("%s: %d mismatches, first: %s", what, len(bad), bad[0]))
		}
	}
	var ref *stream
	if traced {
		if ref, err = w.run(seed, false); err != nil {
			return nil, err
		}
		fails("untraced pass vs oracle", ref.check(want))
	}
	var passes []*stream
	for start := time.Now(); len(passes) == 0 || time.Since(start) < budget; {
		st, err := w.run(seed, traced)
		if err != nil {
			return nil, err
		}
		fails(fmt.Sprintf("pass %d vs oracle", len(passes)), st.check(want))
		if ref != nil {
			fails(fmt.Sprintf("traced pass %d vs untraced", len(passes)), reconcile(ref, st))
		}
		passes = append(passes, st)
	}
	for _, st := range passes {
		res.Attempted += len(st.lat)
		res.Failed += st.failed
	}
	if traced {
		res.Metrics = layerMetrics(passes, ref)
		if cov := res.Metrics["trace.coverage"].Value; cov < minCoverage {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("timed layer calls cover %.1f%% of traced wall, want >= %.0f%%", 100*cov, 100*minCoverage))
		}
	} else {
		res.Metrics = endToEnd(passes, res)
	}
	return res, nil
}

// minCoverage is the share of a traced pass's wall time (per client)
// that the timed layer calls must account for.
const minCoverage = 0.9

// endToEnd computes the user-visible metrics of untraced passes.
// Throughput and the median pool every pass's queries; the tail is
// taken per pass, so its rank does not depend on how many passes fit.
func endToEnd(passes []*stream, res *result) map[string]metric {
	var setups, sims, allocs, tails []float64
	for _, st := range passes {
		setups = append(setups, st.setup.total().Seconds())
		sims = append(sims, st.simSeconds())
		allocs = append(allocs, float64(st.allocBytes)/1e6)
		lat := st.latencies()
		tail, rank := tailOf(lat)
		tails = append(tails, tail)
		if st == passes[0] {
			res.notes = append(res.notes, fmt.Sprintf("query_tail_ms: rank %d of %d samples per pass, median of %d passes",
				rank, len(lat), len(passes)))
		}
	}
	qps, p50 := throughput(passes)
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"qps":           {qps, "queries/s"},
		"query_p50_ms":  {p50, "ms"},
		"query_tail_ms": {median(tails), "ms"},
		"sim_s":         {median(sims), "s"},
		"alloc_mb":      {median(allocs), "MB"},
		"ok_rate":       {float64(res.Attempted-res.Failed) / float64(res.Attempted), "fraction"},
	}
}

// throughput is the completed queries per second of stream wall time
// and the median query latency over a set of passes. The median is the
// Harrell–Davis estimate: on shift-tcp the latencies fall into two
// clusters that meet near the middle, and the plain sample median
// jumps between them from run to run.
func throughput(passes []*stream) (qps, p50 float64) {
	var lat []float64
	var wall float64
	for _, st := range passes {
		lat = append(lat, st.latencies()...)
		wall += st.wall.Seconds()
	}
	return float64(len(lat)) / wall, hdMedian(lat)
}

// hdMedian is the Harrell–Davis estimate of the median: a weighted sum
// of all order statistics, the i-th of n weighted by the mass a
// Beta((n+1)/2, (n+1)/2) distribution puts on ((i-1)/n, i/n].
func hdMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a := float64(n+1) / 2
	est, prev := 0.0, 0.0
	for i, x := range s {
		cur := regIncBeta(float64(i+1)/float64(n), a, a)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by its continued fraction (Numerical Recipes, betai/betacf).
func regIncBeta(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// tailOf returns the highest percentile of xs that has at least ten
// samples beyond it, and its 1-based rank (the maximum for fewer than
// eleven samples).
func tailOf(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], i + 1
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
