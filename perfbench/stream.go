package main

import (
	"fmt"
	"runtime"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
)

// stream is what one measured pass over a workload's query stream
// produced: its set-up, its wall time, and per query the client-side
// latency, result checksum, metered I/O and adaptation report. Queries
// are indexed client-major (client c's query i sits at c*n+i).
type stream struct {
	setup      setupTimes
	clients    int
	wall       time.Duration
	allocBytes uint64
	lat        []time.Duration
	sums       []uint64
	counters   []cluster.Counters
	adapt      []optimizer.StepReport
	done       []bool
	// failed counts queries refused by admission (shed or queue full).
	failed int
	// layers holds the per-layer sums of a traced pass, nil untraced.
	layers layers
}

func newStream(st setupTimes, queries, clients int, traced bool) *stream {
	n := queries * clients
	s := &stream{
		setup:    st,
		clients:  clients,
		lat:      make([]time.Duration, n),
		sums:     make([]uint64, n),
		counters: make([]cluster.Counters, n),
		adapt:    make([]optimizer.StepReport, n),
		done:     make([]bool, n),
	}
	if traced {
		s.layers = layers{}
	}
	return s
}

// mark is the start of a timed stream: wall clock and heap bytes
// allocated so far.
type mark struct {
	at    time.Time
	alloc uint64
}

func (s *stream) begin() mark {
	runtime.GC() // start from the set-up's live heap, not the last pass's garbage
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mark{at: time.Now(), alloc: m.TotalAlloc}
}

func (s *stream) end(b mark) {
	s.wall = time.Since(b.at)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.allocBytes = m.TotalAlloc - b.alloc
}

func (s *stream) record(i int, lat time.Duration, sum uint64, c cluster.Counters, adapt optimizer.StepReport) {
	s.lat[i], s.sums[i], s.counters[i], s.adapt[i], s.done[i] = lat, sum, c, adapt, true
}

// latencies returns the latencies of the queries that completed
// (admission may refuse some), in milliseconds.
func (s *stream) latencies() []float64 {
	var out []float64
	for i, d := range s.lat {
		if s.done[i] {
			out = append(out, ms(d))
		}
	}
	return out
}

func (s *stream) simSeconds() float64 {
	total := 0.0
	for _, c := range s.counters {
		total += c.SimSeconds(model())
	}
	return total
}

// check compares every query's checksum with the oracle's. Clients
// replay identical streams, so want covers one client.
func (s *stream) check(want []uint64) []string {
	var bad []string
	for i, got := range s.sums {
		if w := want[i%len(want)]; s.done[i] && got != w {
			bad = append(bad, fmt.Sprintf("query %d: checksum %016x, oracle %016x", i, got, w))
		}
	}
	return bad
}

// reconcile checks that a traced pass reproduced an untraced pass of
// the same seed exactly: per query checksum, sim seconds and moved
// rows. A query that spilled is the one exception: which hash-join
// partitions a memory budget demotes depends on the order rows arrive
// from the exchanges, so two untraced passes already differ in spill
// volume. Its sim seconds must match exactly with the spill term left
// out.
func reconcile(untraced, traced *stream) []string {
	var bad []string
	for i := range untraced.sums {
		u, t := untraced.counters[i], traced.counters[i]
		if spilled(u) || spilled(t) {
			u, t = withoutSpill(u), withoutSpill(t)
		}
		us, ts := u.SimSeconds(model()), t.SimSeconds(model())
		if untraced.sums[i] != traced.sums[i] || us != ts ||
			untraced.adapt[i].MovedRows != traced.adapt[i].MovedRows {
			bad = append(bad, fmt.Sprintf("query %d: traced (%016x, %v sim-s, %d moved) != untraced (%016x, %v sim-s, %d moved)",
				i, traced.sums[i], ts, traced.adapt[i].MovedRows,
				untraced.sums[i], us, untraced.adapt[i].MovedRows))
		}
	}
	return bad
}

func spilled(c cluster.Counters) bool { return c.SpillRows > 0 || c.SpillSkippedRows > 0 }

func withoutSpill(c cluster.Counters) cluster.Counters {
	c.SpillRows, c.SpillBytes, c.SpillSkippedRows = 0, 0, 0
	return c
}

// layers accumulates one traced stream's per-layer sums: times of the
// timed calls in milliseconds, and counts. Nil when untraced.
type layers map[string]float64

func (l layers) add(name string, v float64) { l[name] += v }

// timed lists the layer metrics that are timed calls; together with
// session.other_ms they cover the stream's wall time.
var timed = []string{
	"query.bind_ms", "optimizer.adapt_ms", "planner.compile_ms", "exec.drain_ms",
	"net.dispatch_ms", "net.finish_ms", "serve.queue_ms", "serve.run_ms",
}

func (l layers) addReport(r *planner.Report) {
	if r == nil {
		return
	}
	for _, j := range r.Joins {
		l.add("planner.joins."+j.Strategy, 1)
	}
}

func (l layers) addCounters(c cluster.Counters) {
	l.add("exec.scan_rows", c.ScanLocal+c.ScanRemote)
	l.add("exec.exch_remote_rows", c.ExchRemoteRows)
	l.add("exec.exch_mb", c.ExchBytes/1e6)
	l.add("exec.spill_mb", c.SpillBytes/1e6)
	l.add("exec.spill_rows", c.SpillRows)
	l.add("exec.spill_skipped_rows", c.SpillSkippedRows)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
