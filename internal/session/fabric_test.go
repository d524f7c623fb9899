package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/tpch"
)

// fabricOutcome is what one query of TestSessionFabricsOneLoop reports.
type fabricOutcome struct {
	rows     int
	sum      uint64
	adapt    optimizer.StepReport
	counters cluster.Counters
}

// TestSessionFabricsOneLoop drives the one session loop over both
// fabrics — simulated and in-process TCP — in each delivery mode:
// Execute, Stream, and StreamContext cancelled by its sink after the
// first batch. Every cell replays the same partkey-shift stream on a
// fresh session (and, over TCP, a fresh cluster): warm-up queries, the
// query under test, then one more query. Row counts, checksums and
// adaptation reports must agree across all cells; the cancelled query
// must surface context.Canceled; and the query after it must meter
// exactly what it meters after an uncancelled twin, so nothing of the
// cancelled query leaks into the next one's counters.
func TestSessionFabricsOneLoop(t *testing.T) {
	const nodes, seed = 2, 11
	params := datasets.TPCHParams{SF: 0.01, RowsPerBlock: 128, Nodes: nodes, Seed: seed}
	datasets.Register()
	model := cluster.Default()
	model.Nodes = nodes
	optCfg := optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: 4, Seed: seed}
	schedule := []tpch.Template{tpch.Q8, tpch.Q14, tpch.Q8, tpch.Q14, tpch.Q8}
	const underTest = 3

	modes := []string{"execute", "stream", "cancel"}
	run := func(t *testing.T, tcp bool, mode string) []fabricOutcome {
		store, data, tables, err := datasets.BuildTPCH(params)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Model: model, Optimizer: optCfg, Distributed: true}
		if tcp {
			cl, err := adbnet.Start(adbnet.Options{
				Workers:   nodes,
				Fragments: nodes,
				Dataset:   datasets.TPCHName,
				Params:    params,
				Exec: adbnet.ExecConfig{
					Model:     model,
					Optimizer: adbnet.OptimizerConfig{Mode: int(optCfg.Mode), WindowSize: optCfg.WindowSize, Seed: optCfg.Seed},
				},
				InProcess: true,
				KeepAlive: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("start cluster: %v", err)
			}
			defer cl.Close()
			cfg.Net = cl
		}
		s := New(store, cfg)
		rng := rand.New(rand.NewSource(seed))
		var out []fabricOutcome
		for qi, tpl := range schedule {
			q, err := FromSpec(tables.Catalog(), tpch.NewInstance(tpl, data, rng).Spec())
			if err != nil {
				t.Fatal(err)
			}
			var d exec.Digest
			var res *Result
			switch {
			case qi != underTest || mode == "execute":
				res, err = s.Execute(q)
				if err == nil {
					d.AddRows(res.Rows)
				}
			case mode == "stream":
				res, err = s.Stream(q, d.Add)
			default:
				ctx, cancel := context.WithCancel(context.Background())
				res, err = s.StreamContext(ctx, q, func(b *exec.Batch) error {
					cancel()
					return d.Add(b)
				})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("q%d (%s): cancelled mid-stream, error = %v, want context.Canceled", qi, tpl, err)
				}
				err = nil
			}
			if err != nil {
				t.Fatalf("q%d (%s): %v", qi, tpl, err)
			}
			out = append(out, fabricOutcome{res.RowCount, d.Sum, res.Adapt, res.Counters})
		}
		return out
	}

	got := map[string][]fabricOutcome{}
	for _, tcp := range []bool{false, true} {
		for _, mode := range modes {
			name := fmt.Sprintf("tcp=%v/%s", tcp, mode)
			t.Run(name, func(t *testing.T) { got[name] = run(t, tcp, mode) })
		}
	}
	if t.Failed() {
		return
	}

	ref := got["tcp=false/execute"]
	if ref[underTest].rows == 0 {
		t.Fatal("query under test returned no rows — the comparison is vacuous")
	}
	adapted := false
	for name, out := range got {
		for qi, o := range out {
			adapted = adapted || o.adapt.Adapted()
			if o.adapt != ref[qi].adapt {
				t.Errorf("%s q%d: adapt %+v, want %+v", name, qi, o.adapt, ref[qi].adapt)
			}
			if qi == underTest && strings.HasSuffix(name, "cancel") {
				continue // delivery stopped early by design
			}
			if o.rows != ref[qi].rows || o.sum != ref[qi].sum {
				t.Errorf("%s q%d: %d rows / %016x, want %d rows / %016x", name, qi, o.rows, o.sum, ref[qi].rows, ref[qi].sum)
			}
		}
	}
	if !adapted {
		t.Error("no query adapted — the adaptation comparison is vacuous")
	}
	for _, fabric := range []string{"tcp=false", "tcp=true"} {
		after, twin := got[fabric+"/cancel"][underTest+1], got[fabric+"/stream"][underTest+1]
		if after.counters != twin.counters {
			t.Errorf("%s: counters after the cancelled query %+v, after its uncancelled twin %+v", fabric, after.counters, twin.counters)
		}
	}
}
