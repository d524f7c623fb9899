package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"adaptdb/internal/exec"
	adbnet "adaptdb/internal/net"
	"adaptdb/internal/net/datasets"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
	"adaptdb/internal/tuple"
)

// tcpWorkers is how many in-process TCP workers shift-tcp starts; the
// 4 fragments are spread over them.
const tcpWorkers = 2

// runShift sets up a fresh copy of the data (and, over TCP, a fresh
// cluster whose workers build their own replicas), then replays the
// shift stream through one adaptive session. Untraced, each query is
// one session.Stream call; traced, the benchmark drives the same
// public calls session.Stream makes and times each one.
func runShift(seed int64, tcp, traced bool) (*stream, error) {
	ds, st, err := setup(seed, fragments)
	if err != nil {
		return nil, err
	}
	optCfg := optimizer.Config{Mode: optimizer.ModeAdaptive, WindowSize: windowSize, Seed: seed}
	cfg := session.Config{Model: model(), Optimizer: optCfg, Distributed: true}
	if tcp {
		start := time.Now()
		cl, err := adbnet.Start(adbnet.Options{
			Workers:   tcpWorkers,
			Fragments: fragments,
			Dataset:   datasets.TPCHName,
			Params:    datasets.TPCHParams{SF: scaleFactor, RowsPerBlock: rowsPerBlock, Nodes: fragments, Seed: seed},
			Exec: adbnet.ExecConfig{
				Model:     cfg.Model,
				Optimizer: adbnet.OptimizerConfig{Mode: int(optCfg.Mode), WindowSize: optCfg.WindowSize, Seed: optCfg.Seed},
			},
			InProcess:    true,
			SetupTimeout: 2 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		defer cl.Close()
		st.start = time.Since(start)
		cfg.Net = cl
	}
	s := session.New(ds.store, cfg)
	specs := shiftSpecs(ds.data, seed)
	out := newStream(st, len(specs), 1, traced)
	cat := ds.tables.Catalog()

	begin := out.begin()
	for i, spec := range specs {
		var err error
		if traced {
			err = tracedShiftQuery(s, cat, spec, out, i)
		} else {
			err = shiftQuery(s, cat, spec, out, i)
		}
		if err != nil {
			return nil, fmt.Errorf("q%d (%s): %w", i, spec.Label, err)
		}
	}
	out.end(begin)
	return out, nil
}

// shiftQuery runs one query the way a client of the session does.
func shiftQuery(s *session.Session, cat query.Catalog, spec query.Spec, out *stream, i int) error {
	t0 := time.Now()
	q, err := session.FromSpec(cat, spec)
	if err != nil {
		return err
	}
	var ck checksum
	res, err := s.Stream(q, ck.add)
	if err != nil {
		return err
	}
	out.record(i, time.Since(t0), ck.sum, res.Counters, res.Adapt)
	return nil
}

// tracedShiftQuery runs one query through the calls session.Stream
// makes (see session.run and session.runNet), timing each from here.
// The session only supplies the components it built; nothing inside
// the program is instrumented.
func tracedShiftQuery(s *session.Session, cat query.Catalog, spec query.Spec, out *stream, i int) error {
	ex, runner, opt := s.Executor(), s.Runner(), s.Optimizer()
	lt := out.layers
	t0 := time.Now()
	q, err := session.FromSpec(cat, spec)
	if err != nil {
		return err
	}
	t1 := time.Now()
	lt.add("query.bind_ms", ms(t1.Sub(t0)))
	adapt, err := opt.OnQuery(q.Uses, ex.Meter)
	if err != nil {
		return fmt.Errorf("adapt: %w", err)
	}
	lt.add("optimizer.adapt_ms", ms(time.Since(t1)))

	var (
		comp  *planner.Compiled
		ck    checksum
		drain time.Duration
	)
	if cl := s.Net(); cl != nil {
		var rows []tuple.Tuple
		comp, rows, drain, err = tracedNetAttempts(cl, ex, runner, q, i, lt)
		ck.addRows(rows)
	} else {
		t := time.Now()
		comp, err = runner.CompileSpec(q.Spec)
		lt.add("planner.compile_ms", ms(time.Since(t)))
		if err == nil {
			t = time.Now()
			err = drainOp(comp.Root, ck.add)
			drain = time.Since(t)
		}
	}
	if err != nil {
		return err
	}
	if ns := ex.Nodes(); ns != nil {
		ns.Flush()
	}
	counters := ex.Meter.Reset()
	lt.add("exec.drain_ms", ms(drain))
	if adapt.Adapted() {
		lt.add("exec.drain_adapting_ms", ms(drain))
	} else {
		lt.add("exec.drain_steady_ms", ms(drain))
	}
	for _, op := range comp.OpStats() {
		switch {
		case strings.HasPrefix(op.Label, "scan("):
			lt.add("exec.scan_incl_ms", float64(op.WallNs)/1e6)
		case strings.HasPrefix(op.Label, "join["):
			lt.add("exec.join_incl_ms", float64(op.WallNs)/1e6)
		case strings.HasPrefix(op.Label, "groupby"):
			lt.add("exec.groupby_incl_ms", float64(op.WallNs)/1e6)
		}
	}
	lt.add("exec.result_rows", float64(ck.rows))
	lt.addReport(comp.Report)
	lt.addCounters(counters)
	out.record(i, time.Since(t0), ck.sum, counters, adapt)
	return nil
}

// tracedNetAttempts is session.runNet's attempt loop: dispatch the
// spec to the workers, compile the coordinator's view against the
// attempt's fabric, drain it and collect the workers' reports,
// retrying on the survivors after a transport failure.
func tracedNetAttempts(cl *adbnet.Cluster, ex *exec.Executor, runner *planner.Runner, q session.Query, seq int, lt layers) (*planner.Compiled, []tuple.Tuple, time.Duration, error) {
	var drain time.Duration
	for attempt := 1; ; attempt++ {
		t := time.Now()
		at, err := cl.Begin(q.Spec.Spec, seq, runner.LinkWeights)
		if err != nil {
			return nil, nil, drain, fmt.Errorf("dispatch: %w", err)
		}
		fb, err := at.Fabric(ex)
		dispatch := time.Since(t)
		if err != nil {
			at.Finish(err, ex.Meter)
			return nil, nil, drain, err
		}
		ex.SetFabric(fb)
		t = time.Now()
		comp, err := runner.CompileSpec(q.Spec)
		lt.add("planner.compile_ms", ms(time.Since(t)))
		ex.SetFabric(nil)
		if err != nil {
			at.Finish(err, ex.Meter)
			return nil, nil, drain, fmt.Errorf("compile: %w", err)
		}
		t = time.Now()
		at.Start(context.Background())
		lt.add("net.dispatch_ms", ms(dispatch+time.Since(t)))
		t = time.Now()
		rows, execErr := exec.Collect(comp.Root)
		drain += time.Since(t)
		t = time.Now()
		retry, ferr := at.Finish(execErr, ex.Meter)
		lt.add("net.finish_ms", ms(time.Since(t)))
		if execErr == nil && ferr == nil {
			if w := cl.Weights(); w != nil {
				runner.LinkWeights = w
			}
			return comp, rows, drain, nil
		}
		if ferr == nil {
			ferr = execErr
		}
		if !retry || attempt >= cl.MaxAttempts() {
			return nil, nil, drain, fmt.Errorf("execute (attempt %d): %w", attempt, ferr)
		}
		lt.add("net.retries", 1)
	}
}

// drainOp pulls a compiled DAG to exhaustion, as session.Stream does.
func drainOp(op exec.Operator, sink func(*exec.Batch) error) error {
	if err := op.Open(); err != nil {
		return err
	}
	defer op.Close()
	for {
		b, err := op.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		err = sink(b)
		b.Release()
		if err != nil {
			return err
		}
	}
}
