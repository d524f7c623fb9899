package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/planner"
	"adaptdb/internal/query"
	"adaptdb/internal/serve"
	"adaptdb/internal/session"
)

// serveClients is how many tenants budget-serve runs, one goroutine
// each, every one replaying the identical stream.
const serveClients = 2

// minReserve mirrors serve's floor on a query's admission reservation.
const minReserve = 64 << 10

// serveDataSeed fixes budget-serve's data and upfront layout; the
// workload seed draws the query parameters. On some data sets q10's
// admission reservation falls short of what its join builds, so every
// q10 of the stream spills and the stream allocates about half as much
// again; on others none does. Drawing the data from the workload seed
// split the runs into those two groups. This data set is one where q10
// spills, so the workload always exercises the misestimate.
const serveDataSeed = 24

// runServe sets up a fresh copy of the data and a fresh service, then
// has serveClients tenants replay the identical read-only stream
// through it concurrently, each waiting for one query before sending
// the next. The service's global memory budget sits just above the
// largest single reservation in the stream, so queries queue for
// admission and joins spill, but none is shed.
func runServe(seed int64, spillDir string, traced bool) (*stream, error) {
	ds, st, err := setup(serveDataSeed, fragments)
	if err != nil {
		return nil, err
	}
	cat := ds.tables.Catalog()
	specs := serveSpecs(ds.data, seed)
	// The budget comes from the same estimate serve reserves by, made
	// over the static layout before the stream starts.
	var largest int64
	est := planner.NewRunner(exec.New(ds.store, &cluster.Meter{}), model())
	for i, spec := range specs {
		q, err := session.FromSpec(cat, spec)
		if err != nil {
			return nil, fmt.Errorf("q%d (%s): %w", i, spec.Label, err)
		}
		largest = max(largest, est.EstimateSpecFootprint(q.Spec), minReserve)
	}
	svc := serve.New(ds.store, serve.Config{
		Model:       model(),
		Optimizer:   optimizer.Config{Mode: optimizer.ModeStatic, WindowSize: windowSize, Seed: seed},
		MemBudget:   largest + largest/16,
		SpillDir:    spillDir,
		Distributed: true,
	})

	out := newStream(st, len(specs), serveClients, traced)
	clientLayers := make([]layers, serveClients)
	errs := make([]error, serveClients)
	failed := make([]int, serveClients)
	var wg sync.WaitGroup
	begin := out.begin()
	for c := 0; c < serveClients; c++ {
		if traced {
			clientLayers[c] = layers{}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			failed[c], errs[c] = serveClient(svc, cat, specs, c, out, clientLayers[c])
		}(c)
	}
	wg.Wait()
	out.end(begin)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, n := range failed {
		out.failed += n
	}
	if traced {
		for _, cl := range clientLayers {
			for k, v := range cl {
				out.layers.add(k, v)
			}
		}
		hits, misses := svc.CacheStats()
		if hits+misses > 0 {
			out.layers.add("planner.cache_hit_rate", float64(hits)/float64(hits+misses))
		}
		out.layers.add("serve.shed", float64(svc.Admission().Stats().Shed))
	}
	return out, nil
}

// serveClient is one tenant's closed loop. Traced, it times each
// Stream call from here and splits it by the admission wait the
// service reports; the layers inside Stream stay opaque.
func serveClient(svc *serve.Service, cat query.Catalog, specs []query.Spec, c int, out *stream, lt layers) (failed int, err error) {
	tenant := fmt.Sprintf("tenant-%d", c)
	for i, spec := range specs {
		t0 := time.Now()
		q, err := session.FromSpec(cat, spec)
		if err != nil {
			return failed, fmt.Errorf("%s q%d (%s): %w", tenant, i, spec.Label, err)
		}
		t1 := time.Now()
		res, err := svc.Stream(context.Background(), tenant, q, nil)
		call := time.Since(t1)
		idx := c*len(specs) + i
		if errors.Is(err, serve.ErrShed) || errors.Is(err, serve.ErrQueueFull) {
			failed++
			continue
		}
		if err != nil {
			return failed, fmt.Errorf("%s q%d (%s): %w", tenant, i, spec.Label, err)
		}
		out.record(idx, time.Since(t0), res.Checksum, res.Counters, res.Adapt)
		if lt != nil {
			lt.add("query.bind_ms", ms(t1.Sub(t0)))
			lt.add("serve.queue_ms", ms(res.Queued))
			lt.add("serve.run_ms", ms(call-res.Queued))
			lt.add("serve.reserved_mb", float64(res.EstBytes)/1e6/float64(len(specs)*serveClients))
			lt.add("exec.result_rows", float64(res.RowCount))
			lt.addReport(res.Report)
			lt.addCounters(res.Counters)
		}
	}
	return failed, nil
}
