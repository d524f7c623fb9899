package main

import (
	"fmt"
	"math/rand"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/optimizer"
	"adaptdb/internal/query"
	"adaptdb/internal/session"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
)

// The fixed shape every workload runs at: TPC-H SF 0.05 loaded over 4
// fragments (store nodes), 256 rows per block, the paper's smooth
// repartitioning with a query window of |W|=5.
const (
	scaleFactor  = 0.05
	fragments    = 4
	rowsPerBlock = 256
	windowSize   = 5
	// shiftPhase is the length of each phase of the join-attribute
	// shift: shiftPhase orderkey queries, then shiftPhase partkey ones.
	shiftPhase = 24
	// serveQueries is the length of each budget-serve tenant's stream.
	serveQueries = 36
)

// dataset is one freshly set-up copy of the data: generated from the
// workload seed and loaded over a new store.
type dataset struct {
	data   *tpch.Dataset
	store  *dfs.Store
	tables *tpch.Tables
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	generate, load, start time.Duration
}

func (t setupTimes) total() time.Duration { return t.generate + t.load + t.start }

// setup generates TPC-H data from dataSeed and loads it over a fresh
// nodes-wide store with the random upfront layout §7.3 starts from,
// drawn from the same seed. It builds exactly what datasets.BuildTPCH
// builds, timing the two steps separately.
func setup(dataSeed int64, nodes int) (*dataset, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	data := tpch.Generate(scaleFactor, dataSeed)
	t.generate = time.Since(start)
	start = time.Now()
	store := dfs.NewStore(nodes, 2, dataSeed)
	tables, err := tpch.LoadAll(store, data, tpch.LoadConfig{RowsPerBlock: rowsPerBlock, Seed: dataSeed})
	if err != nil {
		return nil, t, fmt.Errorf("load: %w", err)
	}
	t.load = time.Since(start)
	return &dataset{data: data, store: store, tables: tables}, t, nil
}

// model is the cost model every workload prices sim_s with.
func model() cluster.CostModel {
	m := cluster.Default()
	m.Nodes = fragments
	return m
}

// shiftSpecs is the §7.3 join-attribute shift: q5/q3 (lineitem joined
// on orderkey) for one phase, then q8/q14 (lineitem joined on partkey).
// Query parameters come from the workload seed.
func shiftSpecs(data *tpch.Dataset, seed int64) []query.Spec {
	rng := rand.New(rand.NewSource(seed))
	var out []query.Spec
	for i := 0; i < 2*shiftPhase; i++ {
		tpl := []tpch.Template{tpch.Q5, tpch.Q3}[i%2]
		if i >= shiftPhase {
			tpl = []tpch.Template{tpch.Q8, tpch.Q14}[i%2]
		}
		out = append(out, tpch.NewInstance(tpl, data, rng).Spec())
	}
	return out
}

// serveSpecs is one budget-serve tenant's stream: grouped q3/q5/q10
// (three-table joins reduced by customer nation) and the two-table q12,
// in rotation.
func serveSpecs(data *tpch.Dataset, seed int64) []query.Spec {
	rng := rand.New(rand.NewSource(seed))
	tpls := []tpch.Template{tpch.Q3, tpch.Q5, tpch.Q10, tpch.Q12}
	var out []query.Spec
	for i := 0; i < serveQueries; i++ {
		in := tpch.NewInstance(tpls[i%len(tpls)], data, rng)
		if in.Template == tpch.Q12 {
			out = append(out, in.Spec())
		} else {
			out = append(out, in.GroupedSpec())
		}
	}
	return out
}

// oracle computes the expected per-query checksums outside any timed
// phase: a 1-node, static-layout, unbudgeted session over its own
// freshly generated copy of the same data, on every core the benchmark
// may use.
func oracle(dataSeed, seed int64, specs func(*tpch.Dataset, int64) []query.Spec) ([]uint64, error) {
	ds, _, err := setup(dataSeed, 1)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	s := session.New(ds.store, session.Config{
		Optimizer: optimizer.Config{Mode: optimizer.ModeStatic, Seed: seed},
		Workers:   maxProcs,
	})
	cat := ds.tables.Catalog()
	var want []uint64
	for i, spec := range specs(ds.data, seed) {
		q, err := session.FromSpec(cat, spec)
		if err != nil {
			return nil, fmt.Errorf("oracle q%d (%s): %w", i, spec.Label, err)
		}
		var ck checksum
		if _, err := s.Stream(q, ck.add); err != nil {
			return nil, fmt.Errorf("oracle q%d (%s): %w", i, spec.Label, err)
		}
		want = append(want, ck.sum)
	}
	return want, nil
}

// checksum is the order-independent result digest serve.Result uses:
// the sum of the 64-bit FNV-1a hashes of each row's binary encoding.
type checksum struct {
	sum     uint64
	rows    int
	scratch []byte
}

func (c *checksum) add(b *exec.Batch) error {
	c.addRows(b.Rows())
	return nil
}

func (c *checksum) addRows(rows []tuple.Tuple) {
	c.rows += len(rows)
	for _, r := range rows {
		c.scratch = r.AppendBinary(c.scratch[:0])
		c.sum += fnv1a(c.scratch)
	}
}

func fnv1a(buf []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range buf {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
