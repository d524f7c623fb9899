package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"adaptdb/internal/cluster"
	"adaptdb/internal/core"
	"adaptdb/internal/dfs"
	"adaptdb/internal/exec"
	"adaptdb/internal/experiments"
	"adaptdb/internal/tpch"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// spillRecord is one memory-budget point of the spill sweep. Checksum
// is an order-independent digest of the result multiset: identical
// checksums across budgets AND across the columnar/row paths mean every
// run produced bit-identical results to the unbudgeted columnar one —
// the self-gate (the bench exits non-zero on drift).
type spillRecord struct {
	Op           string  `json:"op"`
	Path         string  `json:"path"` // "columnar" | "row"
	BudgetBytes  int64   `json:"budget_bytes"`
	BudgetFrac   string  `json:"budget_frac"`
	Rows         int     `json:"rows"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	SpilledBytes int64   `json:"spilled_bytes"`
	SpillRows    int64   `json:"spill_rows"`
	SkippedRows  int64   `json:"spill_skipped_rows"`
	Checksum     string  `json:"checksum"`
	VsUnbudgeted float64 `json:"vs_unbudgeted"`
	// ColumnarSpeedup on a columnar record is row-path wall time over
	// columnar wall time at the same budget — the A/B this PR tracks.
	ColumnarSpeedup float64 `json:"columnar_speedup,omitempty"`
}

// spillReport is one node count's sweep: every budget tier run through
// both the columnar (default) and row execution paths, plus the
// Bloom-filter disjoint-probe A/B from PR 6.
type spillReport struct {
	Nodes              int           `json:"nodes"`
	BuildRows          int           `json:"build_rows"`
	BuildMemBytes      int64         `json:"build_mem_bytes"`
	Results            []spillRecord `json:"results"`
	ChecksumsEqual     bool          `json:"checksums_equal"`
	ColumnarVsRowEqual bool          `json:"columnar_vs_row_equal"`
	Disjoint           []spillRecord `json:"disjoint_probe"`
	DisjointSpillSaved float64       `json:"disjoint_bloom_spill_saved"`
}

// spillSweepReport is the machine-readable output of -spill -json — the
// BENCH_PR7.json series: one spillReport per simulated node count.
type spillSweepReport struct {
	SF           float64       `json:"sf"`
	RowsPerBlock int           `json:"rows_per_block"`
	BatchSize    int           `json:"batch_size"`
	Sweeps       []spillReport `json:"sweeps"`
}

// runSpillBench sweeps the SF-scale lineitem ⋈ orders shuffle join
// (build on orders, probe streamed) across memory budgets {∞, 1/2
// build, 1/8 build} and across the columnar and row execution paths,
// streaming the output through an order-independent checksum so no run
// materializes anything. When the -nodes flag is unset the whole sweep
// repeats at 1, 4 and 8 simulated nodes (the BENCH_PR7.json series);
// an explicit -nodes N runs just that width.
func runSpillBench(cfg experiments.Config, jsonOut, nodesSet bool) error {
	ds := tpch.Generate(cfg.SF, cfg.Seed)
	buildBytes := int64(0)
	for _, r := range ds.Orders {
		buildBytes += int64(r.MemBytes())
	}
	nodeCounts := []int{1, 4, 8}
	if nodesSet {
		nodeCounts = []int{cfg.Nodes}
	}
	sweep := spillSweepReport{
		SF: cfg.SF, RowsPerBlock: cfg.RowsPerBlock, BatchSize: exec.DefaultBatchSize,
	}
	if !jsonOut {
		fmt.Printf("spilling shuffle join sweep (SF=%.4g, build side %d rows ≈ %.1f MiB, columnar vs row)\n",
			cfg.SF, len(ds.Orders), float64(buildBytes)/(1<<20))
	}
	for _, n := range nodeCounts {
		rep, err := runSpillSweepAt(cfg, ds, n, buildBytes, jsonOut)
		if err != nil {
			return err
		}
		sweep.Sweeps = append(sweep.Sweeps, *rep)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sweep); err != nil {
			return err
		}
	}
	for _, rep := range sweep.Sweeps {
		if !rep.ChecksumsEqual {
			return fmt.Errorf("nodes=%d: budgeted results drifted from the unbudgeted run — spill path is WRONG", rep.Nodes)
		}
		if !rep.ColumnarVsRowEqual {
			return fmt.Errorf("nodes=%d: columnar and row paths disagree — vectorized join is WRONG", rep.Nodes)
		}
		if rep.DisjointSpillSaved <= 0 {
			return fmt.Errorf("nodes=%d: disjoint-probe A/B failed: bloom run must skip rows, spill fewer bytes, and match the no-bloom result", rep.Nodes)
		}
	}
	if !jsonOut {
		fmt.Printf("\nall budgets and both paths bit-identical at every node count\n")
	}
	return nil
}

// runSpillSweepAt runs one node count's budget × path sweep.
func runSpillSweepAt(cfg experiments.Config, ds *tpch.Dataset, nodes int, buildBytes int64, jsonOut bool) (*spillReport, error) {
	store := dfs.NewStore(nodes, 3, cfg.Seed)
	line, err := core.Load(store, "lineitem", tpch.LineitemSchema, ds.Lineitem, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed, JoinAttr: tpch.LOrderKey,
	})
	if err != nil {
		return nil, err
	}
	ord, err := core.Load(store, "orders", tpch.OrdersSchema, ds.Orders, core.LoadOptions{
		RowsPerBlock: cfg.RowsPerBlock, Seed: cfg.Seed + 1, JoinAttr: tpch.OOrderKey,
	})
	if err != nil {
		return nil, err
	}
	report := &spillReport{Nodes: nodes, BuildRows: len(ds.Orders), BuildMemBytes: buildBytes}
	if !jsonOut {
		fmt.Printf("\n--- %d node(s) ---\n%-28s %-9s %12s %12s %14s %10s %8s\n",
			nodes, "budget", "path", "wall", "rows", "spilled", "checksum", "vs-inf")
	}
	budgets := []struct {
		frac  string
		bytes int64
	}{
		{"inf", 0},
		{"build/2", buildBytes / 2},
		{"build/8", buildBytes / 8},
	}
	var baseNs int64
	var baseSum string
	for _, b := range budgets {
		var colNs int64
		for _, rowPath := range []bool{false, true} {
			meter := &cluster.Meter{}
			ex := exec.New(store, meter)
			ex.Mem = exec.NewMemBudget(b.bytes)
			ex.DisableColumnar = rowPath
			op := ex.JoinOp(
				ex.TableScanOp(ord, nil), tpch.OOrderKey,
				ex.TableScanOp(line, nil), tpch.LOrderKey,
				// The exact build cardinality, as the planner would thread it:
				// sizes the dynamic radix fan-out, the pre-sized hash tables
				// and the spill Bloom filters.
				exec.JoinOptions{BuildIsRight: true, BuildRowsEst: len(ds.Orders)},
			)
			var mBefore, mAfter runtime.MemStats
			runtime.ReadMemStats(&mBefore)
			start := time.Now()
			rows, sum, err := checksumDrain(op)
			wall := time.Since(start)
			runtime.ReadMemStats(&mAfter)
			if err != nil {
				return nil, fmt.Errorf("nodes=%d budget %s: %w", nodes, b.frac, err)
			}
			c := meter.Snapshot()
			rec := spillRecord{
				Op:           "spill-join/mem=" + b.frac,
				Path:         "columnar",
				BudgetBytes:  b.bytes,
				BudgetFrac:   b.frac,
				Rows:         rows,
				NsPerOp:      wall.Nanoseconds(),
				AllocsPerOp:  mAfter.Mallocs - mBefore.Mallocs,
				SpilledBytes: int64(c.SpillBytes),
				SpillRows:    int64(c.SpillRows),
				SkippedRows:  int64(c.SpillSkippedRows),
				Checksum:     sum,
			}
			if rowPath {
				rec.Op += "/rowpath"
				rec.Path = "row"
			} else {
				colNs = rec.NsPerOp
			}
			if b.frac == "inf" && !rowPath {
				baseNs, baseSum = rec.NsPerOp, rec.Checksum
				rec.VsUnbudgeted = 1
			} else if baseNs > 0 {
				rec.VsUnbudgeted = float64(rec.NsPerOp) / float64(baseNs)
			}
			report.Results = append(report.Results, rec)
			if !jsonOut {
				fmt.Printf("%-28s %-9s %12s %12d %14s %10s %7.2fx\n", rec.Op, rec.Path,
					wall.Round(time.Millisecond), rows, fmtBytes(uint64(rec.SpilledBytes)), sum[:8], rec.VsUnbudgeted)
			}
		}
		// Stamp the A/B ratio on the columnar record of this tier.
		rowRec := &report.Results[len(report.Results)-1]
		colRec := &report.Results[len(report.Results)-2]
		if colNs > 0 {
			colRec.ColumnarSpeedup = float64(rowRec.NsPerOp) / float64(colNs)
		}
	}
	report.ChecksumsEqual = true
	report.ColumnarVsRowEqual = true
	for _, rec := range report.Results {
		if rec.Checksum != baseSum || rec.Rows != report.Results[0].Rows {
			report.ChecksumsEqual = false
			if rec.Path == "row" {
				report.ColumnarVsRowEqual = false
			}
		}
	}

	// Disjoint-probe A/B: every probe orderkey shifted past the build key
	// range, so no probe row can match and every spill write of the probe
	// side is pure waste. With Bloom filters on, those writes are skipped
	// (SpillSkippedRows); with filters off, the classic Grace join pays
	// them. The delta is the filter's I/O saving; both runs must agree on
	// the (empty) result.
	maxKey := int64(0)
	for _, r := range ds.Orders {
		if k := r[tpch.OOrderKey].I; k > maxKey {
			maxKey = k
		}
	}
	disjoint := make([]tuple.Tuple, len(ds.Lineitem))
	for i, r := range ds.Lineitem {
		nr := make(tuple.Tuple, len(r))
		copy(nr, r)
		nr[tpch.LOrderKey] = value.NewInt(maxKey + 1 + nr[tpch.LOrderKey].I)
		disjoint[i] = nr
	}
	for _, noBloom := range []bool{false, true} {
		meter := &cluster.Meter{}
		ex := exec.New(store, meter)
		ex.Mem = exec.NewMemBudget(buildBytes / 8)
		op := ex.JoinOp(
			ex.TableScanOp(ord, nil), tpch.OOrderKey,
			exec.NewSource(disjoint), tpch.LOrderKey,
			exec.JoinOptions{BuildIsRight: true, BuildRowsEst: len(ds.Orders), DisableBloom: noBloom},
		)
		start := time.Now()
		rows, sum, err := checksumDrain(op)
		wall := time.Since(start)
		variant := "bloom"
		if noBloom {
			variant = "nobloom"
		}
		if err != nil {
			return nil, fmt.Errorf("nodes=%d disjoint %s: %w", nodes, variant, err)
		}
		c := meter.Snapshot()
		rec := spillRecord{
			Op:           "disjoint-probe/mem=build/8/" + variant,
			Path:         "columnar",
			BudgetBytes:  buildBytes / 8,
			BudgetFrac:   "build/8",
			Rows:         rows,
			NsPerOp:      wall.Nanoseconds(),
			SpilledBytes: int64(c.SpillBytes),
			SpillRows:    int64(c.SpillRows),
			SkippedRows:  int64(c.SpillSkippedRows),
			Checksum:     sum,
		}
		report.Disjoint = append(report.Disjoint, rec)
		if !jsonOut {
			fmt.Printf("%-38s %12s %8d rows %14s spilled %10d skipped\n", rec.Op,
				wall.Round(time.Millisecond), rows, fmtBytes(uint64(rec.SpilledBytes)), rec.SkippedRows)
		}
	}
	ab := report.Disjoint
	bloomOK := len(ab) == 2 &&
		ab[0].Rows == ab[1].Rows && ab[0].Checksum == ab[1].Checksum &&
		ab[0].SkippedRows > 0 && ab[1].SkippedRows == 0 &&
		ab[0].SpilledBytes < ab[1].SpilledBytes
	if bloomOK {
		report.DisjointSpillSaved = 1 - float64(ab[0].SpilledBytes)/float64(ab[1].SpilledBytes)
	}
	return report, nil
}

// checksumDrain pulls an operator to exhaustion through the
// order-independent result digest (exec.Digest) — result identity
// across nondeterministically ordered parallel runs, with nothing
// materialized and no columnar value boxed.
func checksumDrain(op exec.Operator) (int, string, error) {
	var d exec.Digest
	n, err := exec.Drain(nil, op, d.Add)
	if err != nil {
		return n, "", err
	}
	return n, fmt.Sprintf("%016x", d.Sum), nil
}
