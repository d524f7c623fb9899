package core

import (
	"math/rand"
	"testing"

	"adaptdb/internal/block"
	"adaptdb/internal/cluster"
	"adaptdb/internal/dfs"
	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tree"
	"adaptdb/internal/tuple"
	"adaptdb/internal/twophase"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "orderkey", Kind: value.Int},
	schema.Column{Name: "partkey", Kind: value.Int},
	schema.Column{Name: "shipdate", Kind: value.Int},
)

func genRows(n int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewInt(rng.Int63n(10000)),
			value.NewInt(rng.Int63n(2000)),
			value.NewInt(rng.Int63n(2500)),
		}
	}
	return rows
}

func loadTable(t *testing.T, rows []tuple.Tuple, opts LoadOptions) (*Table, *dfs.Store) {
	t.Helper()
	store := dfs.NewStore(4, 2, 1)
	tbl, err := Load(store, "lineitem", sch, rows, opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return tbl, store
}

func countRows(t *testing.T, tbl *Table) int {
	t.Helper()
	total := 0
	for _, i := range tbl.LiveTrees() {
		total += tbl.RowsUnder(i)
	}
	return total
}

func TestLoadUpfront(t *testing.T) {
	rows := genRows(2048, 1)
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	if tbl.TotalRows() != 2048 {
		t.Fatalf("TotalRows = %d", tbl.TotalRows())
	}
	if got := countRows(t, tbl); got != 2048 {
		t.Fatalf("rows in store = %d, want 2048", got)
	}
	if len(tbl.LiveTrees()) != 1 {
		t.Fatalf("trees = %v", tbl.LiveTrees())
	}
	ti := tbl.Trees[0]
	if ti.Tree.NumBuckets() < 8 {
		t.Errorf("expected ≥8 buckets for 2048 rows @128/blk, got %d", ti.Tree.NumBuckets())
	}
	// Every live bucket's block exists in the store.
	for _, b := range ti.LiveBuckets() {
		if !store.Exists(tbl.BlockPath(0, b)) {
			t.Errorf("block %d missing from store", b)
		}
	}
	// Tree metadata persisted.
	raw, err := store.GetBytes("lineitem/meta/tree0")
	if err != nil {
		t.Fatalf("tree metadata not persisted: %v", err)
	}
	decoded, err := tree.Decode(raw, sch)
	if err != nil {
		t.Fatalf("persisted tree corrupt: %v", err)
	}
	if decoded.String() != ti.Tree.String() {
		t.Errorf("persisted tree differs")
	}
}

func TestLoadTwoPhase(t *testing.T) {
	rows := genRows(2048, 2)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: 0})
	ti := tbl.Trees[0]
	if ti.Tree.JoinAttr != 0 {
		t.Fatalf("join attr = %d", ti.Tree.JoinAttr)
	}
	if ti.Tree.JoinLevels == 0 {
		t.Errorf("two-phase default should reserve half the levels")
	}
	if tbl.TreeFor(0) != 0 || tbl.TreeFor(1) != -1 {
		t.Errorf("TreeFor wrong: %d %d", tbl.TreeFor(0), tbl.TreeFor(1))
	}
}

func TestRefsPruning(t *testing.T) {
	rows := genRows(4096, 3)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	all := tbl.Refs(0, nil)
	narrow := tbl.Refs(0, []predicate.Predicate{
		predicate.NewCmp(0, predicate.LT, value.NewInt(500)),
	})
	if len(narrow) >= len(all) {
		t.Errorf("selective predicate should prune blocks: %d vs %d", len(narrow), len(all))
	}
	// Soundness: matching rows only in returned refs.
	matchBuckets := make(map[block.ID]bool)
	for _, ref := range narrow {
		matchBuckets[ref.Bucket] = true
	}
	for _, r := range rows {
		if r[0].Int64() < 500 {
			b := tbl.Trees[0].Tree.Route(r)
			if !matchBuckets[b] {
				t.Fatalf("row with orderkey %d routed to pruned bucket %d", r[0].Int64(), b)
			}
		}
	}
}

func TestAllRefsSpansTrees(t *testing.T) {
	rows := genRows(1024, 4)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	// Add a second tree and move some buckets into it.
	newTree := twophase.Builder{Schema: sch, JoinAttr: 1, JoinLevels: 2, TotalDepth: 3, Seed: 5}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	live := tbl.Trees[0].LiveBuckets()
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, idx, live[:2], &meter, nil); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if got := countRows(t, tbl); got != 1024 {
		t.Fatalf("rows after move = %d, want 1024", got)
	}
	refs := tbl.AllRefs(nil)
	seen := make(map[string]bool)
	rowsSeen := 0
	for _, ref := range refs {
		if seen[ref.Path] {
			t.Fatalf("duplicate ref %s", ref.Path)
		}
		seen[ref.Path] = true
		rowsSeen += ref.Meta.Count
	}
	if rowsSeen != 1024 {
		t.Fatalf("AllRefs covers %d rows, want 1024", rowsSeen)
	}
}

func TestMoveBucketsMetersAndEmits(t *testing.T) {
	rows := genRows(512, 5)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	emitted := 0
	live := tbl.Trees[0].LiveBuckets()
	moved := 0
	for _, b := range live[:3] {
		moved += tbl.Trees[0].Metas[b].Count
	}
	if err := tbl.MoveBuckets(0, idx, live[:3], &meter, func(tuple.Tuple) { emitted++ }); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if emitted != moved {
		t.Errorf("emitted %d rows, want %d", emitted, moved)
	}
	c := meter.Snapshot()
	if int(c.ScanLocal+c.ScanRemote) != moved {
		t.Errorf("scan meter = %v, want %d rows", c.ScanLocal+c.ScanRemote, moved)
	}
	if int(c.RepartRows) != moved {
		t.Errorf("repart meter = %v, want %d", c.RepartRows, moved)
	}
	if tbl.RowsUnder(idx) != moved {
		t.Errorf("destination tree holds %d rows, want %d", tbl.RowsUnder(idx), moved)
	}
	// Moved rows route correctly in the destination tree.
	for _, b := range tbl.Trees[idx].LiveBuckets() {
		blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(idx, b), 0)
		if err != nil {
			t.Fatalf("GetBlock: %v", err)
		}
		for _, r := range blk.Tuples {
			if newTree.Route(r) != b {
				t.Fatalf("moved row in wrong destination bucket")
			}
		}
	}
}

func TestMoveBucketsErrors(t *testing.T) {
	rows := genRows(256, 6)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, 5, []block.ID{0}, &meter, nil); err == nil {
		t.Errorf("bad destination accepted")
	}
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 1, TotalDepth: 2, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	if err := tbl.MoveBuckets(0, idx, []block.ID{9999}, &meter, nil); err == nil {
		t.Errorf("missing bucket accepted")
	}
}

func TestDropTree(t *testing.T) {
	rows := genRows(256, 7)
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	if err := tbl.DropTree(0); err == nil {
		t.Fatalf("dropping non-empty tree should fail")
	}
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, idx, tbl.Trees[0].LiveBuckets(), &meter, nil); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if err := tbl.DropTree(0); err != nil {
		t.Fatalf("DropTree after drain: %v", err)
	}
	if store.Exists("lineitem/meta/tree0") {
		t.Errorf("dropped tree metadata still in store")
	}
	if got := tbl.LiveTrees(); len(got) != 1 || got[0] != idx {
		t.Errorf("LiveTrees = %v", got)
	}
	if countRows(t, tbl) != 256 {
		t.Errorf("rows lost through drain+drop")
	}
	if err := tbl.DropTree(0); err == nil {
		t.Errorf("double drop accepted")
	}
}

func TestPrimaryTree(t *testing.T) {
	rows := genRows(512, 8)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	if tbl.PrimaryTree() != 0 {
		t.Errorf("primary = %d, want 0", tbl.PrimaryTree())
	}
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 6}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	if err := tbl.MoveBuckets(0, idx, tbl.Trees[0].LiveBuckets(), &meter, nil); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	if tbl.PrimaryTree() != idx {
		t.Errorf("primary after drain = %d, want %d", tbl.PrimaryTree(), idx)
	}
}

func TestReplaceTreeData(t *testing.T) {
	rows := genRows(1024, 9)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 128, Seed: 1, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 2, JoinLevels: 2, TotalDepth: 3, Seed: 4}.Build(tbl.SampleRows)
	var meter cluster.Meter
	if err := tbl.ReplaceTreeData(0, newTree, &meter); err != nil {
		t.Fatalf("ReplaceTreeData: %v", err)
	}
	if countRows(t, tbl) != 1024 {
		t.Fatalf("rows after replace = %d", countRows(t, tbl))
	}
	if tbl.Trees[0].Tree.JoinAttr != 2 {
		t.Errorf("tree not replaced")
	}
	c := meter.Snapshot()
	if int(c.RepartRows) != 1024 {
		t.Errorf("full repartition should write all rows: %v", c.RepartRows)
	}
	// Rows route correctly under the new tree.
	for _, b := range tbl.Trees[0].LiveBuckets() {
		blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(0, b), 0)
		if err != nil {
			t.Fatalf("GetBlock: %v", err)
		}
		for _, r := range blk.Tuples {
			if newTree.Route(r) != b {
				t.Fatalf("row misplaced after replace")
			}
		}
	}
	if err := tbl.ReplaceTreeData(7, newTree, &meter); err == nil {
		t.Errorf("replacing missing tree accepted")
	}
}

func TestZoneMapsMatchDataAfterMoves(t *testing.T) {
	rows := genRows(512, 10)
	tbl, _ := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	newTree := twophase.Builder{Schema: sch, JoinAttr: 0, JoinLevels: 2, TotalDepth: 3, Seed: 3}.Build(tbl.SampleRows)
	idx := tbl.AddTree(newTree)
	var meter cluster.Meter
	live := tbl.Trees[0].LiveBuckets()
	if err := tbl.MoveBuckets(0, idx, live[:len(live)/2], &meter, nil); err != nil {
		t.Fatalf("MoveBuckets: %v", err)
	}
	for _, ti := range []int{0, idx} {
		for _, b := range tbl.Trees[ti].LiveBuckets() {
			blk, _, err := tbl.Store().GetBlock(tbl.BlockPath(ti, b), 0)
			if err != nil {
				t.Fatalf("GetBlock: %v", err)
			}
			meta := tbl.Trees[ti].Metas[b]
			if meta.Count != blk.Len() {
				t.Errorf("meta count %d != block %d", meta.Count, blk.Len())
			}
			for col := 0; col < sch.NumCols(); col++ {
				if value.Compare(meta.Mins[col], blk.Min(col)) != 0 ||
					value.Compare(meta.Maxs[col], blk.Max(col)) != 0 {
					t.Errorf("tree %d bucket %d col %d zone map stale", ti, b, col)
				}
			}
		}
	}
}

func TestBlockImagesTrackMoves(t *testing.T) {
	// Scans build block images lazily; migrations then append into them
	// in place. After any sequence of the two, every image must equal a
	// fresh transpose of its block's Tuples.
	rows := genRows(2000, 11)
	tbl, store := loadTable(t, rows, LoadOptions{RowsPerBlock: 64, Seed: 1, JoinAttr: -1})
	rng := rand.New(rand.NewSource(5))
	trees := []int{0}
	for k := 0; k < 2; k++ {
		nt := twophase.Builder{Schema: sch, JoinAttr: k, JoinLevels: 2, TotalDepth: 4, Seed: int64(7 + k)}.Build(tbl.SampleRows)
		trees = append(trees, tbl.AddTree(nt))
	}
	check := func(frac int) {
		t.Helper()
		for _, ti := range tbl.LiveTrees() {
			for _, b := range tbl.Trees[ti].LiveBuckets() {
				if rng.Intn(frac) != 0 {
					continue
				}
				blk, _, err := store.GetBlock(tbl.BlockPath(ti, b), 0)
				if err != nil {
					t.Fatal(err)
				}
				img := blk.Columns()
				if img.FullLen() != blk.Len() {
					t.Fatalf("tree %d bucket %d: image %d rows, block %d", ti, b, img.FullLen(), blk.Len())
				}
				for i, r := range blk.Tuples {
					if string(img.AppendRowBinary(nil, i)) != string(r.AppendBinary(nil)) {
						t.Fatalf("tree %d bucket %d row %d: image differs from Tuples", ti, b, i)
					}
				}
			}
		}
	}
	var meter cluster.Meter
	for round := 0; round < 12; round++ {
		check(2) // a scan touches about half the blocks
		from := trees[rng.Intn(len(trees))]
		to := trees[rng.Intn(len(trees))]
		live := tbl.Trees[from].LiveBuckets()
		if from == to || len(live) == 0 {
			continue
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		if err := tbl.MoveBuckets(from, to, live[:1+rng.Intn(len(live))/2], &meter, nil); err != nil {
			t.Fatal(err)
		}
	}
	check(1)
	if got := countRows(t, tbl); got != len(rows) {
		t.Fatalf("rows after moves = %d, want %d", got, len(rows))
	}
}
