package predicate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// cellDomain is a small value domain per kind, so equality and order
// both hit often; it holds the cases SelectCols must order like
// value.Compare: NULL, NaN, ±0, ±Inf, the empty string, every kind.
var cellDomain = []value.Value{
	{},
	value.NewInt(-2), value.NewInt(0), value.NewInt(1), value.NewInt(math.MaxInt64),
	value.NewFloat(math.NaN()), value.NewFloat(math.Inf(-1)), value.NewFloat(-1),
	value.NewFloat(math.Copysign(0, -1)), value.NewFloat(0), value.NewFloat(2.5), value.NewFloat(math.Inf(1)),
	value.NewString(""), value.NewString("a"), value.NewString("ab"), value.NewString("b"),
	value.NewDate(-1), value.NewDate(0), value.NewDate(3),
	value.NewBool(false), value.NewBool(true),
}

// kindCells groups cellDomain's non-null entries by kind.
func kindCells(k value.Kind) []value.Value {
	var out []value.Value
	for _, v := range cellDomain {
		if v.K == k {
			out = append(out, v)
		}
	}
	return out
}

var allOps = []Op{EQ, NE, LT, LE, GT, GE, In, Op(42)}

// colShape draws one column's cells: a single kind with or without
// NULLs, all NULL, or mixed kinds (which demotes the vector to boxed).
func colShape(rng *rand.Rand, n int) []value.Value {
	kinds := []value.Kind{value.Int, value.Float, value.String, value.Date, value.Bool}
	out := make([]value.Value, n)
	switch shape := rng.Intn(6); shape {
	case 0: // all NULL: a kindless vector
	case 1: // mixed kinds
		for i := range out {
			out[i] = cellDomain[rng.Intn(len(cellDomain))]
		}
	default: // one kind, NULLs in shapes 3 and 5
		dom := kindCells(kinds[rng.Intn(len(kinds))])
		for i := range out {
			if shape%2 == 1 && rng.Intn(4) == 0 {
				continue
			}
			out[i] = dom[rng.Intn(len(dom))]
		}
	}
	return out
}

func randPred(rng *rand.Rand, ncols int) Predicate {
	p := Predicate{Col: rng.Intn(ncols), Op: allOps[rng.Intn(len(allOps))]}
	p.Val = cellDomain[rng.Intn(len(cellDomain))]
	if p.Op == In {
		for k := rng.Intn(4); k > 0; k-- {
			p.Vals = append(p.Vals, cellDomain[rng.Intn(len(cellDomain))])
		}
	}
	return p
}

// wantSel is the reference: the live rows (sel, or all) MatchesAll keeps.
func wantSel(preds []Predicate, rows []tuple.Tuple, sel []int32) []int32 {
	out := []int32{}
	for i := range rows {
		if sel != nil && !slices.Contains(sel, int32(i)) {
			continue
		}
		if MatchesAll(preds, rows[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkSelect compares SelectCols with MatchesAll on rows, over columns
// built by bulk transpose and by per-row append, with and without an
// incoming selection, into fresh and aliased (in-place) output.
func checkSelect(t *testing.T, rows []tuple.Tuple, ncols int, preds []Predicate, sel []int32) {
	t.Helper()
	bulk := tuple.NewColumns(ncols)
	bulk.AppendRows(rows)
	perRow := tuple.NewColumns(ncols)
	for _, r := range rows {
		perRow.AppendRow(r)
	}
	want := wantSel(preds, rows, sel)
	for _, c := range []*tuple.Columns{bulk, perRow} {
		for _, inPlace := range []bool{false, true} {
			var dst []int32
			if sel != nil {
				c.SetSel(slices.Clone(sel))
				if inPlace {
					dst = c.Sel()[:0]
				}
			}
			got := SelectCols(preds, c, dst)
			if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("preds %v sel %v:\n got %v\nwant %v\nrows %v", preds, sel, got, want, rows)
			}
			c.SetSel(nil)
		}
	}
}

func TestSelectColsMatchesMatchesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		ncols := 1 + rng.Intn(3)
		n := rng.Intn(80)
		cols := make([][]value.Value, ncols)
		for c := range cols {
			cols[c] = colShape(rng, n)
		}
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = make(tuple.Tuple, ncols)
			for c := range cols {
				rows[i][c] = cols[c][i]
			}
		}
		preds := make([]Predicate, rng.Intn(4))
		for i := range preds {
			preds[i] = randPred(rng, ncols)
		}
		var sel []int32
		if rng.Intn(2) == 0 {
			sel = []int32{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		checkSelect(t, rows, ncols, preds, sel)
	}
}

func TestSelectColsEveryOpAndKind(t *testing.T) {
	// Exhaustive over one-column sets: every op, every operand in the
	// domain, every column kind with and without a NULL.
	kinds := []value.Kind{value.Int, value.Float, value.String, value.Date, value.Bool}
	for _, k := range kinds {
		for _, withNull := range []bool{false, true} {
			var rows []tuple.Tuple
			for _, v := range kindCells(k) {
				rows = append(rows, tuple.Tuple{v})
			}
			if withNull {
				rows = append(rows, tuple.Tuple{{}})
			}
			for _, op := range allOps {
				for _, x := range cellDomain {
					p := Predicate{Col: 0, Op: op, Val: x, Vals: []value.Value{x}}
					checkSelect(t, rows, 1, []Predicate{p}, nil)
				}
			}
		}
	}
}

func TestSelectColsOverView(t *testing.T) {
	// Scans run the kernel over windows of a block image; row indices
	// are window-relative and bitmaps are re-based.
	rng := rand.New(rand.NewSource(2))
	n := 300
	col := colShape(rng, n)
	for col[0].IsNull() { // want a typed column with NULLs
		col = colShape(rng, n)
	}
	img := tuple.NewColumns(1)
	for _, v := range col {
		img.AppendRow(tuple.Tuple{v})
	}
	for _, x := range cellDomain {
		p := []Predicate{NewCmp(0, LE, x)}
		var win tuple.Columns
		win.View(img, 128, n)
		got := SelectCols(p, &win, nil)
		var want []int32
		for i := 128; i < n; i++ {
			if p[0].Matches(tuple.Tuple{col[i]}) {
				want = append(want, int32(i-128))
			}
		}
		if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("LE %v over window: got %v want %v", x, got, want)
		}
	}
}

// FuzzSelectCols decodes bytes into a small table and a conjunction
// (each byte picks a cell, an op or an operand from the domains above)
// and requires SelectCols ≡ MatchesAll.
func FuzzSelectCols(f *testing.F) {
	f.Add([]byte{2, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 0, 2, 5})
	f.Add([]byte{1, 9, 5, 5, 0, 7, 8, 9, 10, 11, 5, 1, 2, 3, 5, 6})
	f.Add([]byte{3, 4, 12, 13, 0, 14, 15, 16, 17, 18, 19, 20, 0, 0, 1, 6, 4, 1, 2, 3, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		ncols := 1 + next()%3
		n := next() % 70
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = make(tuple.Tuple, ncols)
			for c := range rows[i] {
				rows[i][c] = cellDomain[next()%len(cellDomain)]
			}
		}
		preds := make([]Predicate, next()%4)
		for i := range preds {
			p := Predicate{Col: next() % ncols, Op: allOps[next()%len(allOps)]}
			p.Val = cellDomain[next()%len(cellDomain)]
			if p.Op == In {
				for k := next() % 3; k > 0; k-- {
					p.Vals = append(p.Vals, cellDomain[next()%len(cellDomain)])
				}
			}
			preds[i] = p
		}
		var sel []int32
		if next()%2 == 1 {
			sel = []int32{}
			for i := 0; i < n; i++ {
				if next()%2 == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		checkSelect(t, rows, ncols, preds, sel)
	})
}

// benchRows is a TPC-H-like 1024-row batch (date, quantity, discount,
// ship mode) and a q6-style conjunction over it.
func benchRows() ([]tuple.Tuple, []Predicate) {
	rng := rand.New(rand.NewSource(1))
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	rows := make([]tuple.Tuple, 1024)
	for i := range rows {
		rows[i] = tuple.Tuple{
			value.NewDate(int64(8000 + rng.Intn(2500))),
			value.NewInt(int64(1 + rng.Intn(50))),
			value.NewFloat(float64(rng.Intn(11)) / 100),
			value.NewString(modes[rng.Intn(len(modes))]),
		}
	}
	preds := []Predicate{
		NewCmp(0, GE, value.NewDate(8766)), NewCmp(0, LT, value.NewDate(9131)),
		NewCmp(2, GE, value.NewFloat(0.05)), NewCmp(2, LE, value.NewFloat(0.07)),
		NewCmp(1, LT, value.NewInt(24)), NewCmp(3, NE, value.NewString("AIR")),
	}
	return rows, preds
}

func BenchmarkSelectCols(b *testing.B) {
	rows, preds := benchRows()
	c := tuple.NewColumns(len(rows[0]))
	c.AppendRows(rows)
	var sel []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = SelectCols(preds, c, sel[:0])
	}
}

func BenchmarkMatchesAllRows(b *testing.B) {
	rows, preds := benchRows()
	var sel []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = sel[:0]
		for j, r := range rows {
			if MatchesAll(preds, r) {
				sel = append(sel, int32(j))
			}
		}
	}
}
