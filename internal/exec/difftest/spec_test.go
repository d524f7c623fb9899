package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"adaptdb/internal/predicate"
	"adaptdb/internal/query"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// acceptanceCase is the pinned end-to-end grouped-aggregate scenario:
// three joined tables, a pushdown predicate, a group-by, and three
// aggregates — the shape the PR-9 acceptance matrix replays at every
// budget × node-count combination.
func acceptanceCase() SpecCase {
	rng := rand.New(rand.NewSource(9))
	mk := func(name string, ncols, n int, keyRange int64) SpecTable {
		cols := make([]schema.Column, ncols)
		for i := range cols {
			cols[i] = schema.Column{Name: fmt.Sprintf("%s_c%d", name, i), Kind: value.Int}
		}
		sch := schema.MustNew(cols...)
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			r := make(tuple.Tuple, ncols)
			for c := range r {
				if rng.Intn(16) == 0 {
					r[c] = value.Value{}
				} else {
					r[c] = value.NewInt(rng.Int63n(keyRange))
				}
			}
			rows[i] = r
		}
		return SpecTable{Name: name, Sch: sch, Rows: rows}
	}
	fact := mk("fact", 3, 150, 60)
	dim1 := mk("dim1", 2, 50, 60)
	dim1.Preds = []predicate.Predicate{predicate.NewCmp(1, predicate.LT, value.NewInt(40))}
	dim2 := mk("dim2", 2, 10, 60)
	// Small group domain so every budget/node combination sees several
	// multi-row groups.
	for i, r := range dim2.Rows {
		r[1] = value.NewInt(int64(i % 4))
	}
	return SpecCase{
		Seed:   9,
		Tables: []SpecTable{fact, dim1, dim2},
		Spec: query.Spec{
			Label: "acceptance",
			Tables: []query.TableRef{
				{Name: "fact"},
				{Name: "dim1", Preds: []query.Pred{{Col: "dim1_c1", Op: predicate.LT, Val: value.NewInt(40)}}},
				{Name: "dim2"},
			},
			Joins: []query.JoinEdge{
				query.On(query.C("fact", "fact_c0"), query.C("dim1", "dim1_c0")),
				query.On(query.C("dim1", "dim1_c1"), query.C("dim2", "dim2_c0")),
			},
			GroupBy: []query.Col{query.C("dim2", "dim2_c1")},
			Aggs: []query.Agg{
				query.Count(),
				query.Sum(query.C("fact", "fact_c1")),
				query.Min(query.C("fact", "fact_c2")),
			},
		},
	}
}

// TestSpecAcceptance is the PR-9 acceptance matrix: the pinned 3-table
// grouped-aggregate query must come back bit-identical to the
// reference through both session and serve at {unlimited, build/8}
// memory budgets × {1, 4} node executors.
func TestSpecAcceptance(t *testing.T) {
	base := acceptanceCase()

	// Guard the scenario itself: the reference must see real data — a
	// non-trivial join with several multi-row groups — or the matrix
	// would vacuously pass on an empty result.
	_, cat, err := loadSpecTables(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Spec.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if ref := RefSpec(base, b); len(ref) < 2 {
		t.Fatalf("acceptance case degenerated: %d reference groups", len(ref))
	}

	for _, budget := range []int64{0, base.rowBytes() / 8} {
		for _, nodes := range []int{1, 4} {
			c := base
			c.Budget = budget
			t.Run(fmt.Sprintf("budget=%d/nodes=%d", budget, nodes), func(t *testing.T) {
				if err := RunSpecCase(specInTemp(t, c), nodes); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestSpecQuick replays a fixed band of generated spec cases on one
// node, asserting the band covers every structural feature the
// generator can emit (so a generator regression cannot silently shrink
// coverage).
func TestSpecQuick(t *testing.T) {
	var grouped, global, plain, budgeted, multiAttr, extraEdge int
	for seed := int64(1); seed <= 48; seed++ {
		c := GenSpecCase(seed)
		switch {
		case len(c.Spec.GroupBy) > 0:
			grouped++
		case len(c.Spec.Aggs) > 0:
			global++
		default:
			plain++
		}
		if c.Budget > 0 {
			budgeted++
		}
		for _, e := range c.Spec.Joins {
			if len(e.Left) > 1 {
				multiAttr++
			}
		}
		if len(c.Spec.Joins) > len(c.Tables)-1 {
			extraEdge++
		}
		if err := RunSpecCase(specInTemp(t, c), 1); err != nil {
			t.Error(err)
		}
	}
	for name, n := range map[string]int{
		"grouped": grouped, "global": global, "plain": plain,
		"budgeted": budgeted, "multi-attribute edge": multiAttr, "cyclic/extra edge": extraEdge,
	} {
		if n == 0 {
			t.Errorf("quick band never generated a %s case", name)
		}
	}
}

// TestSpecQuickDistributed replays a narrower band through 4 node
// executors — exchanges, per-node budget shares, and the greedy order
// lowered over a multi-node store.
func TestSpecQuickDistributed(t *testing.T) {
	for seed := int64(300); seed <= 310; seed++ {
		if err := RunSpecCase(specInTemp(t, GenSpecCase(seed)), 4); err != nil {
			t.Error(err)
		}
	}
}

// FuzzSpecDifferential lets go fuzz drive the spec-case seed space.
func FuzzSpecDifferential(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := RunSpecCase(specInTemp(t, GenSpecCase(seed)), 1); err != nil {
			t.Error(err)
		}
	})
}
