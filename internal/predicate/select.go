package predicate

import (
	"cmp"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// SelectCols is MatchesAll over a columnar row set: it returns the
// physical indices of c's live rows (its selection, or every physical
// row when it has none) that satisfy every predicate, in order, written
// into dst's backing. dst may alias c.Sel() — each write trails the read
// it depends on — so a filter refines its selection in place.
//
// Each predicate is one tight loop over the surviving indices, compared
// on the column's flat typed vector: no row is boxed. Whatever those
// loops cannot decide exactly — In lists, mixed-kind (boxed) columns,
// columns holding NULLs — goes through the same per-value
// test Matches uses, so the result always equals MatchesAll on the
// materialized rows: NULL sorts below every value, NaN below every other
// float, and kinds order before payloads (value.Compare).
func SelectCols(preds []Predicate, c *tuple.Columns, dst []int32) []int32 {
	n := c.Len()
	if cap(dst) < n {
		dst = make([]int32, 0, n)
	}
	dst = dst[:n]
	if sel := c.Sel(); sel != nil {
		copy(dst, sel)
	} else {
		for i := range dst {
			dst[i] = int32(i)
		}
	}
	for _, p := range preds {
		if len(dst) == 0 {
			break
		}
		dst = selectOne(p, c.Col(p.Col), dst)
	}
	return dst
}

// selectOne keeps the rows of sel whose cell in v satisfies p,
// compacting sel in place.
func selectOne(p Predicate, v *tuple.ColVec, sel []int32) []int32 {
	// Kind is Null for boxed (mixed-kind) and all-NULL vectors alike.
	k := v.Kind()
	if p.Op == In || k == value.Null || v.Valid() != nil {
		return selectExact(p, v, sel)
	}
	if p.Val.K != k {
		// Different kinds compare by kind alone: one answer for all rows.
		if p.matchValue(value.Value{K: k}) {
			return sel
		}
		return sel[:0]
	}
	switch {
	case value.IntClass(k):
		return selectTyped(v.Ints(), p.Val.I, p.Op, sel)
	case k == value.Float:
		return selectTyped(v.Floats(), p.Val.F, p.Op, sel)
	default:
		return selectTyped(v.Strs(), p.Val.S, p.Op, sel)
	}
}

// selectExact is the per-value path: Matches' own comparison on each
// reconstructed cell.
func selectExact(p Predicate, v *tuple.ColVec, sel []int32) []int32 {
	k := 0
	for _, i := range sel {
		sel[k] = i
		if p.matchValue(v.Value(int(i))) {
			k++
		}
	}
	return sel[:k]
}

// selectTyped filters a same-kind vector against x. cmp.Compare orders
// each payload type exactly as value.Compare orders the kind: for
// floats, NaN equals NaN and sorts below every other float, and -0 == 0.
func selectTyped[T int64 | float64 | string](xs []T, x T, op Op, sel []int32) []int32 {
	k := 0
	switch op {
	case EQ:
		for _, i := range sel {
			sel[k] = i
			if cmp.Compare(xs[i], x) == 0 {
				k++
			}
		}
	case NE:
		for _, i := range sel {
			sel[k] = i
			if cmp.Compare(xs[i], x) != 0 {
				k++
			}
		}
	case LT:
		for _, i := range sel {
			sel[k] = i
			if cmp.Compare(xs[i], x) < 0 {
				k++
			}
		}
	case LE:
		for _, i := range sel {
			sel[k] = i
			if cmp.Compare(xs[i], x) <= 0 {
				k++
			}
		}
	case GT:
		for _, i := range sel {
			sel[k] = i
			if cmp.Compare(xs[i], x) > 0 {
				k++
			}
		}
	case GE:
		for _, i := range sel {
			sel[k] = i
			if cmp.Compare(xs[i], x) >= 0 {
				k++
			}
		}
	}
	return sel[:k]
}
