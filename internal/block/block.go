// Package block implements AdaptDB data blocks: the unit of storage,
// partitioning and I/O accounting. A block holds a batch of tuples plus a
// zone map (per-attribute min/max). Zone maps serve two roles from the
// paper: they are the Ranget(x) function hyper-join uses to compute
// overlap vectors (§4.1.1), and they let scans skip blocks whose ranges
// cannot satisfy a query's predicates.
package block

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// ID identifies a block within one table. IDs are dense and assigned by
// the table's partitioning tree (leaf ids) or by the repartitioner.
type ID int32

// Block is an in-memory batch of rows with maintained zone maps. The zero
// Block is empty and usable.
//
// Besides its rows a block carries a columnar image of them (Columns),
// built on the first columnar scan and kept for every later one: blocks
// are written once and read by every query (§2, §6), so the row-to-
// column transpose is paid once per block instead of once per scan.
// Like Tuples, the image may be read concurrently but not while Append
// runs; migration (the only appender) never overlaps a scan of the
// same table.
type Block struct {
	Tuples []tuple.Tuple
	mins   []value.Value
	maxs   []value.Value
	img    atomic.Pointer[tuple.Columns]
}

// New returns an empty block sized for the given schema.
func New(s *schema.Schema) *Block {
	return &Block{
		mins: make([]value.Value, s.NumCols()),
		maxs: make([]value.Value, s.NumCols()),
	}
}

// Len returns the number of tuples.
func (b *Block) Len() int { return len(b.Tuples) }

// Append adds a tuple and folds it into the zone map.
func (b *Block) Append(t tuple.Tuple) {
	if len(b.mins) < len(t) {
		grown := make([]value.Value, len(t))
		copy(grown, b.mins)
		b.mins = grown
		grown = make([]value.Value, len(t))
		copy(grown, b.maxs)
		b.maxs = grown
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		if b.mins[i].IsNull() || value.Less(v, b.mins[i]) {
			b.mins[i] = v
		}
		if b.maxs[i].IsNull() || value.Less(b.maxs[i], v) {
			b.maxs[i] = v
		}
	}
	b.Tuples = append(b.Tuples, t)
	if img := b.img.Load(); img != nil {
		// Grow in place: views handed out earlier are capped at their
		// own length, so the new row lands outside every one of them.
		img.AppendRow(t)
	}
}

// Columns returns the block's columnar image: every row of Tuples, in
// order, as typed vectors. The image is built on first use — loading
// never pays for it — and is then shared by every scan; concurrent first
// callers may each build one, and all adopt whichever is published
// first. Callers must treat the image as read-only (tuple.Columns.View
// hands out windows that cannot write it).
func (b *Block) Columns() *tuple.Columns {
	if img := b.img.Load(); img != nil {
		return img
	}
	ncols := len(b.mins)
	if len(b.Tuples) > 0 {
		ncols = len(b.Tuples[0])
	}
	img := tuple.NewColumns(ncols)
	img.Reserve(len(b.Tuples))
	img.AppendRows(b.Tuples)
	if !b.img.CompareAndSwap(nil, img) {
		if won := b.img.Load(); won != nil {
			return won
		}
	}
	return img
}

// Range returns the zone-map interval of column col: the paper's
// Ranget(x). Empty blocks or all-null columns return an empty range so
// that an empty block never overlaps anything.
func (b *Block) Range(col int) predicate.Range {
	if b.Len() == 0 || col >= len(b.mins) || b.mins[col].IsNull() {
		return predicate.Range{HasLo: true, HasHi: true,
			Lo: value.NewInt(1), Hi: value.NewInt(0)} // provably empty
	}
	return predicate.Closed(b.mins[col], b.maxs[col])
}

// Min returns the zone-map minimum for col (Null if no data).
func (b *Block) Min(col int) value.Value {
	if col >= len(b.mins) {
		return value.Value{}
	}
	return b.mins[col]
}

// Max returns the zone-map maximum for col (Null if no data).
func (b *Block) Max(col int) value.Value {
	if col >= len(b.maxs) {
		return value.Value{}
	}
	return b.maxs[col]
}

// MaybeMatches reports whether the block could contain tuples satisfying
// the per-column ranges (from predicate.ColumnRanges). It must never
// return false for a block that contains a matching tuple.
func (b *Block) MaybeMatches(ranges map[int]predicate.Range) bool {
	if b.Len() == 0 {
		return false
	}
	for col, r := range ranges {
		if !b.Range(col).Overlaps(r) {
			return false
		}
	}
	return true
}

// Meta is the detached block metadata AdaptDB keeps in the partitioning
// tree / catalog: tuple count and zone map, without the data itself.
// The paper stores "the Ranget values for each block ... with each block
// in the partitioning tree"; Meta is that record.
type Meta struct {
	ID    ID
	Count int
	Mins  []value.Value
	Maxs  []value.Value
}

// MetaOf extracts the metadata of a block.
func MetaOf(id ID, b *Block) Meta {
	return Meta{
		ID:    id,
		Count: b.Len(),
		Mins:  append([]value.Value(nil), b.mins...),
		Maxs:  append([]value.Value(nil), b.maxs...),
	}
}

// Range returns the zone-map interval for col from detached metadata.
func (m Meta) Range(col int) predicate.Range {
	if m.Count == 0 || col >= len(m.Mins) || m.Mins[col].IsNull() {
		return predicate.Range{HasLo: true, HasHi: true,
			Lo: value.NewInt(1), Hi: value.NewInt(0)}
	}
	return predicate.Closed(m.Mins[col], m.Maxs[col])
}

// MaybeMatches is Block.MaybeMatches over detached metadata.
func (m Meta) MaybeMatches(ranges map[int]predicate.Range) bool {
	if m.Count == 0 {
		return false
	}
	for col, r := range ranges {
		if !m.Range(col).Overlaps(r) {
			return false
		}
	}
	return true
}

const serialMagic = uint32(0xADB10C)

// AppendBinary serializes the block (magic, tuple count, tuples). Zone
// maps are rebuilt on decode, so the on-disk format stays minimal, like
// HDFS blocks that carry no index.
func (b *Block) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(serialMagic))
	dst = binary.AppendUvarint(dst, uint64(len(b.Tuples)))
	for _, t := range b.Tuples {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = t.AppendBinary(dst)
	}
	return dst
}

// Decode parses a serialized block, rebuilding zone maps.
func Decode(src []byte, s *schema.Schema) (*Block, error) {
	magic, n := binary.Uvarint(src)
	if n <= 0 || uint32(magic) != serialMagic {
		return nil, fmt.Errorf("block: bad magic")
	}
	pos := n
	count, n := binary.Uvarint(src[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("block: bad tuple count")
	}
	pos += n
	b := New(s)
	for i := uint64(0); i < count; i++ {
		arity, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("block: tuple %d: bad arity", i)
		}
		pos += n
		t := make(tuple.Tuple, arity)
		for c := range t {
			// Interned decode: repeated short strings (flags, modes, names)
			// share one allocation across the whole decoded block set.
			v, vn, err := value.DecodeValueInterned(src[pos:])
			if err != nil {
				return nil, fmt.Errorf("block: tuple %d col %d: %w", i, c, err)
			}
			t[c] = v
			pos += vn
		}
		b.Append(t)
	}
	return b, nil
}
