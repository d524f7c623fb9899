package exec

import (
	"context"
	"errors"
	"hash/fnv"
	"testing"

	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

// TestDigestBitIdentical pins the result digest's value: the sum of
// 64-bit FNV-1a hashes of each row's binary encoding, whether the rows
// arrive materialized or as a columnar batch behind a selection vector.
func TestDigestBitIdentical(t *testing.T) {
	var rows []tuple.Tuple
	for i := int64(0); i < 50; i++ {
		r := tuple.Tuple{value.NewInt(i * 7), value.NewFloat(float64(i) / 3), value.NewString(string(rune('a' + i%26)))}
		if i%9 == 0 {
			r[1] = value.Value{} // NULL
		}
		rows = append(rows, r)
	}
	var sel []int32
	var kept []tuple.Tuple
	for i := range rows {
		if i%3 != 1 {
			sel = append(sel, int32(i))
			kept = append(kept, rows[i])
		}
	}
	var want uint64
	for _, r := range kept {
		h := fnv.New64a()
		h.Write(r.AppendBinary(nil))
		want += h.Sum64()
	}
	if got := DigestRows(kept); got != want {
		t.Fatalf("DigestRows = %016x, want %016x", got, want)
	}

	b := NewColBatch(3)
	for _, r := range rows {
		b.AppendColRow(r)
	}
	b.Cols().SetSel(sel)
	var d Digest
	if err := d.Add(b); err != nil {
		t.Fatal(err)
	}
	if b.Cols() == nil {
		t.Fatal("digesting materialized the columnar batch")
	}
	if d.Sum != want {
		t.Fatalf("columnar digest %016x, want %016x", d.Sum, want)
	}
	b.Release()
}

// TestDrainStopsOnCancel: a context cancelled by the sink stops the
// drain at the next batch boundary with ctx.Err().
func TestDrainStopsOnCancel(t *testing.T) {
	rows := make([]tuple.Tuple, 3*DefaultBatchSize)
	for i := range rows {
		rows[i] = tuple.Tuple{value.NewInt(int64(i))}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	n, err := Drain(ctx, NewSource(rows), func(*Batch) error {
		batches++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || batches != 1 || n != DefaultBatchSize {
		t.Fatalf("Drain = %d rows, %d batches, %v; want %d rows, 1 batch, context.Canceled", n, batches, err, DefaultBatchSize)
	}
}
