package block

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"adaptdb/internal/predicate"
	"adaptdb/internal/schema"
	"adaptdb/internal/tuple"
	"adaptdb/internal/value"
)

var sch = schema.MustNew(
	schema.Column{Name: "k", Kind: value.Int},
	schema.Column{Name: "p", Kind: value.Float},
	schema.Column{Name: "s", Kind: value.String},
)

func row(k int64, p float64, s string) tuple.Tuple {
	return tuple.Tuple{value.NewInt(k), value.NewFloat(p), value.NewString(s)}
}

func TestZoneMapMaintenance(t *testing.T) {
	b := New(sch)
	if b.Len() != 0 {
		t.Fatalf("new block not empty")
	}
	b.Append(row(5, 2.5, "m"))
	b.Append(row(1, 9.5, "z"))
	b.Append(row(8, 0.5, "a"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Min(0).Int64() != 1 || b.Max(0).Int64() != 8 {
		t.Errorf("int zone map wrong: [%v, %v]", b.Min(0), b.Max(0))
	}
	if b.Min(1).Float64() != 0.5 || b.Max(1).Float64() != 9.5 {
		t.Errorf("float zone map wrong")
	}
	if b.Min(2).Str() != "a" || b.Max(2).Str() != "z" {
		t.Errorf("string zone map wrong")
	}
}

func TestZoneMapIgnoresNulls(t *testing.T) {
	b := New(sch)
	b.Append(tuple.Tuple{value.NewInt(5), {}, value.NewString("x")})
	b.Append(tuple.Tuple{value.NewInt(3), {}, value.NewString("y")})
	if !b.Min(1).IsNull() {
		t.Errorf("all-null column should have null min")
	}
	if !b.Range(1).Empty() {
		t.Errorf("all-null column range should be empty")
	}
	if b.Min(0).Int64() != 3 {
		t.Errorf("non-null column unaffected")
	}
}

func TestRange(t *testing.T) {
	b := New(sch)
	if !b.Range(0).Empty() {
		t.Errorf("empty block should have empty range")
	}
	b.Append(row(10, 1, "a"))
	b.Append(row(20, 1, "a"))
	r := b.Range(0)
	if !r.Contains(value.NewInt(10)) || !r.Contains(value.NewInt(20)) || !r.Contains(value.NewInt(15)) {
		t.Errorf("range should span [10,20]: %v", r)
	}
	if r.Contains(value.NewInt(9)) || r.Contains(value.NewInt(21)) {
		t.Errorf("range too wide: %v", r)
	}
	if !b.Range(99).Empty() {
		t.Errorf("out-of-range column should be empty range")
	}
}

func TestMaybeMatches(t *testing.T) {
	b := New(sch)
	b.Append(row(10, 5, "a"))
	b.Append(row(20, 6, "b"))
	match := predicate.ColumnRanges([]predicate.Predicate{
		predicate.NewCmp(0, GEQ(), value.NewInt(15)),
	})
	if !b.MaybeMatches(match) {
		t.Errorf("block overlapping predicate range should match")
	}
	miss := predicate.ColumnRanges([]predicate.Predicate{
		predicate.NewCmp(0, GEQ(), value.NewInt(100)),
	})
	if b.MaybeMatches(miss) {
		t.Errorf("block outside predicate range should not match")
	}
	if New(sch).MaybeMatches(nil) {
		t.Errorf("empty block should never match")
	}
}

func GEQ() predicate.Op { return predicate.GE }

// Property: MaybeMatches never prunes a block containing a matching
// tuple (soundness of zone maps).
func TestMaybeMatchesSoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(sch)
		var rows []tuple.Tuple
		for i := 0; i < 1+rng.Intn(20); i++ {
			tp := row(rng.Int63n(100), rng.Float64()*100, string(rune('a'+rng.Intn(26))))
			rows = append(rows, tp)
			b.Append(tp)
		}
		ops := []predicate.Op{predicate.EQ, predicate.LT, predicate.LE, predicate.GT, predicate.GE}
		preds := []predicate.Predicate{
			predicate.NewCmp(0, ops[rng.Intn(len(ops))], value.NewInt(rng.Int63n(100))),
			predicate.NewCmp(1, ops[rng.Intn(len(ops))], value.NewFloat(rng.Float64()*100)),
		}
		anyMatch := false
		for _, tp := range rows {
			if predicate.MatchesAll(preds, tp) {
				anyMatch = true
				break
			}
		}
		if anyMatch && !b.MaybeMatches(predicate.ColumnRanges(preds)) {
			return false // pruned a block with matches: unsound
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaOf(t *testing.T) {
	b := New(sch)
	b.Append(row(10, 5, "a"))
	b.Append(row(20, 6, "b"))
	m := MetaOf(7, b)
	if m.ID != 7 || m.Count != 2 {
		t.Errorf("meta header wrong: %+v", m)
	}
	if m.Range(0).String() != b.Range(0).String() {
		t.Errorf("meta range != block range")
	}
	miss := predicate.ColumnRanges([]predicate.Predicate{predicate.NewCmp(0, predicate.GT, value.NewInt(50))})
	if m.MaybeMatches(miss) {
		t.Errorf("meta should prune like the block")
	}
	empty := MetaOf(1, New(sch))
	if empty.MaybeMatches(nil) {
		t.Errorf("empty meta should never match")
	}
	if !empty.Range(0).Empty() {
		t.Errorf("empty meta range should be empty")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	b := New(sch)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		b.Append(row(rng.Int63n(1000), rng.Float64(), "str"))
	}
	buf := b.AppendBinary(nil)
	got, err := Decode(buf, sch)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != b.Len() {
		t.Fatalf("Len: got %d want %d", got.Len(), b.Len())
	}
	for i := range b.Tuples {
		for c := range b.Tuples[i] {
			if value.Compare(got.Tuples[i][c], b.Tuples[i][c]) != 0 {
				t.Fatalf("tuple %d col %d mismatch", i, c)
			}
		}
	}
	// Zone maps rebuilt identically.
	for c := 0; c < sch.NumCols(); c++ {
		if value.Compare(got.Min(c), b.Min(c)) != 0 || value.Compare(got.Max(c), b.Max(c)) != 0 {
			t.Errorf("zone map col %d differs after decode", c)
		}
	}
}

// TestDecodeInternsStrings pins the scan decode path's intern wiring:
// the same short string decoded in many rows shares ONE backing
// allocation, instead of one per occurrence.
func TestDecodeInternsStrings(t *testing.T) {
	b := New(sch)
	for i := 0; i < 50; i++ {
		b.Append(row(int64(i), 0, "DELIVER IN PERSON"))
	}
	got, err := Decode(b.AppendBinary(nil), sch)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	first := got.Tuples[0][2].S
	for i := range got.Tuples {
		s := got.Tuples[i][2].S
		if s != "DELIVER IN PERSON" {
			t.Fatalf("row %d decoded %q", i, s)
		}
		if unsafe.StringData(s) != unsafe.StringData(first) {
			t.Fatalf("row %d's string has its own allocation — decode not interned", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{0xFF, 0xFF}, sch); err == nil {
		t.Errorf("bad magic accepted")
	}
	b := New(sch)
	b.Append(row(1, 1, "x"))
	buf := b.AppendBinary(nil)
	if _, err := Decode(buf[:len(buf)-2], sch); err == nil {
		t.Errorf("truncated block accepted")
	}
}

func TestSerializeEmpty(t *testing.T) {
	buf := New(sch).AppendBinary(nil)
	got, err := Decode(buf, sch)
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip has %d tuples", got.Len())
	}
}

// imageEncoding returns each image row's binary encoding, which is
// bit-exact (NULLs and NaN payloads included) and equals the tuple's.
func imageEncoding(c *tuple.Columns) [][]byte {
	out := make([][]byte, c.FullLen())
	for i := range out {
		out[i] = c.AppendRowBinary(nil, i)
	}
	return out
}

// checkImage fails unless the block's image is exactly its Tuples.
func checkImage(t *testing.T, b *Block) {
	t.Helper()
	img := b.Columns()
	if img.FullLen() != b.Len() {
		t.Fatalf("image has %d rows, block %d", img.FullLen(), b.Len())
	}
	for i, r := range b.Tuples {
		if got, want := img.AppendRowBinary(nil, i), r.AppendBinary(nil); string(got) != string(want) {
			t.Fatalf("image row %d = %x, want %x", i, got, want)
		}
	}
}

// randRow draws rows whose columns stay typed, carry NULLs and NaNs,
// or (column 2, now and then) switch kind and demote to boxed.
func randRow(rng *rand.Rand) tuple.Tuple {
	r := row(rng.Int63n(50), float64(rng.Intn(8))/2, string(rune('a'+rng.Intn(5))))
	switch rng.Intn(12) {
	case 0:
		r[rng.Intn(3)] = value.Value{}
	case 1:
		r[1] = value.NewFloat(math.NaN())
	case 2:
		r[2] = value.NewInt(7)
	}
	return r
}

func TestImageTracksAppends(t *testing.T) {
	// Random interleavings of Append and scans: the image grown in place
	// must always equal a fresh transpose of Tuples, and every window a
	// scan took earlier must still show the rows it saw.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		b := New(sch)
		type window struct {
			v    *tuple.Columns
			want [][]byte
		}
		var wins []window
		for step := rng.Intn(400); step > 0; step-- {
			b.Append(randRow(rng))
			if rng.Intn(40) == 0 {
				checkImage(t, b)
				img := b.Columns()
				lo := 64 * rng.Intn(img.FullLen()/64+1)
				w := new(tuple.Columns)
				w.View(img, lo, img.FullLen())
				wins = append(wins, window{w, imageEncoding(w)})
			}
		}
		checkImage(t, b)
		for k, w := range wins {
			if got := imageEncoding(w.v); !slices.EqualFunc(got, w.want, bytes.Equal) {
				t.Fatalf("iter %d: window %d changed after later appends", iter, k)
			}
		}
	}
}

func TestImageBuiltOnceAndShared(t *testing.T) {
	b := New(sch)
	for i := 0; i < 300; i++ {
		b.Append(row(int64(i), float64(i), "s"))
	}
	img := b.Columns()
	if b.Columns() != img {
		t.Fatal("second Columns call rebuilt the image")
	}
	b.Append(row(1, 1, "t"))
	if b.Columns() != img || img.FullLen() != 301 {
		t.Fatal("Append threw the image away instead of growing it")
	}
	var zero Block
	if zero.Columns().FullLen() != 0 {
		t.Fatal("zero block has a non-empty image")
	}
}

func TestImageConcurrentBuild(t *testing.T) {
	// Concurrent first scans each may build an image; all must end up
	// sharing the published one. Run under -race.
	b := New(sch)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		b.Append(randRow(rng))
	}
	const n = 8
	got := make([]*tuple.Columns, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = b.Columns()
			imageEncoding(got[g]) // read it while others may still build
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d adopted a different image", g)
		}
	}
	checkImage(t, b)
}
