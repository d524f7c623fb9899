package exec

import "adaptdb/internal/tuple"

// Digest is the order-independent digest of a result multiset: the
// sum of the 64-bit FNV-1a hashes of every row's binary encoding. Equal
// multisets yield equal sums whatever order their rows arrive in, so
// parallel, concurrent, spilled and networked runs compare directly.
// Columnar batches are hashed through Columns.AppendRowBinary, which is
// byte-identical to the row encoding, so digesting them never boxes a
// value.
type Digest struct {
	Sum uint64
	enc []byte
}

// Add folds a batch into the digest; usable directly as a Drain sink.
func (d *Digest) Add(b *Batch) error {
	if cb := b.Cols(); cb != nil {
		sel := cb.Sel()
		for k, n := 0, cb.Len(); k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			d.enc = cb.AppendRowBinary(d.enc[:0], i)
			d.fold()
		}
		return nil
	}
	d.AddRows(b.Rows())
	return nil
}

// AddRows folds materialized rows into the digest.
func (d *Digest) AddRows(rows []tuple.Tuple) {
	for _, r := range rows {
		d.enc = r.AppendBinary(d.enc[:0])
		d.fold()
	}
}

// DigestRows is the digest of a materialized result.
func DigestRows(rows []tuple.Tuple) uint64 {
	var d Digest
	d.AddRows(rows)
	return d.Sum
}

func (d *Digest) fold() {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range d.enc {
		h ^= uint64(c)
		h *= prime
	}
	d.Sum += h // commutative: row order cannot matter
}
