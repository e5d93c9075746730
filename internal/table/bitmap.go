// Package table implements the columnar relational engine underlying nexus:
// typed columns with validity bitmaps, filtering, projection, grouping with
// aggregation, hash joins, sorting and CSV serialization. It is the single
// data substrate shared by query execution, attribute extraction and the
// information-theoretic estimators.
package table

// Bitmap is a packed validity/selection bitmap.
type Bitmap struct {
	bits []uint64
	n    int
}

// NewBitmap returns a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.bits {
		c += popcount(w)
	}
	return c
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{bits: make([]uint64, len(b.bits)), n: b.n}
	copy(c.bits, b.bits)
	return c
}

// Append grows the bitmap by one bit with the given value.
func (b *Bitmap) Append(v bool) {
	if b.n%64 == 0 {
		b.bits = append(b.bits, 0)
	}
	if v {
		b.bits[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
	b.n++
}

func popcount(x uint64) int {
	// Hacker's Delight population count.
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int((x * 0x0101010101010101) >> 56)
}
