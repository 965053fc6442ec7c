package packet

import (
	"encoding/binary"
	"math/bits"
)

// Bitmap is the selective-repeat acknowledgment bitmap of Figure 5.
// Bit i corresponds to SDU sequence number i within a session; following
// the paper's convention, a set bit means the SDU was received in error
// (or not at all) and must be retransmitted, and a clear bit means
// "receive OK". A receiver initialises every bit to 1 and clears bits as
// SDUs arrive; an all-zero bitmap therefore acknowledges the complete
// message.
//
// The bitmap is stored as its own wire image — a 4-byte SDU count
// followed by the bits packed into big-endian 64-bit words — so neither
// direction stages a copy: a receiver's ACK body is Bytes(), storage it
// reuses across messages through Reset, and a sender reads an arriving
// ACK body in place through Decode. A Bitmap is ready for use after
// Reset or Decode.
type Bitmap struct {
	n   int
	enc []byte // 4-byte count, then ceil(n/64) big-endian words
}

// bitmapSize is the encoded length of an n-slot bitmap.
func bitmapSize(n int) int { return 4 + 8*((n+63)/64) }

// NewBitmap returns a bitmap for n SDUs with every bit set (nothing yet
// received), matching the receiver initialisation in Figure 6.
func NewBitmap(n int) *Bitmap {
	b := new(Bitmap)
	b.Reset(n)
	return b
}

// Reset re-initialises the bitmap for n SDUs with every bit set,
// reusing its storage when it is large enough.
func (b *Bitmap) Reset(n int) {
	size := bitmapSize(n)
	if cap(b.enc) < size {
		b.enc = make([]byte, size)
	}
	b.n, b.enc = n, b.enc[:size]
	binary.BigEndian.PutUint32(b.enc, uint32(n))
	for off, left := 4, n; off < size; off, left = off+8, left-64 {
		w := ^uint64(0)
		if left < 64 {
			w = 1<<left - 1
		}
		binary.BigEndian.PutUint64(b.enc[off:], w)
	}
}

// ResetAcked is Reset with every bit clear — all n SDUs received: the
// body of the acknowledgment that completes a session.
func (b *Bitmap) ResetAcked(n int) {
	b.Reset(n)
	clear(b.enc[4:])
}

// Decode points the bitmap at the encoded ACK body p, which it then
// ALIASES rather than copies: the bitmap is valid for as long as p is.
func (b *Bitmap) Decode(p []byte) error {
	if len(p) < 4 {
		return ErrShortPacket
	}
	n := int(binary.BigEndian.Uint32(p))
	if n < 0 || len(p) < bitmapSize(n) { // n < 0: 32-bit int overflow
		return ErrShortPacket
	}
	b.n, b.enc = n, p[:bitmapSize(n)]
	return nil
}

// UnmarshalBitmap decodes a bitmap from an ACK body, which the result
// aliases (see Decode).
func UnmarshalBitmap(p []byte) (*Bitmap, error) {
	b := new(Bitmap)
	if err := b.Decode(p); err != nil {
		return nil, err
	}
	return b, nil
}

// Bytes returns the encoded bitmap — the body of an ACK control packet.
// The slice is the bitmap's own storage: it changes with the bitmap and
// is only borrowed by the caller.
func (b *Bitmap) Bytes() []byte { return b.enc }

// AppendTo appends the encoded bitmap to dst and returns the result.
func (b *Bitmap) AppendTo(dst []byte) []byte { return append(dst, b.enc...) }

// Len reports the number of SDU slots tracked.
func (b *Bitmap) Len() int { return b.n }

// word returns the storage of the 64-bit word holding bit i.
func (b *Bitmap) word(i int) []byte { return b.enc[4+8*(i/64):] }

// Set marks SDU i as missing/errored. Out-of-range indices are ignored.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	w := b.word(i)
	binary.BigEndian.PutUint64(w, binary.BigEndian.Uint64(w)|1<<(i%64))
}

// Clear marks SDU i as received OK. Out-of-range indices are ignored.
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	w := b.word(i)
	binary.BigEndian.PutUint64(w, binary.BigEndian.Uint64(w)&^(1<<(i%64)))
}

// Get reports whether SDU i is still missing.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return binary.BigEndian.Uint64(b.word(i))&(1<<(i%64)) != 0
}

// AnySet reports whether any SDU is still missing — the "Bitmap > 0"
// test in the pseudo code of Figure 6.
func (b *Bitmap) AnySet() bool { return b.NextSet(0) >= 0 }

// NextSet returns the lowest missing sequence number ≥ from, or -1 when
// there is none, so callers walk the missing set without materialising
// it:
//
//	for seq := b.NextSet(0); seq >= 0; seq = b.NextSet(seq + 1) { ... }
//
// Bits at or beyond Len are never reported, even when a peer set them.
func (b *Bitmap) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < b.n; i = (i/64 + 1) * 64 {
		if w := binary.BigEndian.Uint64(b.word(i)) >> (i % 64); w != 0 {
			if seq := i + bits.TrailingZeros64(w); seq < b.n {
				return seq
			}
			return -1
		}
	}
	return -1
}

// Missing returns the sequence numbers still marked missing, in order.
func (b *Bitmap) Missing() []int {
	var out []int
	for seq := b.NextSet(0); seq >= 0; seq = b.NextSet(seq + 1) {
		out = append(out, seq)
	}
	return out
}

// CountSet returns the number of missing SDUs.
func (b *Bitmap) CountSet() int {
	c := 0
	for seq := b.NextSet(0); seq >= 0; seq = b.NextSet(seq + 1) {
		c++
	}
	return c
}
