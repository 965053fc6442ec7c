// Package xdr implements an External Data Representation codec in the
// style of RFC 1832. It is the conversion layer used when two endpoints
// of a connection do not share a native data representation — exactly the
// role XDR played for PVM (which encodes by default) and for MPI
// implementations exchanging typed data between heterogeneous hosts.
//
// All quantities are encoded big-endian and padded to 4-byte boundaries,
// matching the XDR standard. The Encoder/Decoder pair is deliberately
// allocation-conscious: hot paths in the baselines call it per message.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// ErrShortBuffer is returned when a Decoder runs out of input bytes.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrStringTooLong is returned when a string exceeds the XDR maximum.
	ErrStringTooLong = errors.New("xdr: string exceeds maximum length")
)

// maxLen bounds variable-length items (strings, opaque data). XDR proper
// allows 2^32-1; we keep it at 1 GiB to fail fast on corrupt headers.
const maxLen = 1 << 30

// Encoder appends XDR-encoded values to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded buffer. The slice aliases the Encoder's
// internal storage; it is valid until the next call to an encode method
// or Reset.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutInt32 encodes a 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 encodes a 64-bit unsigned integer (XDR "unsigned hyper").
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutInt64 encodes a 64-bit signed integer (XDR "hyper").
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutBool encodes a boolean as an XDR enum (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
		return
	}
	e.PutUint32(0)
}

// PutFloat32 encodes an IEEE-754 single-precision float.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 encodes an IEEE-754 double-precision float.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutOpaque encodes variable-length opaque data: a 4-byte length followed
// by the bytes, zero-padded to a 4-byte boundary.
func (e *Encoder) PutOpaque(p []byte) {
	e.PutUint32(uint32(len(p)))
	e.buf = append(e.buf, p...)
	e.pad(len(p))
}

// PutFixedOpaque encodes fixed-length opaque data (no length prefix),
// zero-padded to a 4-byte boundary.
func (e *Encoder) PutFixedOpaque(p []byte) {
	e.buf = append(e.buf, p...)
	e.pad(len(p))
}

// PutString encodes a string as XDR opaque data.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.pad(len(s))
}

// PutInt32Slice encodes a counted array of 32-bit integers.
func (e *Encoder) PutInt32Slice(vs []int32) {
	e.PutUint32(uint32(len(vs)))
	for _, v := range vs {
		e.PutInt32(v)
	}
}

// PutFloat64Slice encodes a counted array of doubles.
func (e *Encoder) PutFloat64Slice(vs []float64) {
	e.PutUint32(uint32(len(vs)))
	for _, v := range vs {
		e.PutFloat64(v)
	}
}

func (e *Encoder) pad(n int) {
	for ; n%4 != 0; n++ {
		e.buf = append(e.buf, 0)
	}
}

// Decoder consumes XDR-encoded values from a byte slice.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a Decoder reading from p. The Decoder does not copy
// p; the caller must not mutate it during decoding.
func NewDecoder(p []byte) *Decoder { return &Decoder{buf: p} }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset reports the number of bytes read so far: where the next value
// starts in p.
func (d *Decoder) Offset() int { return d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("xdr: invalid bool value %d", v)
	}
}

// Float32 decodes a single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 decodes a double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// Opaque decodes variable-length opaque data. The returned slice aliases
// the Decoder's input.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, ErrStringTooLong
	}
	return d.fixed(int(n))
}

// FixedOpaque decodes n bytes of fixed-length opaque data.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) { return d.fixed(n) }

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	p, err := d.Opaque()
	return string(p), err
}

// Int32Slice decodes a counted array of 32-bit integers.
func (d *Decoder) Int32Slice() ([]int32, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n)*4 > d.Remaining() {
		return nil, ErrShortBuffer
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i], err = d.Int32()
		if err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// Float64Slice decodes a counted array of doubles.
func (d *Decoder) Float64Slice() ([]float64, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n)*8 > d.Remaining() {
		return nil, ErrShortBuffer
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i], err = d.Float64()
		if err != nil {
			return nil, err
		}
	}
	return vs, nil
}

func (d *Decoder) fixed(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrShortBuffer
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	// Skip the zero padding to the 4-byte boundary.
	padded := (n + 3) &^ 3
	if d.Remaining() < padded-n {
		return nil, ErrShortBuffer
	}
	d.off += padded - n
	return p, nil
}
