package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDataHeaderRoundTrip(t *testing.T) {
	h := DataHeader{
		Flags:     FlagEnd | FlagRetransmit,
		ConnID:    7,
		SessionID: 1234,
		Seq:       42,
		Length:    4096,
	}
	buf := h.Marshal(nil)
	if len(buf) != DataHeaderSize {
		t.Fatalf("encoded size = %d, want %d", len(buf), DataHeaderSize)
	}
	got, err := UnmarshalDataHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if !got.End() {
		t.Error("End() = false, want true")
	}
}

func TestDataHeaderErrors(t *testing.T) {
	if _, err := UnmarshalDataHeader(make([]byte, 3)); err != ErrShortPacket {
		t.Errorf("short: err = %v", err)
	}
	bad := make([]byte, DataHeaderSize)
	if _, err := UnmarshalDataHeader(bad); err != ErrBadMagic {
		t.Errorf("zero magic: err = %v", err)
	}
}

func TestControlRoundTrip(t *testing.T) {
	c := Control{
		Type:      CtrlCredit,
		ConnID:    3,
		SessionID: 9,
		Body:      CreditBody(16),
	}
	buf := c.Marshal(nil)
	got, err := UnmarshalControl(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != c.Type || got.ConnID != c.ConnID || got.SessionID != c.SessionID {
		t.Fatalf("round trip header mismatch: %+v", got)
	}
	n, err := ParseCreditBody(got.Body)
	if err != nil || n != 16 {
		t.Fatalf("credits = %d, %v", n, err)
	}
}

func TestControlBodyTruncation(t *testing.T) {
	c := Control{Type: CtrlAck, Body: []byte{1, 2, 3, 4, 5}}
	buf := c.Marshal(nil)
	if _, err := UnmarshalControl(buf[:len(buf)-2]); err != ErrShortPacket {
		t.Errorf("truncated body: err = %v", err)
	}
}

func TestControlTypeString(t *testing.T) {
	tests := map[ControlType]string{
		CtrlAck:          "ACK",
		CtrlCredit:       "CREDIT",
		CtrlSetup:        "SETUP",
		CtrlAccept:       "ACCEPT",
		CtrlReject:       "REJECT",
		CtrlTeardown:     "TEARDOWN",
		CtrlRate:         "RATE",
		CtrlNack:         "NACK",
		CtrlWinAck:       "WINACK",
		ControlType(250): "ControlType(250)",
	}
	for ct, want := range tests {
		if got := ct.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint16(ct), got, want)
		}
	}
}

func TestBitmapLifecycle(t *testing.T) {
	b := NewBitmap(10)
	if !b.AnySet() {
		t.Fatal("fresh bitmap should have all bits set")
	}
	if b.CountSet() != 10 {
		t.Fatalf("CountSet = %d, want 10", b.CountSet())
	}
	for i := 0; i < 10; i++ {
		b.Clear(i)
	}
	if b.AnySet() {
		t.Fatalf("all cleared but AnySet; missing = %v", b.Missing())
	}
	b.Set(3)
	b.Set(7)
	missing := b.Missing()
	if len(missing) != 2 || missing[0] != 3 || missing[1] != 7 {
		t.Fatalf("Missing = %v, want [3 7]", missing)
	}
}

func TestBitmapOutOfRange(t *testing.T) {
	b := NewBitmap(4)
	b.Set(-1)
	b.Set(100)
	b.Clear(-5)
	b.Clear(99)
	if b.Get(-1) || b.Get(100) {
		t.Error("out-of-range Get should be false")
	}
	if b.CountSet() != 4 {
		t.Errorf("CountSet = %d, want 4", b.CountSet())
	}
}

func TestBitmapMarshal(t *testing.T) {
	b := NewBitmap(130) // spans three words
	b.Clear(0)
	b.Clear(64)
	b.Clear(129)
	got, err := UnmarshalBitmap(b.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 130 {
		t.Fatalf("Len = %d", got.Len())
	}
	for i := 0; i < 130; i++ {
		if got.Get(i) != b.Get(i) {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestBitmapUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalBitmap(nil); err != ErrShortPacket {
		t.Errorf("nil: err = %v", err)
	}
	b := NewBitmap(65)
	enc := b.AppendTo(nil)
	if _, err := UnmarshalBitmap(enc[:8]); err != ErrShortPacket {
		t.Errorf("truncated: err = %v", err)
	}
}

// Property: data headers round-trip for arbitrary field values.
func TestQuickDataHeader(t *testing.T) {
	f := func(flags uint16, conn, sess, seq, length uint32) bool {
		h := DataHeader{Flags: flags, ConnID: conn, SessionID: sess, Seq: seq, Length: length}
		got, err := UnmarshalDataHeader(h.Marshal(nil))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: control packets round-trip with arbitrary bodies.
func TestQuickControl(t *testing.T) {
	f := func(typ uint16, conn, sess uint32, body []byte) bool {
		c := Control{Type: ControlType(typ), ConnID: conn, SessionID: sess, Body: body}
		got, err := UnmarshalControl(c.Marshal(nil))
		return err == nil && got.Type == c.Type && got.ConnID == conn &&
			got.SessionID == sess && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a bitmap with bits cleared per a received-set reports exactly
// the complement as missing.
func TestQuickBitmapMissing(t *testing.T) {
	f := func(n uint8, received []uint8) bool {
		size := int(n%200) + 1
		b := NewBitmap(size)
		got := make(map[int]bool)
		for _, r := range received {
			i := int(r) % size
			b.Clear(i)
			got[i] = true
		}
		for _, m := range b.Missing() {
			if got[m] {
				return false // reported missing but was received
			}
		}
		return b.CountSet() == size-len(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBitmapCodecAllocatesNothing: a receiver re-initialises and
// encodes its bitmap in storage it keeps, and a sender decodes and
// walks an ack body in place — neither side allocates per ack.
func TestBitmapCodecAllocatesNothing(t *testing.T) {
	var rcv Bitmap
	rcv.Reset(130) // sizes the storage once
	dst := make([]byte, 0, 64)
	n := testing.AllocsPerRun(100, func() {
		rcv.Reset(130)
		for i := 0; i < 130; i++ {
			if i != 7 && i != 64 && i != 129 {
				rcv.Clear(i)
			}
		}
		dst = rcv.AppendTo(dst[:0])
		var snd Bitmap
		if err := snd.Decode(dst); err != nil {
			t.Fatal(err)
		}
		want := [...]int{7, 64, 129}
		k := 0
		for seq := snd.NextSet(0); seq >= 0; seq = snd.NextSet(seq + 1) {
			if k == len(want) || seq != want[k] {
				t.Fatalf("missing set walk reached %d at step %d, want %v", seq, k, want)
			}
			k++
		}
		if k != len(want) || !snd.AnySet() {
			t.Fatalf("walked %d missing SDUs, want %d", k, len(want))
		}
	})
	if n != 0 {
		t.Errorf("bitmap reset → encode → decode → walk = %v allocs, want 0", n)
	}
	// Decode aliases: the view tracks the body it was pointed at.
	var view Bitmap
	if err := view.Decode(rcv.Bytes()); err != nil {
		t.Fatal(err)
	}
	rcv.Clear(7)
	if view.Get(7) {
		t.Error("decoded bitmap did not alias the encoded body")
	}
}

// TestBitmapIgnoresBitsBeyondLen: a peer may set padding bits of the
// last word; they are not SDUs and must not read as missing.
func TestBitmapIgnoresBitsBeyondLen(t *testing.T) {
	enc := NewBitmap(3).AppendTo(nil)
	enc[4] = 0xff // the most significant byte of word 0: bits 56..63
	for i := 0; i < 3; i++ {
		enc[11] &^= 1 << i // clear the three real bits
	}
	var bm Bitmap
	if err := bm.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if bm.AnySet() || bm.NextSet(0) != -1 || bm.CountSet() != 0 || bm.Get(60) {
		t.Errorf("padding bits read as missing SDUs: next=%d count=%d", bm.NextSet(0), bm.CountSet())
	}
}
