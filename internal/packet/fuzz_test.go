package packet

import (
	"bytes"
	"testing"
)

// Fuzz targets for the wire decoders. The decoders sit directly behind
// the receive loops, so arbitrary bytes from a corrupted or hostile
// peer reach them unfiltered: they must never panic, never return
// views outside the input, and decode/encode must round-trip. Seed
// corpora live in testdata/fuzz; CI runs each target briefly
// (go test -fuzz=<target> -fuzztime=10s).

func FuzzSplitData(f *testing.F) {
	valid := DataHeader{Flags: FlagEnd, ConnID: 1, SessionID: 2, Seq: 0, Length: 5}
	f.Add(append(valid.Marshal(nil), []byte("hello")...))
	f.Add([]byte{0x4e, 0x43, 0x00})            // truncated header
	f.Add(Control{Type: CtrlAck}.Marshal(nil)) // control magic on the data plane
	f.Add(DataHeader{Length: 1 << 31}.Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := SplitData(data)
		if err != nil {
			return
		}
		if len(payload) > len(data)-DataHeaderSize {
			t.Fatalf("payload view (%d bytes) exceeds input (%d bytes)", len(payload), len(data))
		}
		if int(h.Length) <= len(data)-DataHeaderSize && int(h.Length) != len(payload) {
			t.Fatalf("payload not trimmed to header length: %d != %d", len(payload), h.Length)
		}
		// Round-trip: re-encoding the decoded header and payload must
		// decode to the same header.
		re := AppendSDU(nil, h, payload)
		h2, p2, err := SplitData(re)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if h2 != h || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip diverged: %+v vs %+v", h2, h)
		}
	})
}

func FuzzUnmarshalControl(f *testing.F) {
	f.Add(Control{Type: CtrlCredit, ConnID: 1, SessionID: 2, Body: CreditBody(8)}.Marshal(nil))
	f.Add(Control{Type: CtrlAck, Body: NewBitmap(3).AppendTo(nil)}.Marshal(nil))
	f.Add([]byte{0x4e, 0x53})                                         // truncated
	f.Add(Control{Type: CtrlPing}.Marshal(nil)[:ControlHeaderSize-1]) // short header
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalControl(data)
		if err != nil {
			return
		}
		if len(c.Body) > len(data)-ControlHeaderSize {
			t.Fatalf("body view (%d bytes) exceeds input (%d bytes)", len(c.Body), len(data))
		}
		re := c.Marshal(nil)
		c2, err := UnmarshalControl(re)
		if err != nil {
			t.Fatalf("re-encoded control failed to decode: %v", err)
		}
		if c2.Type != c.Type || c2.ConnID != c.ConnID || c2.SessionID != c.SessionID || !bytes.Equal(c2.Body, c.Body) {
			t.Fatalf("round trip diverged: %+v vs %+v", c2, c)
		}
	})
}

func FuzzUnmarshalCredit(f *testing.F) {
	f.Add(AppendCreditGrant(nil, CreditGrant{Granted: 64, Consumed: 48, Window: 16}))
	f.Add(AppendCreditGrant(nil, CreditGrant{Granted: 1 << 40, Consumed: 1<<40 - 3, Window: 1 << 20}))
	f.Add(AppendCreditGrant(nil, CreditGrant{}))
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})                      // truncated body
	f.Add(AppendCreditGrant(nil, CreditGrant{Granted: 7})[:8]) // granted only
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseCreditGrant(data)
		if err != nil {
			if len(data) >= CreditGrantSize {
				t.Fatalf("%d-byte body rejected: %v", len(data), err)
			}
			return
		}
		re := AppendCreditGrant(nil, g)
		if len(re) != CreditGrantSize {
			t.Fatalf("encoded grant is %d bytes, want %d", len(re), CreditGrantSize)
		}
		g2, err := ParseCreditGrant(re)
		if err != nil {
			t.Fatalf("re-encoded grant failed to decode: %v", err)
		}
		if g2 != g {
			t.Fatalf("round trip diverged: %+v vs %+v", g2, g)
		}
		// Trailing bytes beyond the fixed-size body must be ignored, not
		// folded into the decode.
		if !bytes.Equal(re, data[:CreditGrantSize]) {
			t.Fatalf("decode did not reproduce the canonical prefix: %x vs %x", re, data[:CreditGrantSize])
		}
	})
}

// FuzzStreamFrame covers the stream-aware framing: per-stream credit
// grant bodies, stream open/close bodies, and the StreamID word of the
// data header (which older peers encode as reserved zero).
func FuzzStreamFrame(f *testing.F) {
	f.Add(AppendStreamGrant(nil, 3, CreditGrant{Granted: 64, Consumed: 48, Window: 16}))
	f.Add(AppendStreamGrant(nil, 0, CreditGrant{}))
	f.Add(AppendStreamGrant(nil, 1<<31, CreditGrant{Granted: 1 << 40, Window: 1 << 20}))
	f.Add(StreamIDBody(7))
	f.Add([]byte{0x00, 0x00, 0x00})                                // truncated stream id
	f.Add(AppendStreamGrant(nil, 5, CreditGrant{Granted: 9})[:12]) // truncated grant
	f.Add(AppendSDU(nil, DataHeader{Flags: FlagEnd, ConnID: 1, SessionID: 2, Length: 5, StreamID: 9}, []byte("hello")))
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, g, err := ParseStreamGrant(data); err == nil {
			re := AppendStreamGrant(nil, id, g)
			if len(re) != StreamGrantSize {
				t.Fatalf("encoded stream grant is %d bytes, want %d", len(re), StreamGrantSize)
			}
			id2, g2, err := ParseStreamGrant(re)
			if err != nil || id2 != id || g2 != g {
				t.Fatalf("stream grant round trip diverged: %d/%+v vs %d/%+v (%v)", id2, g2, id, g, err)
			}
			if !bytes.Equal(re, data[:StreamGrantSize]) {
				t.Fatalf("decode did not reproduce the canonical prefix: %x vs %x", re, data[:StreamGrantSize])
			}
		} else if len(data) >= StreamGrantSize {
			t.Fatalf("%d-byte stream grant body rejected: %v", len(data), err)
		}
		if id, err := ParseStreamID(data); err == nil {
			if id2, err := ParseStreamID(StreamIDBody(id)); err != nil || id2 != id {
				t.Fatalf("stream id round trip diverged: %d vs %d (%v)", id2, id, err)
			}
		} else if len(data) >= 4 {
			t.Fatalf("%d-byte stream id body rejected: %v", len(data), err)
		}
		if h, payload, err := SplitData(data); err == nil {
			h2, _, err := SplitData(AppendSDU(nil, h, payload))
			if err != nil || h2.StreamID != h.StreamID {
				t.Fatalf("StreamID did not survive re-encode: %d vs %d (%v)", h2.StreamID, h.StreamID, err)
			}
		}
	})
}

func FuzzUnmarshalBitmap(f *testing.F) {
	f.Add(NewBitmap(70).AppendTo(nil))
	f.Add(NewBitmap(0).AppendTo(nil))
	f.Add([]byte{0x00, 0x00, 0x00, 0x40})             // claims 64 SDUs, no words
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // huge count, tiny buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		bm, err := UnmarshalBitmap(data)
		if err != nil {
			return
		}
		// The decode validated the word count against the input, so the
		// bitmap must be fully usable and re-encode canonically.
		if bm.CountSet() > bm.Len() {
			t.Fatalf("%d set bits in a %d-bit map", bm.CountSet(), bm.Len())
		}
		re := bm.AppendTo(nil)
		bm2, err := UnmarshalBitmap(re)
		if err != nil {
			t.Fatalf("re-encoded bitmap failed to decode: %v", err)
		}
		if bm2.Len() != bm.Len() || bm2.CountSet() != bm.CountSet() {
			t.Fatalf("round trip diverged: %d/%d vs %d/%d", bm2.CountSet(), bm2.Len(), bm.CountSet(), bm.Len())
		}
	})
}
