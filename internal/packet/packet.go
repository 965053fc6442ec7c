// Package packet defines the wire formats used by the NCS data and
// control planes.
//
// The data plane carries SDUs (Service Data Units): segments of a user
// message produced by the Error Control Thread. Each SDU carries the
// header of Figure 5 — a sequence number and a control bit that marks the
// final segment — plus the connection/session routing fields that
// NCS_send() callers must supply (destination process id, destination
// thread id, session id).
//
// The control plane carries small fixed-purpose packets: ACK packets with
// the selective-repeat bitmap, CREDIT packets for the credit-based flow
// control scheme, and connection-management packets (SETUP/ACCEPT/
// REJECT/TEARDOWN) used by the Master Thread.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire sizes.
const (
	// DataHeaderSize is the byte length of an encoded SDU header.
	DataHeaderSize = 24
	// ControlHeaderSize is the byte length of an encoded control header.
	ControlHeaderSize = 16
)

// Magic numbers distinguishing plane traffic; useful when a misconfigured
// endpoint cross-connects the planes.
const (
	dataMagic    uint16 = 0x4e43 // "NC"
	controlMagic uint16 = 0x4e53 // "NS"
)

// Data header flag bits.
const (
	// FlagEnd marks the last SDU of a segmented user message
	// (the "control bit" of Figure 5).
	FlagEnd uint16 = 1 << 0
	// FlagRetransmit marks an SDU resent by the selective-repeat scheme.
	FlagRetransmit uint16 = 1 << 1
	// FlagUnreliable marks an SDU sent on a connection without error
	// control (e.g. audio/video streams).
	FlagUnreliable uint16 = 1 << 2
)

// Errors returned by decoding.
var (
	ErrShortPacket = errors.New("packet: truncated packet")
	ErrBadMagic    = errors.New("packet: bad magic")
)

// DataHeader is the header attached to every SDU on a data connection.
type DataHeader struct {
	Flags     uint16 // FlagEnd, FlagRetransmit, ...
	ConnID    uint32 // connection identifier assigned at setup
	SessionID uint32 // caller-provided session id (one message exchange)
	Seq       uint32 // SDU sequence number within the session, below 1<<16
	// Tx is the low half of the SDU's index among what its sender's lane
	// has transmitted: the receiver's credit window counts every index up
	// to the highest it has seen, so an SDU the link lost frees its credit
	// once a later one arrives. It shares Seq's word: a session never
	// holds more than 1<<16 SDUs (core refuses larger messages).
	Tx       uint16
	Length   uint32 // payload byte count
	StreamID uint32 // ordered channel within the connection; 0 = default
}

// Marshal appends the encoded header to dst and returns the result.
func (h DataHeader) Marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, dataMagic)
	dst = binary.BigEndian.AppendUint16(dst, h.Flags)
	dst = binary.BigEndian.AppendUint32(dst, h.ConnID)
	dst = binary.BigEndian.AppendUint32(dst, h.SessionID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.Tx)<<16|h.Seq&0xffff)
	dst = binary.BigEndian.AppendUint32(dst, h.Length)
	dst = binary.BigEndian.AppendUint32(dst, h.StreamID)
	return dst
}

// UnmarshalDataHeader decodes a header from p. The StreamID field
// occupies what older frames encoded as a reserved zero word, so frames
// from pre-stream peers decode as stream 0 — the default channel.
func UnmarshalDataHeader(p []byte) (DataHeader, error) {
	if len(p) < DataHeaderSize {
		return DataHeader{}, ErrShortPacket
	}
	if binary.BigEndian.Uint16(p) != dataMagic {
		return DataHeader{}, ErrBadMagic
	}
	return DataHeader{
		Flags:     binary.BigEndian.Uint16(p[2:]),
		ConnID:    binary.BigEndian.Uint32(p[4:]),
		SessionID: binary.BigEndian.Uint32(p[8:]),
		Seq:       uint32(binary.BigEndian.Uint16(p[14:])),
		Tx:        binary.BigEndian.Uint16(p[12:]),
		Length:    binary.BigEndian.Uint32(p[16:]),
		StreamID:  binary.BigEndian.Uint32(p[20:]),
	}, nil
}

// End reports whether the end-of-message control bit is set.
func (h DataHeader) End() bool { return h.Flags&FlagEnd != 0 }

// AppendSDU appends one encoded SDU — header then payload — to dst and
// returns the result. With a pooled dst (buf.Buffer.B re-sliced to
// zero) this is the single staging step of the send path: no
// intermediate packet buffer exists.
func AppendSDU(dst []byte, h DataHeader, payload []byte) []byte {
	dst = h.Marshal(dst)
	return append(dst, payload...)
}

// SplitData decodes a data packet into its header and payload view.
// The payload ALIASES p (and therefore whatever pooled buffer p lives
// in — holders that outlive the buffer's owner must retain it, see
// package buf) and is trimmed to the header's length field.
func SplitData(p []byte) (DataHeader, []byte, error) {
	h, err := UnmarshalDataHeader(p)
	if err != nil {
		return DataHeader{}, nil, err
	}
	payload := p[DataHeaderSize:]
	if int(h.Length) <= len(payload) {
		payload = payload[:h.Length]
	}
	return h, payload, nil
}

// ControlType enumerates control-plane packet kinds.
type ControlType uint16

const (
	// CtrlAck carries a selective-repeat acknowledgment bitmap.
	CtrlAck ControlType = iota + 1
	// CtrlCredit grants transmission credits to the sender.
	CtrlCredit
	// CtrlSetup requests a new data connection with a QoS configuration.
	CtrlSetup
	// CtrlAccept confirms a CtrlSetup.
	CtrlAccept
	// CtrlReject refuses a CtrlSetup.
	CtrlReject
	// CtrlTeardown closes a connection.
	CtrlTeardown
	// CtrlRate carries a rate-based flow control adjustment.
	CtrlRate
	// CtrlNack requests retransmission under go-back-N.
	CtrlNack
	// CtrlWinAck carries a window flow control cumulative
	// acknowledgment. It is distinct from CtrlAck so that window-level
	// acknowledgments (connection-lifetime arrival indices) are never
	// confused with error-control acknowledgments (per-session bitmaps
	// or cumulative SDU numbers).
	CtrlWinAck
	// CtrlPing probes connection liveness; the peer answers CtrlPong.
	CtrlPing
	// CtrlPong answers a CtrlPing.
	CtrlPong
	// CtrlCreditGrant carries a cumulative credit grant from the
	// receiver-advertised flow control scheme: the total number of SDUs
	// the receiver has ever authorised, the total it has consumed, and
	// the window it currently advertises. Cumulative absolute values
	// make grants idempotent — a sender takes the max of what it holds
	// and what arrives, so loss, duplication and reordering of grants
	// never corrupt the credit state.
	CtrlCreditGrant
	// CtrlStreamGrant is a CtrlCreditGrant scoped to one stream: the
	// body prefixes the grant with the stream id, so each stream's
	// receiver-advertised credit window travels independently of the
	// connection-level (stream 0) window.
	CtrlStreamGrant
	// CtrlStreamOpen announces a newly opened stream to the peer so
	// AcceptStream can surface it before any data arrives. Advisory:
	// the first data frame on an unknown stream also creates it.
	CtrlStreamOpen
	// CtrlStreamClose announces that a stream was closed by its owner;
	// the peer releases the stream's parked state.
	CtrlStreamClose
)

// String implements fmt.Stringer for diagnostics.
func (t ControlType) String() string {
	switch t {
	case CtrlAck:
		return "ACK"
	case CtrlCredit:
		return "CREDIT"
	case CtrlSetup:
		return "SETUP"
	case CtrlAccept:
		return "ACCEPT"
	case CtrlReject:
		return "REJECT"
	case CtrlTeardown:
		return "TEARDOWN"
	case CtrlRate:
		return "RATE"
	case CtrlNack:
		return "NACK"
	case CtrlWinAck:
		return "WINACK"
	case CtrlPing:
		return "PING"
	case CtrlPong:
		return "PONG"
	case CtrlCreditGrant:
		return "CREDITGRANT"
	case CtrlStreamGrant:
		return "STREAMGRANT"
	case CtrlStreamOpen:
		return "STREAMOPEN"
	case CtrlStreamClose:
		return "STREAMCLOSE"
	default:
		return fmt.Sprintf("ControlType(%d)", uint16(t))
	}
}

// Control is a control-plane packet. Body is interpreted per Type:
// ACK bodies hold an encoded Bitmap, CREDIT bodies a 4-byte count,
// SETUP bodies an encoded connection configuration.
type Control struct {
	Type      ControlType
	ConnID    uint32
	SessionID uint32
	Body      []byte
}

// Marshal appends the encoded control packet to dst and returns it.
func (c Control) Marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, controlMagic)
	dst = binary.BigEndian.AppendUint16(dst, uint16(c.Type))
	dst = binary.BigEndian.AppendUint32(dst, c.ConnID)
	dst = binary.BigEndian.AppendUint32(dst, c.SessionID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(c.Body)))
	dst = append(dst, c.Body...)
	return dst
}

// UnmarshalControl decodes a control packet from p. The returned Body
// aliases p.
func UnmarshalControl(p []byte) (Control, error) {
	if len(p) < ControlHeaderSize {
		return Control{}, ErrShortPacket
	}
	if binary.BigEndian.Uint16(p) != controlMagic {
		return Control{}, ErrBadMagic
	}
	n := binary.BigEndian.Uint32(p[12:])
	if uint32(len(p)-ControlHeaderSize) < n {
		return Control{}, ErrShortPacket
	}
	return Control{
		Type:      ControlType(binary.BigEndian.Uint16(p[2:])),
		ConnID:    binary.BigEndian.Uint32(p[4:]),
		SessionID: binary.BigEndian.Uint32(p[8:]),
		Body:      p[ControlHeaderSize : ControlHeaderSize+int(n)],
	}, nil
}

// CreditBody encodes a credit grant of n packets.
func CreditBody(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// ParseCreditBody decodes a credit grant.
func ParseCreditBody(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, ErrShortPacket
	}
	return binary.BigEndian.Uint32(p), nil
}

// CreditGrantSize is the byte length of an encoded CreditGrant body.
const CreditGrantSize = 20

// CreditGrant is the body of a CtrlCreditGrant packet. All fields are
// cumulative over the connection lifetime, never deltas: Granted is the
// total number of SDUs the receiver has authorised the sender to
// transmit, Consumed the total it has delivered to the application, and
// Window the advertisement the receiver currently sizes its grants
// from. Because the values only grow, a stale or duplicated grant is
// harmless — the sender keeps the maximum it has seen.
type CreditGrant struct {
	Granted  uint64
	Consumed uint64
	Window   uint32
}

// AppendCreditGrant appends the encoded grant body to dst and returns
// the result.
func AppendCreditGrant(dst []byte, g CreditGrant) []byte {
	dst = binary.BigEndian.AppendUint64(dst, g.Granted)
	dst = binary.BigEndian.AppendUint64(dst, g.Consumed)
	dst = binary.BigEndian.AppendUint32(dst, g.Window)
	return dst
}

// ParseCreditGrant decodes a CtrlCreditGrant body.
func ParseCreditGrant(p []byte) (CreditGrant, error) {
	if len(p) < CreditGrantSize {
		return CreditGrant{}, ErrShortPacket
	}
	return CreditGrant{
		Granted:  binary.BigEndian.Uint64(p),
		Consumed: binary.BigEndian.Uint64(p[8:]),
		Window:   binary.BigEndian.Uint32(p[16:]),
	}, nil
}

// StreamGrantSize is the byte length of an encoded CtrlStreamGrant
// body: the stream id followed by a CreditGrant.
const StreamGrantSize = 4 + CreditGrantSize

// AppendStreamGrant appends the encoded per-stream grant body — stream
// id, then the cumulative grant — to dst and returns the result.
func AppendStreamGrant(dst []byte, streamID uint32, g CreditGrant) []byte {
	dst = binary.BigEndian.AppendUint32(dst, streamID)
	return AppendCreditGrant(dst, g)
}

// ParseStreamGrant decodes a CtrlStreamGrant body.
func ParseStreamGrant(p []byte) (uint32, CreditGrant, error) {
	if len(p) < StreamGrantSize {
		return 0, CreditGrant{}, ErrShortPacket
	}
	g, err := ParseCreditGrant(p[4:])
	if err != nil {
		return 0, CreditGrant{}, err
	}
	return binary.BigEndian.Uint32(p), g, nil
}

// StreamIDBody encodes the 4-byte body of CtrlStreamOpen/CtrlStreamClose.
func StreamIDBody(streamID uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, streamID)
}

// ParseStreamID decodes a CtrlStreamOpen/CtrlStreamClose body.
func ParseStreamID(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, ErrShortPacket
	}
	return binary.BigEndian.Uint32(p), nil
}
