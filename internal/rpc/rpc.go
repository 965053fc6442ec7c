// Package rpc layers multiplexed request/response calls on top of NCS
// connections. The paper positions NCS as the communication substrate
// for high performance distributed applications; this package supplies
// the layer those applications actually program against — named-method
// calls with deadlines and application-error propagation — without
// giving up anything the substrate provides: RPC traffic rides ordinary
// NCS messages, so it works over every interface (SCI, ACI, HPI), every
// flow/error control selection, and the §4.2 thread-bypassing fast
// path.
//
// A Client multiplexes many concurrent in-flight calls over one
// Connection, matching replies to callers by uint64 call IDs. A Server
// runs named-method handlers on worker threads built from
// internal/thread, so the paper's kernel-level/user-level thread
// architectures apply to RPC dispatch exactly as they do to Compute
// Threads. ServerOptions.Workers bounds the handlers running at once per
// source of calls: the served connections' one queue, fed by a receive
// loop per connection, and each served core.Inbox, whose workers receive
// from it themselves — the thread that waits for a call is the one that
// runs it.
//
// # Wire format
//
// Every RPC message is one NCS message whose body is XDR-encoded
// (internal/xdr), the same external data representation the typed
// message layer and the PVM baseline use:
//
//	call:  uint32 kind=1 | uint64 id | string method |
//	       uint64 deadline-µs (0 = none) | opaque request
//	reply: uint32 kind=2 | uint64 id | uint32 status |
//	       string error  | opaque response
//
// The deadline travels as a relative budget, not an absolute clock
// reading, so heterogeneous hosts need no clock agreement. Malformed
// frames and frames arriving with SDU loss (Message.Lost > 0 on
// unreliable connections) are dropped, never dispatched: the caller's
// deadline is the recovery mechanism, as it is for a lost reply.
package rpc

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ncs/internal/buf"
	"ncs/internal/xdr"
)

// Message kinds. kindStreamCall (3) lives in stream.go.
const (
	kindCall  uint32 = 1
	kindReply uint32 = 2
)

// maxDeadlineMicros rejects deadline budgets beyond ~292 years: they
// cannot come from a real clock reading, so treat them as corruption
// rather than letting the conversion overflow into "no deadline" (or
// a spurious tiny one).
const maxDeadlineMicros = uint64(math.MaxInt64 / int64(time.Microsecond))

// Reply status codes.
const (
	statusOK uint32 = iota
	statusError
	statusNoMethod
	statusShuttingDown
	statusDeadlineExceeded
)

// Errors surfaced by the RPC layer.
var (
	// ErrNoMethod reports a call to a method the server has not
	// registered.
	ErrNoMethod = errors.New("rpc: no such method")
	// ErrShuttingDown reports a call that reached the server after
	// Shutdown began; in-flight calls are unaffected.
	ErrShuttingDown = errors.New("rpc: server shutting down")
	// ErrClientClosed reports a call issued on (or outstanding when) a
	// closed Client.
	ErrClientClosed = errors.New("rpc: client closed")
	// errBadFrame marks an undecodable RPC frame (dropped, never
	// dispatched).
	errBadFrame = errors.New("rpc: malformed frame")
)

// ServerError is an application error returned by a handler,
// propagated to the caller with the failing method attached. Match it
// with errors.As.
type ServerError struct {
	Method  string
	Message string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("rpc: %s: %s", e.Method, e.Message)
}

// idleEncoders recycles the XDR encoders both sides use to frame
// messages: steady-state call traffic encodes without allocating. An
// encoder is held for one Send, so 64 cover 64 concurrent callers and
// repliers; one that grew past maxIdleEncoder framing a large message
// is left to the collector, which bounds what the list retains at
// 64 × 32 KB = 2 MB (64 × 256 B–2 KB under typical call sizes).
var idleEncoders = buf.NewFreeList(64, func() *xdr.Encoder { return xdr.NewEncoder(256) })

const maxIdleEncoder = 32 * 1024

// putEncoder returns enc to idleEncoders once its Send has completed.
func putEncoder(enc *xdr.Encoder) {
	if cap(enc.Bytes()) <= maxIdleEncoder {
		idleEncoders.Put(enc)
	}
}

// appendCall frames one call message.
func appendCall(enc *xdr.Encoder, id uint64, method string, deadline time.Duration, req []byte) {
	enc.PutUint32(kindCall)
	enc.PutUint64(id)
	enc.PutString(method)
	if deadline > 0 {
		enc.PutUint64(uint64(deadline / time.Microsecond))
	} else {
		enc.PutUint64(0)
	}
	enc.PutOpaque(req)
}

// appendReply frames one reply message.
func appendReply(enc *xdr.Encoder, id uint64, status uint32, errmsg string, resp []byte) {
	enc.PutUint32(kindReply)
	enc.PutUint64(id)
	enc.PutUint32(status)
	enc.PutString(errmsg)
	enc.PutOpaque(resp)
}

// callFrame is a parsed call. method and payload alias the message the
// frame was parsed from.
type callFrame struct {
	id       uint64
	method   []byte
	deadline time.Duration // 0 = none
	payload  []byte
}

// replyFrame is a parsed reply. errmsg and payload alias the message
// the frame was parsed from.
type replyFrame struct {
	id      uint64
	status  uint32
	errmsg  []byte
	payload []byte
}

// parseKind reads the leading message kind.
func parseKind(d *xdr.Decoder) (uint32, error) {
	k, err := d.Uint32()
	if err != nil {
		return 0, errBadFrame
	}
	return k, nil
}

// parseCall decodes the remainder of a call frame after its kind.
func parseCall(d *xdr.Decoder) (callFrame, error) {
	var cf callFrame
	var err error
	if cf.id, err = d.Uint64(); err != nil {
		return cf, errBadFrame
	}
	if cf.method, err = d.Opaque(); err != nil {
		return cf, errBadFrame
	}
	us, err := d.Uint64()
	if err != nil {
		return cf, errBadFrame
	}
	if us > maxDeadlineMicros {
		return cf, errBadFrame
	}
	cf.deadline = time.Duration(us) * time.Microsecond
	if cf.payload, err = d.Opaque(); err != nil {
		return cf, errBadFrame
	}
	return cf, nil
}

// parseReply decodes the remainder of a reply frame after its kind.
func parseReply(d *xdr.Decoder) (replyFrame, error) {
	var rf replyFrame
	var err error
	if rf.id, err = d.Uint64(); err != nil {
		return rf, errBadFrame
	}
	if rf.status, err = d.Uint32(); err != nil {
		return rf, errBadFrame
	}
	if rf.errmsg, err = d.Opaque(); err != nil {
		return rf, errBadFrame
	}
	if rf.payload, err = d.Opaque(); err != nil {
		return rf, errBadFrame
	}
	return rf, nil
}
