package rpc

// Streaming RPC: calls whose request/response exchange is not one
// message each way but a sequence of chunks flowing while the call is
// open — client-stream (uploads), server-stream (downloads, fan-out
// reads), and bidi (pipelines). The control exchange stays on the
// connection's default channel exactly like a unary call: a
// kindStreamCall frame opens the call, a kindReply frame completes it,
// and both reuse the unary demux machinery. The chunks themselves ride
// a dedicated multiplexed stream (core.Stream) the client opens and
// names in the call frame, so a slow streaming call consumes only its
// own credit window and never head-of-line-blocks unary calls or other
// streams sharing the connection.
//
// Chunk wire format on the dedicated stream (each chunk is one NCS
// message, staged through a pooled buffer):
//
//	data:  0x00 | payload
//	end:   0x01              (half-close: no more chunks this direction)
//	error: 0x02 | message    (abnormal end of the chunk flow)
//
// The call frame extends the unary call with the chunk-flow mode and
// the stream id:
//
//	stream call: uint32 kind=3 | uint64 id | string method |
//	             uint64 deadline-µs | uint32 mode | uint32 streamID |
//	             opaque request
//
// Because the chunk stream and the call frame travel independently,
// chunks may reach the server before the call is dispatched; they park
// on the stream's own backlog until the handler attaches — ordering
// within the stream is preserved, and nothing blocks the connection: a
// full default lane withholds only its own credit, so neither replies
// left unread nor a flooded server inbox stop a chunk
// (TestChunkWaitBehindUnreadReplies, TestUploadBehindFloodedServer).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ncs/internal/buf"
	"ncs/internal/core"
	"ncs/internal/xdr"
)

// kindStreamCall opens a streaming call (see package doc above; kinds
// 1 and 2 are the unary call and the shared reply).
const kindStreamCall uint32 = 3

// Chunk opcodes on the dedicated stream.
const (
	chunkData  byte = 0x00
	chunkEnd   byte = 0x01
	chunkError byte = 0x02
)

// StreamMode declares which directions of the chunk flow a streaming
// call uses. The mode travels in the call frame so handlers and
// tooling can tell an upload from a download; the chunk protocol
// itself is symmetric.
type StreamMode uint32

// Stream modes.
const (
	ClientStream StreamMode = 1 // client sends chunks, server replies once
	ServerStream StreamMode = 2 // client requests once, server sends chunks
	BidiStream   StreamMode = 3 // both directions chunk concurrently
)

// ErrStreamAborted reports the peer ended the chunk flow with an error
// chunk; the accompanying message is attached.
var ErrStreamAborted = errors.New("rpc: stream aborted")

// appendStreamCall frames one call: a streaming call's open (mode
// non-zero) names its mode and chunk stream; with mode 0 it is a unary
// call's frame (appendCall).
func appendStreamCall(enc *xdr.Encoder, id uint64, method string, deadline time.Duration, mode StreamMode, streamID uint32, req []byte) {
	if mode != 0 {
		enc.PutUint32(kindStreamCall)
	} else {
		enc.PutUint32(kindCall)
	}
	enc.PutUint64(id)
	enc.PutString(method)
	enc.PutUint64(uint64(max(deadline, 0) / time.Microsecond))
	if mode != 0 {
		enc.PutUint32(uint32(mode))
		enc.PutUint32(streamID)
	}
	enc.PutOpaque(req)
}

// sendChunk stages one prefixed chunk through a pooled buffer and
// sends it as one message on the dedicated stream. The stream's Send
// confirms its payload was staged (or written) before returning, so
// the buffer recycles immediately.
func sendChunk(st *core.Stream, op byte, payload []byte) error {
	sb := buf.GetCap(1 + len(payload))
	sb.B = append(sb.B, op)
	sb.B = append(sb.B, payload...)
	err := st.Send(sb.B)
	sb.Release()
	return err
}

// recvChunk receives and decodes one chunk from the dedicated stream.
// It returns io.EOF on the end marker and ErrStreamAborted (with the
// peer's message attached) on an error chunk.
func recvChunk(st *core.Stream) ([]byte, error) {
	m, err := st.Recv()
	if err != nil {
		return nil, err
	}
	if len(m) == 0 {
		return nil, errBadFrame
	}
	switch m[0] {
	case chunkData:
		return m[1:], nil
	case chunkEnd:
		return nil, io.EOF
	case chunkError:
		return nil, fmt.Errorf("%w: %s", ErrStreamAborted, m[1:])
	default:
		return nil, errBadFrame
	}
}

// ---------------------------------------------------------------------------
// Client side.

// ClientCall is an open streaming call. Send and Recv move chunks on
// the call's dedicated stream; Result waits for the server's final
// reply (the same frame that completes a unary call) and releases the
// stream. Always finish a call with Result or Close.
type ClientCall struct {
	c      *Client
	st     *core.Stream
	id     uint64
	method string
	mode   StreamMode
	ca     *call
}

// openStream opens a streaming call: a dedicated chunk stream plus the
// kindStreamCall frame naming it.
func (c *Client) openStream(ctx context.Context, method string, mode StreamMode, req []byte) (*ClientCall, error) {
	st, err := c.conn.OpenStream()
	if err != nil {
		return nil, c.teardown(err)
	}
	id, ca, err := c.issue(ctx, false, method, mode, st.ID(), req)
	if err != nil {
		st.Close()
		return nil, err
	}
	mClientInflight.Inc()
	return &ClientCall{c: c, st: st, id: id, method: method, mode: mode, ca: ca}, nil
}

// OpenClientStream starts a client-streaming call: the client Sends a
// sequence of chunks, CloseSends, and collects the server's single
// response with Result.
func (c *Client) OpenClientStream(ctx context.Context, method string, req []byte) (*ClientCall, error) {
	return c.openStream(ctx, method, ClientStream, req)
}

// OpenServerStream starts a server-streaming call: the server's
// handler Sends a sequence of chunks the client Recvs (until io.EOF),
// then Result collects the final reply.
func (c *Client) OpenServerStream(ctx context.Context, method string, req []byte) (*ClientCall, error) {
	return c.openStream(ctx, method, ServerStream, req)
}

// OpenBidiStream starts a bidirectional streaming call: both sides
// chunk concurrently (run Send and Recv from separate goroutines).
func (c *Client) OpenBidiStream(ctx context.Context, method string, req []byte) (*ClientCall, error) {
	return c.openStream(ctx, method, BidiStream, req)
}

// Stream exposes the call's dedicated chunk stream (for its ID, e.g.
// in traces).
func (cc *ClientCall) Stream() *core.Stream { return cc.st }

// Send transmits one chunk to the server's handler.
func (cc *ClientCall) Send(chunk []byte) error {
	return sendChunk(cc.st, chunkData, chunk)
}

// CloseSend half-closes the client→server chunk flow: the handler's
// Recv observes io.EOF after draining. The call stays open — Recv and
// Result still work.
func (cc *ClientCall) CloseSend() error {
	return sendChunk(cc.st, chunkEnd, nil)
}

// Abort ends the chunk flow abnormally: the handler's Recv observes
// ErrStreamAborted with the given message.
func (cc *ClientCall) Abort(msg string) error {
	return sendChunk(cc.st, chunkError, []byte(msg))
}

// Recv returns the next server chunk. io.EOF reports the handler
// finished its chunk flow (collect the final reply with Result);
// ErrStreamAborted carries a handler-side abnormal end. Before it waits
// it sweeps the connection's unread replies (Client.sweep), this call's
// and others', so they cannot stop the chunks it waits for.
func (cc *ClientCall) Recv() ([]byte, error) {
	cc.c.sweep()
	return recvChunk(cc.st)
}

// Result blocks for the server's final reply — exactly a unary call's
// completion: the handler's return value, or its error as
// *ServerError — and closes the chunk stream. It waits as a unary call
// does (Client.wait): it may lead, and read the connection itself. ctx
// bounds the wait.
func (cc *ClientCall) Result(ctx context.Context) ([]byte, error) {
	r := cc.c.wait(ctx, cc.id, cc.ca)
	mClientInflight.Dec()
	cc.st.Close()
	return r.result(cc.method)
}

// Close abandons the call without waiting for its reply and tears the
// chunk stream down (the handler observes the close as an ended chunk
// flow). Use Result for a graceful finish.
func (cc *ClientCall) Close() error {
	cc.c.abandon(cc.id, cc.ca)
	cc.c.sweep()
	mClientInflight.Dec()
	return cc.st.Close()
}

// ---------------------------------------------------------------------------
// Server side.

// ServerCall is the handler's end of a streaming call's chunk flow.
type ServerCall struct {
	st   *core.Stream
	mode StreamMode
}

// Mode reports the call's declared chunk-flow directions.
func (sc *ServerCall) Mode() StreamMode { return sc.mode }

// Recv returns the next client chunk; io.EOF after the client's
// CloseSend, ErrStreamAborted after its Abort.
func (sc *ServerCall) Recv() ([]byte, error) {
	return recvChunk(sc.st)
}

// Send transmits one chunk to the client.
func (sc *ServerCall) Send(chunk []byte) error {
	return sendChunk(sc.st, chunkData, chunk)
}

// StreamHandler services one streaming call: req is the call frame's
// request payload (aliasing the received message, which the server
// releases once the final reply is sent: read-only, copy to retain), sc
// the chunk flow.
// The returned bytes become the final reply the client's Result
// collects; a non-nil error reaches it as *ServerError. When the
// handler returns, the server ends the server→client chunk flow
// automatically (io.EOF on the client, or ErrStreamAborted on error).
type StreamHandler func(ctx context.Context, req []byte, sc *ServerCall) ([]byte, error)

// HandleStream registers (or replaces) the streaming handler for a
// named method. Streaming and unary methods share a namespace but not
// a table: a unary call to a streaming method is a no-method error and
// vice versa.
func (s *Server) HandleStream(method string, h StreamHandler) {
	s.hmu.Lock()
	if s.shandlers == nil {
		s.shandlers = make(map[string]StreamHandler)
	}
	s.shandlers[method] = h
	s.hmu.Unlock()
}

// dispatchStream runs one streaming call on a worker: attach to the
// chunk stream the client named (chunks that raced ahead of the call
// frame are already parked on it), run the handler, end the chunk
// flow, send the final reply.
func (s *Server) dispatchStream(req request) {
	if req.sh == nil {
		s.reply(req.conn, req.id, statusNoMethod, "", nil)
		return
	}
	sc := &ServerCall{st: req.conn.StreamByID(req.streamID), mode: req.mode}
	ctx := context.Background()
	if !req.deadline.IsZero() {
		if !time.Now().Before(req.deadline) {
			mDeadlineExpired.Inc()
			s.reply(req.conn, req.id, statusDeadlineExceeded, "", nil)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.deadline)
		defer cancel()
	}
	resp, err := s.runStream(ctx, req.sh, req.payload, sc)
	if err != nil {
		// End the chunk flow abnormally first, so a client blocked in
		// Recv unblocks before (or regardless of) consuming the reply.
		sendChunk(sc.st, chunkError, []byte(err.Error()))
		s.reply(req.conn, req.id, errStatus(ctx, err), err.Error(), nil)
		return
	}
	sendChunk(sc.st, chunkEnd, nil)
	s.reply(req.conn, req.id, statusOK, "", resp)
}

// runStream invokes the streaming handler, converting a panic into an
// application error, as run does for unary handlers.
func (s *Server) runStream(ctx context.Context, h StreamHandler, req []byte, sc *ServerCall) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h(ctx, req, sc)
}
