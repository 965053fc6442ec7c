package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/buf"
	"ncs/internal/core"
	"ncs/internal/xdr"
)

// reply is the demultiplexed outcome of one call: either a decoded
// reply frame or a terminal client/transport failure.
type reply struct {
	status  uint32
	errmsg  string
	payload []byte
	err     error // non-nil: the client failed before a reply arrived
}

// result maps a reply to the Call return values.
func (r reply) result(method string) ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	switch r.status {
	case statusOK:
		return r.payload, nil
	case statusNoMethod:
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, method)
	case statusShuttingDown:
		return nil, ErrShuttingDown
	case statusDeadlineExceeded:
		return nil, context.DeadlineExceeded
	default:
		return nil, &ServerError{Method: method, Message: r.errmsg}
	}
}

// call is the per-call rendezvous between the issuing goroutine and the
// demultiplexing receive loop. The one-slot channel receives exactly
// one deposit per call ID, so a consumed (or drained) call recycles
// through idleCalls with a clean channel.
type call struct {
	ch chan reply
}

// idleCalls keeps up to 256 idle call records — one is held per call in
// flight — of ≈ 0.2 KB each (a one-slot reply channel): ≈ 50 KB.
var idleCalls = buf.NewFreeList(256, func() *call { return &call{ch: make(chan reply, 1)} })

// Client issues multiplexed RPC calls over one NCS connection. Many
// goroutines may Call concurrently; in-flight calls are matched to
// replies by call ID, so slow calls never head-of-line-block fast ones
// beyond what the connection itself serialises. The Client owns the
// connection's receive side: do not call Recv on the connection while a
// Client is attached.
type Client struct {
	conn *core.Connection

	nextID atomic.Uint64

	mu     sync.Mutex
	calls  map[uint64]*call
	closed bool
	err    error // terminal failure observed by the receive loop

	recvDone chan struct{}
}

// NewClient attaches an RPC client to an established connection. Close
// the Client (not the Connection) when done; Close tears the connection
// down and fails any in-flight calls.
func NewClient(conn *core.Connection) *Client {
	c := &Client{
		conn:     conn,
		calls:    make(map[uint64]*call),
		recvDone: make(chan struct{}),
	}
	go c.recvLoop()
	return c
}

// Conn returns the underlying connection (for Stats, Options, …).
func (c *Client) Conn() *core.Connection { return c.conn }

// Call invokes a named method on the peer with the given request bytes
// and blocks for the response. ctx carries cancellation and the
// deadline; the remaining budget also travels in the call header so the
// server can skip work whose caller has already given up. The returned
// response aliases a heap slice owned by the caller.
//
// Errors: a handler failure surfaces as *ServerError; an unregistered
// method as ErrNoMethod; expiry as ctx.Err(); a client or connection
// teardown as ErrClientClosed / the connection's terminal error.
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	ca := idleCalls.Get()
	id := c.nextID.Add(1)
	c.calls[id] = ca
	c.mu.Unlock()
	mClientInflight.Inc()
	start := time.Now()

	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			c.abandon(id, ca)
			return nil, ctx.Err()
		}
	}

	enc := idleEncoders.Get()
	enc.Reset()
	appendCall(enc, id, method, budget, req)
	if err := c.conn.Send(enc.Bytes()); err != nil {
		// A failed Send means the connection is tearing down, and an
		// SDU still queued for its wire may alias the encoder's buffer:
		// abandon the encoder to the GC instead of repooling it.
		c.abandon(id, ca)
		return nil, err
	}
	putEncoder(enc)

	select {
	case r := <-ca.ch:
		idleCalls.Put(ca)
		mClientInflight.Dec()
		mCallNS.ObserveSince(start)
		return r.result(method)
	case <-ctx.Done():
		c.abandon(id, ca)
		return nil, ctx.Err()
	}
}

// abandon deregisters a call that will never consume its reply and
// recycles its state. Deposits happen under c.mu, so after the delete
// no new deposit can land; at most one already-buffered reply needs
// draining before the channel is clean for reuse.
func (c *Client) abandon(id uint64, ca *call) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
	mClientInflight.Dec()
	select {
	case <-ca.ch:
	default:
	}
	idleCalls.Put(ca)
}

// recvLoop is the client's demultiplexer: it drains the connection,
// drops undecodable or loss-damaged frames, and routes each reply —
// owned, not borrowed — to its in-flight call.
func (c *Client) recvLoop() {
	defer close(c.recvDone)
	for {
		m, err := c.conn.RecvMessage()
		if err != nil {
			c.fail()
			return
		}
		// A reply that arrived with SDU loss (unreliable connections
		// report it via Message.Lost) is damaged: drop it and let the
		// caller's deadline recover, exactly as for a fully lost reply.
		if m.Lost > 0 {
			m.Release()
			continue
		}
		// Call hands its caller a slice to keep, so the frame is owned
		// before anything aliases it: the one copy a call still costs.
		d := xdr.NewDecoder(m.Bytes())
		k, kerr := parseKind(d)
		if kerr != nil || k != kindReply {
			continue
		}
		rf, rerr := parseReply(d)
		if rerr != nil {
			continue
		}
		c.mu.Lock()
		if ca := c.calls[rf.id]; ca != nil {
			delete(c.calls, rf.id)
			r := reply{status: rf.status, payload: rf.payload}
			if len(rf.errmsg) > 0 {
				r.errmsg = string(rf.errmsg)
			}
			ca.ch <- r // one-slot channel, sole deposit for this ID
		}
		c.mu.Unlock()
	}
}

// fail records the terminal error and fails every in-flight call with
// it. Runs when the receive loop exits: connection teardown (local
// Close or peer/heartbeat failure).
func (c *Client) fail() {
	c.mu.Lock()
	if c.err == nil {
		if c.closed {
			c.err = ErrClientClosed
		} else if err := c.conn.Err(); err != nil {
			c.err = err
		} else {
			c.err = ErrClientClosed
		}
	}
	for id, ca := range c.calls {
		delete(c.calls, id)
		ca.ch <- reply{err: c.err}
	}
	c.mu.Unlock()
}

// Close tears down the client and its connection. In-flight calls fail
// with ErrClientClosed. Close is idempotent and safe to call
// concurrently with Calls.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		c.conn.Close()
	}
	<-c.recvDone
	return nil
}
