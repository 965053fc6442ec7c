package rpc

import (
	"cmp"
	"context"
	"fmt"
	"sync"
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

// call is the rendezvous of a call that waits behind another's lead:
// its one-slot channel receives exactly one deposit per call ID — the
// reply, or the client's failure — so a consumed (or drained) call
// recycles through idleCalls with a clean channel.
type call struct {
	ch chan reply
}

// idleCalls keeps up to 256 idle call records — one is held per call
// that waits behind another's lead; a call that leads from its start
// holds none — of ≈ 0.2 KB each (a one-slot reply channel): ≈ 50 KB.
var idleCalls = buf.NewFreeList(256, func() *call { return &call{ch: make(chan reply, 1)} })

// Client issues multiplexed RPC calls over one NCS connection. Many
// goroutines may Call concurrently; in-flight calls are matched to
// replies by call ID, so a slow handler's reply does not hold up a fast
// one behind it. The caller reads its own reply (Leader/Followers): the
// call holding the lead token reads the connection, hands each other
// call's reply to that call's channel, and passes the token on once it
// has its own, so a Client runs no goroutine, on any runtime, and a sole
// caller is never handed a reply. A call that leads from its start holds
// the token across its own Send, so replies that arrive meanwhile wait
// for that Send to return. The Client owns the connection's receive
// side: do not call Recv on the connection while a Client is attached.
type Client struct {
	conn *core.Connection
	lead chan struct{} // one slot, full while no call reads the connection

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]*call // the calls waiting behind the lead
	closed bool
	err    error // terminal failure the lead's read or Close observed
}

// NewClient attaches an RPC client to an established connection. Close
// the Client (not the Connection) when done; Close tears the connection
// down and fails any in-flight calls.
func NewClient(conn *core.Connection) *Client {
	c := &Client{conn: conn, lead: make(chan struct{}, 1), calls: make(map[uint64]*call)}
	c.lead <- struct{}{}
	return c
}

// Conn returns the underlying connection (for Stats, Options, …).
func (c *Client) Conn() *core.Connection { return c.conn }

// Call invokes a named method on the peer with the given request bytes
// and blocks for the response. ctx carries cancellation and the
// deadline; the remaining budget also travels in the call header so the
// server can skip work whose caller has already given up. The returned
// response is a heap slice owned by the caller.
//
// Errors: a handler failure surfaces as *ServerError; an unregistered
// method as ErrNoMethod; expiry as ctx.Err(); a client or connection
// teardown as ErrClientClosed / the connection's terminal error.
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	start := time.Now()
	id, ca, err := c.issue(ctx, true, method, 0, 0, req)
	if err != nil {
		return nil, err
	}
	mClientInflight.Inc()
	r := c.wait(ctx, id, ca)
	mClientInflight.Dec()
	if r.err == nil {
		mCallNS.ObserveSince(start)
	}
	return r.result(method)
}

// issue begins a call, unary or streaming (mode non-zero, on chunk
// stream streamID): it numbers the call and, unless a unary call leads,
// registers it (begin), then sends its frame. The deadline's remaining
// budget travels in the frame; a call that cannot start is dropped.
func (c *Client) issue(ctx context.Context, unary bool, method string, mode StreamMode, streamID uint32, req []byte) (uint64, *call, error) {
	id, ca, err := c.begin(unary)
	if err != nil {
		return 0, nil, err
	}
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		if budget = time.Until(dl); budget <= 0 {
			c.drop(id, ca)
			return 0, nil, ctx.Err()
		}
	}
	enc := idleEncoders.Get()
	enc.Reset()
	appendStreamCall(enc, id, method, budget, mode, streamID, req)
	if err := c.conn.Send(enc.Bytes()); err != nil {
		// A failed Send means the connection is tearing down, and an
		// SDU still queued for its wire may alias the encoder's buffer:
		// abandon the encoder to the GC instead of repooling it.
		c.drop(id, ca)
		return 0, nil, c.teardown(err)
	}
	putEncoder(enc)
	return id, ca, nil
}

// begin numbers a call and registers a call record from idleCalls for
// it, unless it leads (ca nil). A unary call leads from its start when
// the lead is free and no other call is registered: its Send holds the
// lead, and a call that begins during that Send queues its frame behind
// it, so no reply can wait on the lead meanwhile. A streaming call never
// does: it waits for its reply only in Result. A closed or failed client
// refuses the call.
func (c *Client) begin(unary bool) (id uint64, ca *call, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return 0, nil, cmp.Or(c.err, ErrClientClosed)
	}
	c.nextID++
	if unary && len(c.calls) == 0 {
		select {
		case <-c.lead:
			return c.nextID, nil, nil
		default:
		}
	}
	ca = idleCalls.Get()
	c.calls[c.nextID] = ca
	return c.nextID, ca, nil
}

// wait is a call's wait for its reply once its frame is sent. A
// registered call (ca non-nil) follows: it waits for its reply, the lead
// or the end of ctx, whichever comes first, and one that takes the lead
// leaves the registry — after which nobody deposits to it — and looks
// once more for a reply deposited before it did. A call that leads reads
// the connection until its reply comes (read), deposits what else has
// arrived if calls wait behind it, then hands the lead on.
func (c *Client) wait(ctx context.Context, id uint64, ca *call) reply {
	if ca != nil {
		select {
		case r := <-ca.ch:
			idleCalls.Put(ca)
			return r
		case <-ctx.Done():
			c.abandon(id, ca)
			c.sweep()
			return reply{err: ctx.Err()}
		case <-c.lead:
			c.mu.Lock()
			delete(c.calls, id)
			c.mu.Unlock()
			select {
			case r := <-ca.ch:
				c.lead <- struct{}{}
				idleCalls.Put(ca)
				return r
			default:
				idleCalls.Put(ca)
			}
		}
	}
	r := c.read(ctx, id)
	c.mu.Lock()
	followed := len(c.calls) > 0
	c.mu.Unlock()
	if followed && r.err == nil {
		// The replies that came with this one go to their calls now, not
		// one per wake-up of a follower that takes the lead to read them.
		c.read(swept, 0)
	}
	c.lead <- struct{}{}
	return r
}

// read is the lead's turn at the connection: it reads until the reply to
// call id arrives, deposits each other call's reply in that call's
// channel, and drops a loss-damaged or undecodable frame and a reply
// nobody waits for (a call that gave up). It ends early when ctx does,
// or when the read fails: then the client fails first every call waiting
// behind it. Call IDs start at 1, so read(swept, 0) takes what is waiting
// and returns.
func (c *Client) read(ctx context.Context, id uint64) reply {
	for {
		m, err := c.conn.RecvMessageContext(ctx)
		if err != nil {
			if err != ctx.Err() {
				err = c.fail()
			}
			return reply{err: err}
		}
		// A reply that arrived with SDU loss (unreliable connections
		// report it via Message.Lost) is damaged: drop it and let the
		// caller's deadline recover, exactly as for a fully lost reply.
		d := xdr.NewDecoder(m.Data)
		k, kerr := parseKind(d)
		rf, rerr := parseReply(d)
		if m.Lost > 0 || kerr != nil || k != kindReply || rerr != nil || rf.id == 0 {
			m.Release()
			continue
		}
		if rf.id == id {
			return rf.keep(&m)
		}
		c.mu.Lock()
		if ca := c.calls[rf.id]; ca != nil {
			delete(c.calls, rf.id)
			ca.ch <- rf.keep(&m) // one-slot channel, sole deposit for this ID
		} else {
			m.Release()
		}
		c.mu.Unlock()
	}
}

// keep is the reply rf was parsed from m: its payload owned — an
// exact-size copy when m is borrowed, a slice of it when m is already
// the holder's (Message.Keep) — and m released.
func (rf replyFrame) keep(m *core.Message) reply {
	r := reply{status: rf.status}
	if len(rf.errmsg) > 0 {
		r.errmsg = string(rf.errmsg)
	}
	r.payload = m.Keep(rf.at, rf.at+len(rf.payload))
	return r
}

// swept is a context that has already ended: a read under it takes what
// is waiting and returns. (Its deadline passed, so it holds no timer.)
var swept, _ = context.WithDeadline(context.Background(), time.Time{})

// sweep empties the connection's receive side without waiting, if no
// call holds the lead: replies nobody reads — a streaming call's final
// reply before its Result, a late reply to a call that gave up — would
// otherwise stay queued, and at the connection's delivery depth they
// stop its data wire, which also carries every chunk stream. A chunk
// wait sweeps before it blocks, and a call that gives up sweeps.
func (c *Client) sweep() {
	select {
	case <-c.lead:
		c.read(swept, 0)
		c.lead <- struct{}{}
	default:
	}
}

// drop ends a call that will never take its reply: a leading one hands
// the lead on, a registered one is abandoned.
func (c *Client) drop(id uint64, ca *call) {
	if ca == nil {
		c.lead <- struct{}{}
		return
	}
	c.abandon(id, ca)
}

// abandon deregisters a call that will never consume its reply and
// recycles its state. Deposits happen under c.mu, so after the delete
// no new deposit can land; at most one already-buffered reply needs
// draining before the channel is clean for reuse.
func (c *Client) abandon(id uint64, ca *call) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
	select {
	case <-ca.ch:
	default:
	}
	idleCalls.Put(ca)
}

// teardown is err, a failed Send's or OpenStream's, unless the
// connection is down: then the client's terminal error (fail).
func (c *Client) teardown(err error) error {
	if c.conn.Err() != nil {
		return c.fail()
	}
	return err
}

// fail records the terminal error — ErrClientClosed once Close ran, else
// the connection's — fails every call waiting behind the lead with it,
// and returns it. The lead runs it when its read fails, and Close runs
// it.
func (c *Client) fail() error {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	return c.err
}

// Close tears down the client and its connection. In-flight calls fail
// with ErrClientClosed: a waiting one at once, the one reading the
// connection when its read ends. Close is idempotent and safe to call
// concurrently with Calls.
func (c *Client) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		c.conn.Close()
		c.fail()
	}
	return nil
}
