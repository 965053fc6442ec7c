package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ncs/internal/core"
	"ncs/internal/thread"
	"ncs/internal/xdr"
)

// Handler services one call: req aliases the received message, which
// the server releases once the reply is sent — it is read-only, and a
// handler that retains it past its return must copy it. The returned
// bytes are sent back as the response (returning req itself is fine:
// the reply is framed before the release). A non-nil error reaches the
// caller as *ServerError. ctx carries the caller's propagated deadline,
// when it sent one.
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// ServerOptions configures a Server's dispatcher.
type ServerOptions struct {
	// Workers bounds the handlers running at once per source of calls:
	// the server's own inbox, which every connection attached with
	// ServeConn is bound to, and each inbox served with ServeInbox get
	// Workers threads each, which read their inbox directly. Default 4.
	Workers int
	// Threads selects the worker thread architecture (§4.1): kernel
	// level (default) overlaps handlers across cores; user level runs
	// them on the cooperative scheduler, where one blocking handler
	// stalls the pool — the Figure 10 trade-off applied to RPC dispatch.
	// A worker waiting for its next call gives the processor up
	// (thread.Package.Block), so an idle source never stalls the rest.
	Threads thread.Model
}

// request is one admitted call waiting for (or on) a worker. A nil h
// (or, for streaming calls, nil sh) marks a call to an unregistered
// method: the worker sends the no-method reply, so the producer that
// delivered the call never blocks on a reply send.
type request struct {
	conn     *core.Connection
	id       uint64
	h        Handler
	deadline time.Time    // zero: the caller sent no deadline
	msg      core.Message // the borrowed frame: the worker releases it after the reply
	payload  []byte       // aliases msg

	// Streaming calls (stream true) dispatch through sh against the
	// chunk stream the client named.
	stream   bool
	sh       StreamHandler
	streamID uint32
	mode     StreamMode
}

// Server dispatches named-method calls arriving over any number of NCS
// connections onto worker threads built from internal/thread. Register
// handlers with Handle, attach connections with ServeConn or an inbox
// with ServeInbox, and stop with Shutdown, which drains in-flight calls
// before tearing down.
type Server struct {
	opts ServerOptions
	pkg  thread.Package

	hmu       sync.RWMutex
	handlers  map[string]Handler
	shandlers map[string]StreamHandler

	// draining, under qmu, refuses new admissions from every source.
	qmu      sync.Mutex
	draining bool

	inflight sync.WaitGroup // admitted requests not yet replied to

	// ib is the server's own inbox: every connection attached with
	// ServeConn is bound to it, and conns holds them for Shutdown to
	// close.
	ib       *core.Inbox
	cmu      sync.Mutex
	conns    map[*core.Connection]struct{}
	inboxes  []*core.Inbox
	stopping bool // Shutdown began; refuse new connections and inboxes

	shutdownOnce sync.Once
}

// NewServer creates a server and serves its own inbox, the one every
// ServeConn connection is bound to, as ServeInbox would. The server
// owns the thread package it builds from opts, and the inbox.
func NewServer(opts ServerOptions) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Threads == 0 {
		opts.Threads = thread.KernelLevel
	}
	s := &Server{
		opts:     opts,
		pkg:      thread.New(opts.Threads),
		handlers: make(map[string]Handler),
		ib:       core.NewInbox(0),
		conns:    make(map[*core.Connection]struct{}),
	}
	s.ServeInbox(s.ib)
	return s
}

// worker is one thread over an inbox: it receives the next call and
// admits it (take; ok false: dropped or refused), runs it, and returns
// once the inbox is closed and drained. The receive and the admission
// run in a Block, so a user-level package runs its other threads while
// this one waits.
func (s *Server) worker(ib *core.Inbox) {
	var (
		req request
		ok  bool
		err error
	)
	next := func() {
		var im core.InboxMessage
		if im, err = ib.Recv(); err == nil {
			req, ok = s.take(im)
		}
	}
	for {
		s.pkg.Block(next)
		if err != nil {
			return
		}
		if ok {
			s.serve(req)
		}
		req = request{}
	}
}

// Handle registers (or replaces) the handler for a named method.
// Registration is safe at any time, including while serving.
func (s *Server) Handle(method string, h Handler) {
	s.hmu.Lock()
	s.handlers[method] = h
	s.hmu.Unlock()
}

// ServeConn attaches an established connection to the server: it binds
// the connection to the server's own inbox (Connection.BindInbox, which
// also moves the calls that arrived before it), whose workers read it.
// It starts no goroutine and returns immediately; the connection is
// served until it closes or the server shuts down (Shutdown closes
// served connections). At most 1024 calls wait in the inbox, across
// every served connection; beyond that the connections' producers stop
// reading their wires until a worker takes one. A connection that died
// leaves the server's set at the next ServeConn, so a long-lived server
// does not accumulate dead ones. A connection offered after Shutdown
// began is closed immediately. The server owns the connection's receive
// side.
func (s *Server) ServeConn(conn *core.Connection) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.stopping {
		conn.Close()
		return
	}
	for c := range s.conns {
		if c.Err() != nil {
			delete(s.conns, c)
		}
	}
	s.conns[conn] = struct{}{}
	conn.BindInbox(s.ib)
}

// take admits one message a worker received from its inbox and reports
// whether it became a request in flight. Loss-damaged or undecodable
// frames are dropped, never dispatched: the caller's deadline is the
// recovery path; a call that arrives while Shutdown drains is refused
// with an inline reply. im.Msg is borrowed: an admitted request carries
// it to serve, which releases it after the reply; every other way out
// releases it here.
func (s *Server) take(im core.InboxMessage) (request, bool) {
	conn, m := im.Conn, im.Msg
	req, ok := s.parse(im)
	if !ok {
		m.Release()
		return request{}, false
	}
	// Admission happens under qmu so Shutdown's draining flag and
	// inflight.Wait cannot race a late arrival.
	s.qmu.Lock()
	if s.draining {
		s.qmu.Unlock()
		m.Release()
		s.reply(conn, req.id, statusShuttingDown, "", nil)
		return request{}, false
	}
	s.inflight.Add(1)
	s.qmu.Unlock()
	mServerInflight.Inc()
	return req, true
}

// parse decodes im into the request a worker will run; false means its
// message is no well-formed call of either kind. A propagated deadline
// runs from the call's arrival in the inbox, so time spent waiting
// there for a worker counts against it.
func (s *Server) parse(im core.InboxMessage) (request, bool) {
	m := im.Msg
	if m.Lost > 0 {
		return request{}, false
	}
	d := xdr.NewDecoder(m.Data)
	k, kerr := parseKind(d)
	if kerr != nil || (k != kindCall && k != kindStreamCall) {
		return request{}, false
	}
	cf, err := parseCall(d, k)
	if err != nil {
		return request{}, false
	}
	req := request{conn: im.Conn, msg: m, stream: k == kindStreamCall, streamID: cf.streamID, mode: cf.mode}
	s.hmu.RLock()
	if req.stream {
		req.sh = s.shandlers[string(cf.method)]
	} else {
		req.h = s.handlers[string(cf.method)]
	}
	s.hmu.RUnlock()
	req.id, req.payload = cf.id, cf.payload
	if cf.deadline > 0 {
		req.deadline = im.At.Add(cf.deadline)
	}
	return req, true
}

// ServeInbox serves every connection bound to ib with Workers threads
// of its own, however many connections feed it — the RPC-layer
// counterpart of the core's sharded runtime. Each thread receives from
// the inbox itself and runs the call it took: no demultiplexing
// goroutine stands between the inbox and the handlers, and the inbox's
// mailbox wakes one receiver per message. The caller binds accepted
// connections (Connection.BindInbox) and owns their lifecycle; the
// threads run until the inbox closes (and drains) or the server shuts
// down.
func (s *Server) ServeInbox(ib *core.Inbox) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.stopping {
		ib.Close()
		return
	}
	s.inboxes = append(s.inboxes, ib)
	// Spawn cannot fail: the package shuts down only after Shutdown set
	// stopping, checked above under the lock held here.
	for i := 0; i < s.opts.Workers; i++ {
		s.pkg.Spawn(fmt.Sprintf("rpc-inbox-worker-%d", i), func() { s.worker(ib) })
	}
}

// serve runs one admitted request and settles it.
func (s *Server) serve(req request) {
	if req.stream {
		s.dispatchStream(req)
	} else {
		s.dispatch(req)
	}
	req.msg.Release() // the reply is sent: nothing aliases the frame now
	s.inflight.Done()
	mServerInflight.Dec()
}

// dispatch runs one request through its handler and sends the reply.
func (s *Server) dispatch(req request) {
	if req.h == nil {
		s.reply(req.conn, req.id, statusNoMethod, "", nil)
		return
	}
	ctx := context.Background()
	if !req.deadline.IsZero() {
		// The caller's budget already expired (queueing delay, clock
		// budget spent in transit): skip the work, it can no longer be
		// consumed.
		if !time.Now().Before(req.deadline) {
			mDeadlineExpired.Inc()
			s.reply(req.conn, req.id, statusDeadlineExceeded, "", nil)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.deadline)
		defer cancel()
	}
	resp, err := s.run(ctx, req.h, req.payload)
	if err != nil {
		s.reply(req.conn, req.id, errStatus(ctx, err), err.Error(), nil)
		return
	}
	s.reply(req.conn, req.id, statusOK, "", resp)
}

// errStatus is the reply status for a handler's error: the caller's own
// propagated deadline firing inside the handler is the deadline's
// verdict, not the application's — the caller gets DeadlineExceeded
// whether this timer or its own fired first. Everything else, a
// deadline error the handler met elsewhere included, is an application
// error.
func errStatus(ctx context.Context, err error) uint32 {
	if ctx.Err() == context.DeadlineExceeded && errors.Is(err, context.DeadlineExceeded) {
		mDeadlineExpired.Inc()
		return statusDeadlineExceeded
	}
	return statusError
}

// run invokes the handler, converting a panic into an application
// error so one bad request cannot take the worker down.
func (s *Server) run(ctx context.Context, h Handler, req []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("handler panic: %v", r)
		}
	}()
	return h(ctx, req)
}

// reply frames and sends one reply. Send failures are ignored: the
// connection is going down and the caller's deadline recovers. The
// encoder is only repooled after a successful Send — on a connection
// tearing down, an SDU still queued for its wire may alias its buffer.
func (s *Server) reply(conn *core.Connection, id uint64, status uint32, errmsg string, resp []byte) {
	enc := idleEncoders.Get()
	enc.Reset()
	appendReply(enc, id, status, errmsg, resp)
	if err := conn.Send(enc.Bytes()); err == nil {
		putEncoder(enc)
	}
}

// Shutdown stops the server gracefully: new calls are refused with
// ErrShuttingDown — those still waiting in an inbox too, as a worker
// takes them — every already-admitted call runs to completion and its
// reply is sent, then the workers' sources close (the server's own inbox
// and every served inbox), the workers and the thread package stop, and
// the served connections are torn down. Safe to call more than once;
// subsequent calls wait for the first to finish.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() {
		s.qmu.Lock()
		s.draining = true
		s.qmu.Unlock()

		// Drain: every admitted request replied to.
		s.inflight.Wait()

		s.cmu.Lock()
		s.stopping = true
		conns := make([]*core.Connection, 0, len(s.conns))
		for conn := range s.conns {
			conns = append(conns, conn)
		}
		inboxes := s.inboxes
		s.inboxes = nil
		s.cmu.Unlock()
		for _, ib := range inboxes {
			ib.Close()
		}
		s.pkg.Shutdown()
		for _, conn := range conns {
			conn.Close()
		}
	})
}
