package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ncs/internal/core"
	"ncs/internal/stream"
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
	// the connections attached with ServeConn share one queue, which
	// Workers worker threads read, and each inbox served with ServeInbox
	// gets Workers threads of its own, which read the inbox directly.
	// Default 4.
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
// method: the worker sends the no-method reply, so a connection's
// receive loop never blocks on a reply send.
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

	// queue holds the calls ServeConn's receive loops admitted until a
	// worker takes one; qdone closes it once Shutdown has drained.
	// draining, under qmu, refuses new admissions from every source.
	queue    stream.Mailbox[request]
	qdone    chan struct{}
	qmu      sync.Mutex
	draining bool

	inflight sync.WaitGroup // admitted requests not yet replied to

	cmu      sync.Mutex
	conns    map[*core.Connection]struct{}
	inboxes  []*core.Inbox
	stopping bool // Shutdown began; refuse new connections and inboxes
	recvWG   sync.WaitGroup

	shutdownOnce sync.Once
}

// NewServer creates a server and starts the workers of its connection
// queue. The server owns the thread package it builds from opts.
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
		qdone:    make(chan struct{}),
		conns:    make(map[*core.Connection]struct{}),
	}
	s.spawnWorkers("rpc-worker", func() (request, bool, error) {
		req, err := stream.Await(s.queue.Bell, nil, s.qdone, 0, func() (request, bool, error) {
			req, ok := s.queue.Pop()
			return req, ok, nil
		})
		return req, err == nil, err
	})
	return s
}

// spawnWorkers starts Workers threads over one source of calls. Spawn
// cannot fail: the package shuts down only after Shutdown set stopping,
// which ServeInbox checks under the lock it spawns under.
func (s *Server) spawnWorkers(name string, next func() (request, bool, error)) {
	for i := 0; i < s.opts.Workers; i++ {
		s.pkg.Spawn(fmt.Sprintf("%s-%d", name, i), func() { s.worker(next) })
	}
}

// worker is one thread over a source of calls: next waits for the next
// call and admits it (ok false: dropped or refused), the worker runs it,
// until next reports the source closed. next runs in a Block, so a
// user-level package runs its other threads while this one waits.
func (s *Server) worker(next func() (request, bool, error)) {
	var (
		req request
		ok  bool
		err error
	)
	wait := func() { req, ok, err = next() }
	for {
		s.pkg.Block(wait)
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

// ServeConn attaches an established connection to the server and starts
// demultiplexing its calls. It returns immediately; the connection is
// served until it closes or the server shuts down (Shutdown closes
// served connections). A connection offered after Shutdown began is
// closed immediately. The server owns the connection's receive side.
func (s *Server) ServeConn(conn *core.Connection) {
	s.cmu.Lock()
	if s.stopping {
		s.cmu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.recvWG.Add(1)
	s.cmu.Unlock()
	go s.recvLoop(conn)
}

// recvLoop reads one connection and admits its calls to the server's
// queue; replies — including no-method replies — go out from workers,
// so a reply send blocking on a reliable connection's ack cycle never
// head-of-line-blocks the demultiplexing of later calls. The one
// inline reply is the shutting-down refusal, bounded because Shutdown
// closes served connections right after the drain. On exit (connection
// death or shutdown) the loop deregisters its connection, so a
// long-lived server does not accumulate dead ones.
func (s *Server) recvLoop(conn *core.Connection) {
	defer func() {
		s.cmu.Lock()
		delete(s.conns, conn)
		s.cmu.Unlock()
		s.recvWG.Done()
	}()
	for {
		m, err := conn.RecvMessage()
		if err != nil {
			return
		}
		s.admit(conn, m)
	}
}

// admit takes one call a connection's receive loop read and queues it
// for the workers.
func (s *Server) admit(conn *core.Connection, m core.Message) {
	if req, ok := s.take(conn, m); ok {
		s.queue.Put(req, false)
	}
}

// take admits one received message — the shared front half of both
// sources — and reports whether it became a request in flight.
// Loss-damaged or undecodable frames are dropped, never dispatched: the
// caller's deadline is the recovery path; a call that arrives while
// Shutdown drains is refused with an inline reply. m is borrowed: an
// admitted request carries it to serve, which releases it after the
// reply; every other way out releases it here.
func (s *Server) take(conn *core.Connection, m core.Message) (request, bool) {
	req, ok := s.parse(conn, m)
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

// parse decodes m into the request a worker will run; false means m is
// no well-formed call of either kind.
func (s *Server) parse(conn *core.Connection, m core.Message) (request, bool) {
	if m.Lost > 0 {
		return request{}, false
	}
	d := xdr.NewDecoder(m.Data)
	k, kerr := parseKind(d)
	if kerr != nil || (k != kindCall && k != kindStreamCall) {
		return request{}, false
	}
	req := request{conn: conn, msg: m}
	var cf callFrame
	if k == kindStreamCall {
		sf, err := parseStreamCall(d)
		if err != nil {
			return request{}, false
		}
		cf, req.stream, req.streamID, req.mode = sf.callFrame, true, sf.streamID, sf.mode
	} else {
		var err error
		if cf, err = parseCall(d); err != nil {
			return request{}, false
		}
	}
	s.hmu.RLock()
	if req.stream {
		req.sh = s.shandlers[string(cf.method)]
	} else {
		req.h = s.handlers[string(cf.method)]
	}
	s.hmu.RUnlock()
	req.id, req.payload = cf.id, cf.payload
	if cf.deadline > 0 {
		req.deadline = time.Now().Add(cf.deadline)
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
// down. Compare ServeConn, which parks a goroutine per connection.
func (s *Server) ServeInbox(ib *core.Inbox) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.stopping {
		ib.Close()
		return
	}
	s.inboxes = append(s.inboxes, ib)
	s.spawnWorkers("rpc-inbox-worker", func() (request, bool, error) {
		im, err := ib.Recv()
		if err != nil {
			return request{}, false, err
		}
		req, ok := s.take(im.Conn, im.Msg)
		return req, ok, nil
	})
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
// encoder is only repooled after a successful Send — a teardown-path
// Send Thread may still hold SDU views of its buffer.
func (s *Server) reply(conn *core.Connection, id uint64, status uint32, errmsg string, resp []byte) {
	enc := idleEncoders.Get()
	enc.Reset()
	appendReply(enc, id, status, errmsg, resp)
	if err := conn.Send(enc.Bytes()); err == nil {
		putEncoder(enc)
	}
}

// Shutdown stops the server gracefully: new calls are refused with
// ErrShuttingDown, every already-admitted call — queued, or taken by an
// inbox's thread — runs to completion and its reply is sent, then the
// workers' sources close (the connection queue and every served inbox),
// the workers and the thread package stop, and the served connections
// are torn down. Safe to call more than once; subsequent calls wait for
// the first to finish.
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
		close(s.qdone)
		for _, ib := range inboxes {
			ib.Close()
		}
		s.pkg.Shutdown()
		for _, conn := range conns {
			conn.Close()
		}
	})
	s.recvWG.Wait()
}
