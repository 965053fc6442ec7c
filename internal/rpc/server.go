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
	// Workers is the dispatcher pool size. Default 4.
	Workers int
	// Threads selects the worker thread architecture (§4.1): kernel
	// level (default) overlaps handlers across cores; user level runs
	// them on the cooperative scheduler, where one blocking handler
	// stalls the pool — the Figure 10 trade-off applied to RPC dispatch.
	Threads thread.Model
}

// request is one admitted call waiting for (or on) a worker. A nil h
// (or, for streaming calls, nil sh) marks a call to an unregistered
// method: the worker sends the no-method reply, so the demux loop
// never blocks on a reply send.
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
// connections onto a worker pool built from internal/thread. Register
// handlers with Handle, attach connections with ServeConn, and stop
// with Shutdown, which drains in-flight calls before tearing down.
type Server struct {
	opts ServerOptions
	pkg  thread.Package

	hmu       sync.RWMutex
	handlers  map[string]Handler
	shandlers map[string]StreamHandler

	// The dispatch queue: a slice ring guarded by qmu, with sem (a
	// thread.Semaphore, so user-level workers park cooperatively)
	// counting queued requests. draining rejects new admissions;
	// wstop, together with an empty queue, tells a woken worker to
	// exit.
	qmu      sync.Mutex
	queue    []request
	head     int
	sem      thread.Semaphore
	draining bool
	wstop    bool

	inflight sync.WaitGroup // admitted requests not yet replied to

	cmu      sync.Mutex
	conns    map[*core.Connection]struct{}
	inboxes  []*core.Inbox
	stopping bool // Shutdown began; refuse new connections
	recvWG   sync.WaitGroup

	shutdownOnce sync.Once
}

// NewServer creates a server and starts its worker pool. The server
// owns the thread package it builds from opts.
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
		conns:    make(map[*core.Connection]struct{}),
	}
	s.sem = s.pkg.NewSemaphore(0)
	for i := 0; i < opts.Workers; i++ {
		// Spawn cannot fail on a fresh package.
		s.pkg.Spawn(fmt.Sprintf("rpc-worker-%d", i), s.worker)
	}
	return s
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

// recvLoop reads one connection and admits its calls to the worker
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

// admit parses one received message and, when it is a well-formed
// call, admits it to the worker queue — the shared back half of
// recvLoop and inboxLoop. Loss-damaged or undecodable frames are
// dropped, never dispatched: the caller's deadline is the recovery
// path. m is borrowed: a queued request carries it to the worker, which
// releases it after the reply; every other way out releases it here.
func (s *Server) admit(conn *core.Connection, m core.Message) {
	req, ok := s.parse(conn, m)
	if !ok {
		m.Release()
		return
	}
	// Admission happens under qmu so Shutdown's draining flag and
	// inflight.Wait cannot race a late arrival.
	s.qmu.Lock()
	if s.draining {
		s.qmu.Unlock()
		m.Release()
		s.reply(conn, req.id, statusShuttingDown, "", nil)
		return
	}
	s.inflight.Add(1)
	mServerInflight.Inc()
	s.queue = append(s.queue, req)
	s.qmu.Unlock()
	s.sem.Release()
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

// ServeInbox serves every connection bound to ib with ONE
// demultiplexing goroutine, however many connections feed it — the
// RPC-layer counterpart of the core's sharded runtime. The caller
// binds accepted connections (Connection.BindInbox) and owns their
// lifecycle; the loop runs until the inbox closes or the server shuts
// down. Compare ServeConn, which parks a goroutine per connection.
func (s *Server) ServeInbox(ib *core.Inbox) {
	s.cmu.Lock()
	if s.stopping {
		s.cmu.Unlock()
		ib.Close()
		return
	}
	s.inboxes = append(s.inboxes, ib)
	s.recvWG.Add(1)
	s.cmu.Unlock()
	go s.inboxLoop(ib)
}

// inboxLoop is recvLoop over a shared inbox: the same admission, with
// the source connection taken per-message from the delivery.
func (s *Server) inboxLoop(ib *core.Inbox) {
	defer s.recvWG.Done()
	for {
		im, err := ib.Recv()
		if err != nil {
			return
		}
		s.admit(im.Conn, im.Msg)
	}
}

// worker is one pool thread: wait for an admitted request, run it,
// repeat. A semaphore release without a queued request is the shutdown
// sentinel.
func (s *Server) worker() {
	for {
		s.sem.Acquire()
		s.qmu.Lock()
		if s.wstop && s.head == len(s.queue) {
			s.qmu.Unlock()
			return
		}
		req := s.queue[s.head]
		s.queue[s.head] = request{}
		s.head++
		if s.head == len(s.queue) {
			s.queue = s.queue[:0]
			s.head = 0
		} else if s.head > 64 && s.head*2 >= len(s.queue) {
			// Under sustained backlog the queue never fully drains, so
			// compact the consumed prefix rather than letting append
			// grow the backing array without bound.
			n := copy(s.queue, s.queue[s.head:])
			for i := n; i < len(s.queue); i++ {
				s.queue[i] = request{}
			}
			s.queue = s.queue[:n]
			s.head = 0
		}
		s.qmu.Unlock()
		if req.stream {
			s.dispatchStream(req)
		} else {
			s.dispatch(req)
		}
		req.msg.Release() // the reply is sent: nothing aliases the frame now
		s.inflight.Done()
		mServerInflight.Dec()
	}
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
// ErrShuttingDown, every already-admitted call runs to completion and
// its reply is sent, then the workers, the thread package, and the
// served connections are torn down. Safe to call more than once;
// subsequent calls wait for the first to finish.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() {
		s.qmu.Lock()
		s.draining = true
		s.qmu.Unlock()

		// Drain: every admitted request replied to.
		s.inflight.Wait()

		// Wake each worker once with nothing queued; they exit.
		s.qmu.Lock()
		s.wstop = true
		s.qmu.Unlock()
		for i := 0; i < s.opts.Workers; i++ {
			s.sem.Release()
		}
		s.pkg.Shutdown()

		s.cmu.Lock()
		s.stopping = true
		conns := make([]*core.Connection, 0, len(s.conns))
		for conn := range s.conns {
			conns = append(conns, conn)
		}
		inboxes := s.inboxes
		s.inboxes = nil
		s.cmu.Unlock()
		for _, conn := range conns {
			conn.Close()
		}
		for _, ib := range inboxes {
			ib.Close()
		}
	})
	s.recvWG.Wait()
}
