package network

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/stopwatch"
	"esr/internal/trace"
)

// TCPOptions parameterizes a TCP transport instance.  One instance
// backs one process: it hosts the sites listed in Local (delivered
// in-process) and reaches every other site through the Peers address
// map.
type TCPOptions struct {
	// Listen is the address to accept peer connections on
	// ("127.0.0.1:0" picks a free port; read it back with Addr).
	Listen string
	// Local lists the sites this instance hosts.  Frames addressed to a
	// local site dispatch straight to its registered handler; everything
	// else routes through Peers.
	Local []clock.SiteID
	// Peers maps remote site IDs to "host:port" addresses.  Multiple
	// sites may share one address (a process hosting a replica site plus
	// a virtual service like the ORDUP sequencer); they share one
	// connection pool entry.  AddPeer extends the map after construction
	// (two-phase wiring when addresses are only known once every node
	// has bound its listener).
	Peers map[clock.SiteID]string
	// Seed seeds the reconnect-jitter randomness (mixed with the listen
	// address so identically-seeded nodes do not retry in lockstep).
	Seed int64
	// DialTimeout bounds one connection attempt.  Default 1s.
	DialTimeout time.Duration
	// ReconnectMin/ReconnectMax bound the exponential backoff between
	// failed dials to one peer.  Defaults 25ms and 2s.  While a peer is
	// in backoff, sends to it fail fast with ErrUnreachable and the
	// stable-queue delivery agents retry on their own schedule.
	ReconnectMin, ReconnectMax time.Duration
	// IOTimeout bounds one request round trip (frame write to response
	// receipt).  Default 30s; a peer that stops responding fails the
	// in-flight operations so the delivery agents can back off.
	IOTimeout time.Duration
}

// TCP is a Transport over real sockets: length-prefixed versioned
// frames (see frame.go), one multiplexed connection per peer address
// with reconnect, exponential backoff and jitter, and write coalescing
// so concurrent senders share syscalls.  It implements the same
// at-least-once contract as Sim; the conformance suite runs against
// both.
type TCP struct {
	opt  TCPOptions
	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu            sync.Mutex
	handlers      map[clock.SiteID]Handler
	batchHandlers map[clock.SiteID]BatchHandler
	local         map[clock.SiteID]bool
	peers         map[clock.SiteID]string
	pool          map[string]*tcpPeer
	serverConns   map[net.Conn]bool
	partition     map[clock.SiteID]int
	down          map[clock.SiteID]bool
	stats         Stats
	met           Metrics
	ring          *trace.Ring
	rng           *rand.Rand
	closed        bool

	reqID atomic.Uint64
}

// TCP implements Transport (and its traced extension).
var (
	_ Transport       = (*TCP)(nil)
	_ TracedTransport = (*TCP)(nil)
)

// tcpResp is a response delivered to a waiting sender.
type tcpResp struct {
	status byte
	body   []byte
	err    error // transport-level failure (connection died, closed)
}

// tcpPeer is the client side of one peer address: a single multiplexed
// connection, the coalescing write buffer, and the in-flight request
// table.  mu guards every field.
type tcpPeer struct {
	t    *TCP
	addr string

	mu       sync.Mutex
	conn     net.Conn
	wbuf     *[]byte // pending frame bytes, flushed by flushLoop
	flushC   chan struct{}
	pending  map[uint64]chan tcpResp
	dialing  bool
	dialDone chan struct{} // closed when the in-progress dial resolves
	cooling  bool
	backoff  time.Duration
}

// NewTCP builds a TCP transport: it binds the listener immediately (so
// Addr is valid before any peer is wired) and starts the accept loop.
func NewTCP(opt TCPOptions) (*TCP, error) {
	if opt.Listen == "" {
		return nil, fmt.Errorf("network: TCPOptions.Listen is required")
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = time.Second
	}
	if opt.ReconnectMin <= 0 {
		opt.ReconnectMin = 25 * time.Millisecond
	}
	if opt.ReconnectMax <= 0 {
		opt.ReconnectMax = 2 * time.Second
	}
	if opt.IOTimeout <= 0 {
		opt.IOTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", opt.Listen)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", opt.Listen, err)
	}
	t := &TCP{
		opt:           opt,
		ln:            ln,
		done:          make(chan struct{}),
		handlers:      make(map[clock.SiteID]Handler),
		batchHandlers: make(map[clock.SiteID]BatchHandler),
		local:         make(map[clock.SiteID]bool, len(opt.Local)),
		peers:         make(map[clock.SiteID]string, len(opt.Peers)),
		pool:          make(map[string]*tcpPeer),
		serverConns:   make(map[net.Conn]bool),
		partition:     make(map[clock.SiteID]int),
		down:          make(map[clock.SiteID]bool),
	}
	for _, s := range opt.Local {
		t.local[s] = true
	}
	for s, a := range opt.Peers {
		t.peers[s] = a
	}
	h := fnv.New64a()
	h.Write([]byte(ln.Addr().String()))
	t.rng = rand.New(rand.NewSource(opt.Seed ^ int64(h.Sum64())))
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's actual address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// AddPeer maps a remote site to its address after construction.
func (t *TCP) AddPeer(site clock.SiteID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[site] = addr
}

// Register installs the message handler for a site hosted here.
func (t *TCP) Register(site clock.SiteID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[site] = h
}

// RegisterBatch installs the frame handler for a site hosted here.
func (t *TCP) RegisterBatch(site clock.SiteID, h BatchHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batchHandlers[site] = h
}

// SetMetrics installs instrumentation.  Call before concurrent use.
func (t *TCP) SetMetrics(m Metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.met = m
}

// SetTrace installs the trace ring: outgoing frames carry its causal
// stamp, inbound frames merge theirs into it, and frame-level
// net-send/net-recv spans are recorded.  Call before concurrent use.
func (t *TCP) SetTrace(r *trace.Ring) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = r
}

// Stats returns a snapshot of the cumulative transport statistics.
func (t *TCP) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Partition splits the sites into groups from this instance's point of
// view: outbound messages across groups fail with ErrPartitioned, and
// inbound frames across groups are rejected the same way.
func (t *TCP) Partition(groups ...[]clock.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partition = make(map[clock.SiteID]int)
	for g, sites := range groups {
		for _, s := range sites {
			t.partition[s] = g
		}
	}
}

// Heal removes all partitions.
func (t *TCP) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partition = make(map[clock.SiteID]int)
}

// Reachable reports whether a and b are in the same partition and both
// up, from this instance's point of view.
func (t *TCP) Reachable(a, b clock.SiteID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partition[a] == t.partition[b] && !t.down[a] && !t.down[b]
}

// Crash marks a site as down: messages to and from it fail with
// ErrSiteDown until Restart, and inbound frames addressed to it are
// rejected.
func (t *TCP) Crash(site clock.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[site] = true
}

// Restart marks a crashed site as up again.
func (t *TCP) Restart(site clock.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.down, site)
}

// Close shuts the transport down gracefully: the listener stops, every
// connection closes, in-flight operations fail with ErrClosed, and all
// goroutines join before Close returns.  Idempotent.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	t.ln.Close()
	for c := range t.serverConns {
		c.Close()
	}
	pool := make([]*tcpPeer, 0, len(t.pool))
	for _, p := range t.pool {
		pool = append(pool, p)
	}
	t.mu.Unlock()
	for _, p := range pool {
		p.mu.Lock()
		c := p.conn
		p.conn = nil
		p.mu.Unlock()
		if c != nil {
			c.Close()
		}
		p.failPending(ErrClosed)
	}
	t.wg.Wait()
	return nil
}

// Send delivers a one-way message.  nil means the destination handler
// ran and succeeded (the implicit acknowledgement over the response
// frame); any error means the message must be retried by the caller.
func (t *TCP) Send(from, to clock.SiteID, payload []byte) error {
	_, err := t.roundTrip(frameSend, from, to, payload, nil, nil, TraceContext{})
	return err
}

// SendTraced is Send carrying a causal trace context in the frame.
func (t *TCP) SendTraced(from, to clock.SiteID, payload []byte, tc TraceContext) error {
	_, err := t.roundTrip(frameSend, from, to, payload, nil, nil, tc)
	return err
}

// Call performs a synchronous round trip and returns the handler's
// response payload.
func (t *TCP) Call(from, to clock.SiteID, payload []byte) ([]byte, error) {
	return t.roundTrip(frameCall, from, to, payload, nil, nil, TraceContext{})
}

// SendBatch delivers a whole frame of messages in one network transit,
// acknowledged by a single response — the SendBatch framing carried
// verbatim onto the wire.  All-or-nothing: any error retries the whole
// batch and receiver dedup absorbs repeats.
func (t *TCP) SendBatch(from, to clock.SiteID, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	_, err := t.roundTrip(frameBatch, from, to, nil, payloads, nil, TraceContext{})
	return err
}

// SendBatchTraced is SendBatch carrying a causal trace context plus
// the per-message MSet identities in the frame body.
func (t *TCP) SendBatchTraced(from, to clock.SiteID, payloads [][]byte, ids []uint64, tc TraceContext) error {
	if len(payloads) == 0 {
		return nil
	}
	_, err := t.roundTrip(frameBatch, from, to, nil, payloads, ids, tc)
	return err
}

// roundTrip is the shared send path: local-view fault checks, then
// either in-process dispatch (local destination) or one framed request
// over the peer's pooled connection.
func (t *TCP) roundTrip(kind byte, from, to clock.SiteID, payload []byte, batch [][]byte, ids []uint64, tc TraceContext) ([]byte, error) {
	n := uint64(1)
	if kind == frameBatch {
		n = uint64(len(batch))
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.stats.Sent += n
	t.met.Sent.Add(n)
	partitioned := t.partition[from] != t.partition[to]
	isDown := t.down[from] || t.down[to]
	isLocal := t.local[to]
	addr := t.peers[to]
	ring := t.ring
	t.mu.Unlock()
	if ring != nil && tc.Stamp == 0 {
		// Every frame carries the sender's causal stamp, even untraced
		// ones, so receiver-side events order after sender-side ones.
		tc.Stamp = ring.Stamp()
	}
	if partitioned {
		t.count(func(s *Stats) { s.Partitioned += n })
		t.met.Partitioned.Add(n)
		return nil, ErrPartitioned
	}
	if isDown {
		return nil, ErrSiteDown
	}
	if isLocal {
		return t.dispatchLocal(kind, from, to, payload, batch, n)
	}
	if addr == "" {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSite, to)
	}

	p := t.peer(addr)
	if err := p.ensureConn(); err != nil {
		return nil, err
	}
	req := t.reqID.Add(1)
	ch := make(chan tcpResp, 1)

	buf := getFrameBuf()
	b := appendFrameHeader(*buf, kind, req, from, to, tc)
	if kind == frameBatch {
		b = appendBatchBody(b, batch, ids)
	} else {
		b = append(b, payload...)
	}
	finishFrame(b, 0)
	*buf = b

	sw := stopwatch.Start()
	if err := p.submit(req, ch, *buf); err != nil {
		putFrameBuf(buf)
		return nil, err
	}
	putFrameBuf(buf)

	timer := time.NewTimer(t.opt.IOTimeout)
	defer timer.Stop()
	var r tcpResp
	select {
	case r = <-ch:
	case <-t.done:
		p.forget(req)
		return nil, ErrClosed
	case <-timer.C:
		p.forget(req)
		return nil, fmt.Errorf("%w: %s: no response within %v", ErrUnreachable, addr, t.opt.IOTimeout)
	}
	t.met.LatencySeconds.Observe(int64(sw.Elapsed()))
	if r.err != nil {
		return nil, r.err
	}
	if r.status != respOK {
		if r.status == respPartitioned {
			t.count(func(s *Stats) { s.Partitioned += n })
			t.met.Partitioned.Add(n)
		}
		return nil, respError(r.status, r.body)
	}
	if ring != nil && kind != frameCall {
		// The span covers write → acknowledged response: the remote
		// handler has durably accepted the payload(s).
		ring.RecordSpan(trace.NetSend, int(from), "", tc.MSet, sw.Began(), fmt.Sprintf("to=%d n=%d", to, n))
	}
	return r.body, nil
}

// dispatchLocal short-circuits a frame addressed to a site hosted by
// this very instance: no socket, no codec, same contract and counters.
func (t *TCP) dispatchLocal(kind byte, from, to clock.SiteID, payload []byte, batch [][]byte, n uint64) ([]byte, error) {
	sw := stopwatch.Start()
	t.mu.Lock()
	h := t.handlers[to]
	bh := t.batchHandlers[to]
	t.mu.Unlock()
	if h == nil && bh == nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSite, to)
	}
	var resp []byte
	var bytes uint64
	switch kind {
	case frameBatch:
		for _, p := range batch {
			bytes += uint64(len(p))
		}
		if bh != nil {
			if err := bh(from, batch); err != nil {
				return nil, err
			}
		} else {
			for _, p := range batch {
				if _, err := h(from, p); err != nil {
					return nil, err
				}
			}
		}
	default:
		if h == nil {
			return nil, fmt.Errorf("%w: %v (no per-message handler)", ErrUnknownSite, to)
		}
		r, err := h(from, payload)
		if err != nil {
			return nil, err
		}
		resp = r
		bytes = uint64(len(payload))
	}
	t.met.LatencySeconds.Observe(int64(sw.Elapsed()))
	t.count(func(s *Stats) {
		s.Delivered += n
		s.Bytes += bytes
		if kind == frameBatch {
			s.Frames++
		}
	})
	t.met.Delivered.Add(n)
	t.met.Bytes.Add(bytes)
	if kind == frameBatch {
		t.met.Frames.Inc()
	}
	return resp, nil
}

// peer returns (creating if needed) the pool entry for an address.
func (t *TCP) peer(addr string) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pool[addr]
	if !ok {
		p = &tcpPeer{
			t:       t,
			addr:    addr,
			flushC:  make(chan struct{}, 1),
			pending: make(map[uint64]chan tcpResp),
			backoff: t.opt.ReconnectMin,
		}
		t.pool[addr] = p
		t.wg.Add(1)
		go p.flushLoop()
	}
	return p
}

// ensureConn returns once the peer has a live connection, dialing if
// necessary.  Concurrent callers share one dial (they wait for it to
// resolve rather than stampeding the peer); while the peer is in
// reconnect backoff, callers fail fast with ErrUnreachable — the
// stable-queue delivery agents own the retry cadence.
func (p *tcpPeer) ensureConn() error {
	for {
		p.mu.Lock()
		if p.conn != nil {
			p.mu.Unlock()
			return nil
		}
		if p.cooling {
			p.mu.Unlock()
			return fmt.Errorf("%w: %s (reconnect backoff)", ErrUnreachable, p.addr)
		}
		if p.dialing {
			done := p.dialDone
			p.mu.Unlock()
			select {
			case <-done:
				continue // re-check: connected, cooling, or retry
			case <-p.t.done:
				return ErrClosed
			}
		}
		p.dialing = true
		p.dialDone = make(chan struct{})
		p.mu.Unlock()
		break
	}

	c, err := net.DialTimeout("tcp", p.addr, p.t.opt.DialTimeout)
	p.mu.Lock()
	p.dialing = false
	close(p.dialDone)
	if err != nil {
		d := p.backoff
		p.backoff *= 2
		if p.backoff > p.t.opt.ReconnectMax {
			p.backoff = p.t.opt.ReconnectMax
		}
		p.cooling = true
		p.mu.Unlock()
		p.t.wg.Add(1)
		go p.cooldown(p.t.jitter(d))
		// A refused or timed-out dial is the remote-process analogue of
		// ErrSiteDown: the peer may be mid-restart.  Carry the
		// ErrUnreachable sentinel (like every other lost-connection
		// path here) so retry agents and the sequencer client keep
		// trying instead of treating a restarting peer as fatal.
		return fmt.Errorf("%w: dial %s: %v", ErrUnreachable, p.addr, err)
	}
	select {
	case <-p.t.done:
		p.mu.Unlock()
		c.Close()
		return ErrClosed
	default:
	}
	p.conn = c
	p.backoff = p.t.opt.ReconnectMin
	p.t.wg.Add(1)
	go p.readLoop(c)
	p.mu.Unlock()
	p.t.count(func(s *Stats) { s.Dials++ })
	return nil
}

// cooldown holds the peer in backoff for d, then allows the next dial.
func (p *tcpPeer) cooldown(d time.Duration) {
	defer p.t.wg.Done()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-p.t.done:
	case <-timer.C:
	}
	p.mu.Lock()
	p.cooling = false
	p.mu.Unlock()
}

// jitter spreads a backoff delay over [d/2, 3d/2) so peers sharing a
// seed do not reconnect in lockstep.
func (t *TCP) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	t.mu.Lock()
	j := time.Duration(t.rng.Int63n(int64(d)))
	t.mu.Unlock()
	return d/2 + j
}

// submit registers the in-flight request and appends its frame to the
// coalescing write buffer, waking the flusher.  The registration and
// the append are atomic under the peer mutex, so a connection failure
// either rejects the submit outright or fails the pending entry —
// never neither.
func (p *tcpPeer) submit(req uint64, ch chan tcpResp, frameBytes []byte) error {
	p.mu.Lock()
	if p.conn == nil {
		p.mu.Unlock()
		return fmt.Errorf("%w: %s (connection lost)", ErrUnreachable, p.addr)
	}
	p.pending[req] = ch
	if p.wbuf == nil {
		p.wbuf = getFrameBuf()
	}
	*p.wbuf = append(*p.wbuf, frameBytes...)
	p.mu.Unlock()
	select {
	case p.flushC <- struct{}{}:
	default:
	}
	return nil
}

// forget drops an in-flight request (timeout, shutdown); a late
// response for it is discarded by readLoop.
func (p *tcpPeer) forget(req uint64) {
	p.mu.Lock()
	delete(p.pending, req)
	p.mu.Unlock()
}

// flushLoop is the peer's single writer: it swaps out the coalescing
// buffer and writes it in one syscall, so concurrent senders that
// submitted while a flush was in flight share the next one.
func (p *tcpPeer) flushLoop() {
	defer p.t.wg.Done()
	for {
		select {
		case <-p.t.done:
			return
		case <-p.flushC:
		}
		p.mu.Lock()
		buf := p.wbuf
		p.wbuf = nil
		c := p.conn
		p.mu.Unlock()
		if buf == nil {
			continue
		}
		if c == nil {
			// Connection died between submit and flush; the pending
			// entries were already failed by readLoop.
			putFrameBuf(buf)
			continue
		}
		_, err := c.Write(*buf)
		putFrameBuf(buf)
		if err != nil {
			p.fail(c, fmt.Errorf("%w: %s: %v", ErrUnreachable, p.addr, err))
		}
	}
}

// readLoop decodes response frames off one connection and resolves the
// matching in-flight requests.  Any read error (including Close tearing
// the socket down) fails the connection and every pending request.
func (p *tcpPeer) readLoop(c net.Conn) {
	defer p.t.wg.Done()
	p.t.mu.Lock()
	ring := p.t.ring
	p.t.mu.Unlock()
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			p.fail(c, fmt.Errorf("%w: %s: %v", ErrUnreachable, p.addr, err))
			return
		}
		if f.kind != frameResp || len(f.body) < 1 {
			continue
		}
		// A response carries the remote's causal stamp; merging it means
		// the caller's next events order after the work the call caused.
		ring.ObserveStamp(f.tc.Stamp)
		p.mu.Lock()
		ch := p.pending[f.req]
		delete(p.pending, f.req)
		p.mu.Unlock()
		if ch != nil {
			ch <- tcpResp{status: f.body[0], body: f.body[1:]}
		}
	}
}

// fail tears a connection down and fails every request in flight on it.
func (p *tcpPeer) fail(c net.Conn, err error) {
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
	c.Close()
	p.failPending(err)
}

// failPending resolves every in-flight request with err.
func (p *tcpPeer) failPending(err error) {
	p.mu.Lock()
	pend := p.pending
	p.pending = make(map[uint64]chan tcpResp)
	p.mu.Unlock()
	for _, ch := range pend {
		ch <- tcpResp{err: err}
	}
}

// acceptLoop accepts peer connections until the listener closes.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
			default:
			}
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.serverConns[c] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// serveConn is the server side of one inbound connection: it decodes
// request frames, dispatches them to the registered handlers serially
// (per-connection FIFO, which preserves a peer's send order), and
// writes one response frame per request.  An unknown codec version
// closes the connection — framing beyond it cannot be trusted.
func (t *TCP) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.serverConns, c)
		t.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	t.mu.Lock()
	ring := t.ring
	t.mu.Unlock()
	for {
		f, err := readFrame(br)
		if err != nil {
			return // EOF, codec mismatch, or torn frame: drop the conn
		}
		status, body := t.dispatchRemote(f)
		// The response carries this process's causal stamp back, so the
		// sender's later events order after work its frame caused here.
		rtc := TraceContext{Stamp: ring.Stamp()}
		buf := getFrameBuf()
		b := appendFrameHeader(*buf, frameResp, f.req, f.to, f.from, rtc)
		b = append(b, status)
		b = append(b, body...)
		finishFrame(b, 0)
		*buf = b
		_, werr := bw.Write(*buf)
		if werr == nil && br.Buffered() == 0 {
			// Coalesce responses: only flush when no further request is
			// already waiting in the read buffer.
			werr = bw.Flush()
		}
		putFrameBuf(buf)
		if werr != nil {
			return
		}
	}
}

// dispatchRemote runs one inbound frame against this instance's local
// view: fault hooks first, then the destination handler.
func (t *TCP) dispatchRemote(f frame) (status byte, body []byte) {
	n := uint64(1)
	t.mu.Lock()
	partitioned := t.partition[f.from] != t.partition[f.to]
	isDown := t.down[f.from] || t.down[f.to]
	h := t.handlers[f.to]
	bh := t.batchHandlers[f.to]
	ring := t.ring
	t.mu.Unlock()
	// Merge the sender's causal stamp before any handler records
	// events, so everything this frame causes stamps after its sender.
	ring.ObserveStamp(f.tc.Stamp)
	if partitioned {
		t.count(func(s *Stats) { s.Partitioned++ })
		t.met.Partitioned.Inc()
		return respPartitioned, nil
	}
	if isDown {
		return respSiteDown, nil
	}
	if h == nil && bh == nil {
		return respUnknownSite, []byte(fmt.Sprintf("%v", f.to))
	}
	var bytes uint64
	switch f.kind {
	case frameBatch:
		payloads, _, err := splitBatchBody(f.body)
		if err != nil {
			return respErr, []byte(err.Error())
		}
		n = uint64(len(payloads))
		for _, p := range payloads {
			bytes += uint64(len(p))
		}
		if bh != nil {
			if err := bh(f.from, payloads); err != nil {
				return respErr, []byte(err.Error())
			}
		} else {
			for _, p := range payloads {
				if _, err := h(f.from, p); err != nil {
					return respErr, []byte(err.Error())
				}
			}
		}
	case frameSend, frameCall:
		if h == nil {
			return respUnknownSite, []byte(fmt.Sprintf("%v (no per-message handler)", f.to))
		}
		r, err := h(f.from, f.body)
		if err != nil {
			return respErr, []byte(err.Error())
		}
		body = r
		bytes = uint64(len(f.body))
	default:
		return respErr, []byte(fmt.Sprintf("network: unknown frame kind %d", f.kind))
	}
	t.count(func(s *Stats) {
		s.Delivered += n
		s.Bytes += bytes
		if f.kind == frameBatch {
			s.Frames++
		}
	})
	t.met.Delivered.Add(n)
	t.met.Bytes.Add(bytes)
	if f.kind == frameBatch {
		t.met.Frames.Inc()
	}
	if ring != nil && f.kind != frameCall {
		ring.RecordMSetf(trace.NetRecv, int(f.to), "", f.tc.MSet, "from=%d n=%d", f.from, n)
	}
	return respOK, body
}

func (t *TCP) count(f func(*Stats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}
