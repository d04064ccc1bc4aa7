package network

import (
	"bufio"
	"errors"
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
//
// The embedded site table holds the handlers of the sites hosted here
// and this instance's fault view, which it applies to outbound frames
// and to inbound ones alike.
type TCP struct {
	sites
	opt  TCPOptions
	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex // guards the fields below, not the site table
	local       map[clock.SiteID]bool
	peers       map[clock.SiteID]string
	pool        map[string]*tcpPeer
	serverConns map[net.Conn]bool
	rng         *rand.Rand
	closed      bool

	reqID atomic.Uint64
}

var _ Transport = (*TCP)(nil)

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
		opt:         opt,
		ln:          ln,
		done:        make(chan struct{}),
		local:       make(map[clock.SiteID]bool, len(opt.Local)),
		peers:       make(map[clock.SiteID]string, len(opt.Peers)),
		pool:        make(map[string]*tcpPeer),
		serverConns: make(map[net.Conn]bool),
	}
	t.init()
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

// Send delivers one message as a frame of one.
func (t *TCP) Send(from, to clock.SiteID, payload []byte) error {
	return t.SendBatch(from, to, [][]byte{payload})
}

// Call performs a synchronous round trip and returns the handler's
// response payload.
func (t *TCP) Call(from, to clock.SiteID, payload []byte) ([]byte, error) {
	return t.roundTrip(frameCall, from, to, [][]byte{payload})
}

// SendBatch delivers a whole frame of messages in one network transit,
// acknowledged by a single response — the SendBatch framing carried
// verbatim onto the wire.  All-or-nothing: any error retries the whole
// frame and receiver dedup absorbs repeats.
func (t *TCP) SendBatch(from, to clock.SiteID, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	_, err := t.roundTrip(frameBatch, from, to, payloads)
	return err
}

// roundTrip is the shared send path: local-view fault checks, then
// either in-process dispatch (local destination) or one framed request
// over the peer's pooled connection.  A call carries one payload.
func (t *TCP) roundTrip(kind byte, from, to clock.SiteID, payloads [][]byte) ([]byte, error) {
	t.mu.Lock()
	closed, isLocal, addr := t.closed, t.local[to], t.peers[to]
	t.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	n := uint64(len(payloads))
	if err := t.send(from, to, n); err != nil {
		return nil, err
	}
	if isLocal {
		// A site hosted by this very instance: no socket, no codec, same
		// contract and counters.
		sw := stopwatch.Start()
		resp, err := t.dispatch(from, to, payloads, kind == frameCall)
		t.met.LatencySeconds.Observe(int64(sw.Elapsed()))
		return resp, err
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

	// Every frame carries the sender's causal stamp, so receiver-side
	// events order after sender-side ones.
	ring := t.ring.Load()
	buf := getFrameBuf()
	b := appendFrameHeader(*buf, kind, req, from, to, ring.Stamp())
	if kind == frameBatch {
		b = appendBatchBody(b, payloads)
	} else {
		b = append(b, payloads[0]...)
	}
	finishFrame(b, 0)
	*buf = b

	sw := stopwatch.Start()
	err := p.submit(req, ch, *buf)
	putFrameBuf(buf)
	if err != nil {
		return nil, err
	}

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
	if ring != nil && kind == frameBatch {
		// The span covers write → acknowledged response: the remote
		// handler has durably accepted the payload(s).
		ring.RecordSpan(trace.NetSend, int(from), "", 0, sw.Began(), fmt.Sprintf("to=%d n=%d", to, n))
	}
	return r.body, nil
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
		p.t.ring.Load().ObserveStamp(f.stamp)
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
	for {
		f, err := readFrame(br)
		if err != nil {
			return // EOF, codec mismatch, or torn frame: drop the conn
		}
		status, body := t.serve(f)
		// The response carries this process's causal stamp back, so the
		// sender's later events order after work its frame caused here.
		buf := getFrameBuf()
		b := appendFrameHeader(*buf, frameResp, f.req, f.to, f.from, t.ring.Load().Stamp())
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

// serve runs one inbound frame against this instance's local view: the
// fault check first, then the destination's handlers.
func (t *TCP) serve(f frame) (status byte, body []byte) {
	ring := t.ring.Load()
	// Merge the sender's causal stamp before any handler records
	// events, so everything this frame causes stamps after its sender.
	ring.ObserveStamp(f.stamp)
	var payloads [][]byte
	switch f.kind {
	case frameCall:
		payloads = [][]byte{f.body}
	case frameBatch:
		var err error
		if payloads, err = splitBatchBody(f.body); err != nil {
			return respErr, []byte(err.Error())
		}
	default:
		return respErr, []byte(fmt.Sprintf("network: unknown frame kind %d", f.kind))
	}
	if err := t.fault(f.from, f.to, uint64(len(payloads))); errors.Is(err, ErrPartitioned) {
		return respPartitioned, nil
	} else if err != nil {
		return respSiteDown, nil
	}
	body, err := t.dispatch(f.from, f.to, payloads, f.kind == frameCall)
	switch {
	case errors.Is(err, ErrUnknownSite):
		return respUnknownSite, []byte(fmt.Sprintf("%v", f.to))
	case err != nil:
		return respErr, []byte(err.Error())
	}
	if ring != nil && f.kind == frameBatch {
		ring.RecordMSetf(trace.NetRecv, int(f.to), "", 0, "from=%d n=%d", f.from, len(payloads))
	}
	return respOK, body
}
