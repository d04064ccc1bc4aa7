// Package replica provides the per-site chassis every replica-control
// method builds on: the local stores, inbound stable queue, and the MSet
// processor goroutine.
//
// A Site executes the "MSet processing" step of the paper's framework
// (§2.4).  The method plugs in an ApplyFunc; the processor drains the
// inbound stable queue through it.  An ApplyFunc may return ErrHold to
// signal that an MSet is not yet eligible (ORDUP's in-order delivery,
// §3.1: "Each site simply waits for the next MSet in the execution
// sequence to show up before running other MSets") — the processor then
// skips it and retries after other MSets have been applied.
package replica

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/metrics"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/storage"
	"esr/internal/trace"
)

// ErrHold is returned by an ApplyFunc to defer an MSet without error.
var ErrHold = errors.New("replica: mset held back")

// ErrStale is returned by an ApplyFunc for an MSet that is already
// superseded at this site — its effect is covered by state the site
// holds (a sequence number below the cursor after a snapshot install, a
// pure protocol message like a sequencer heartbeat).  The message is
// acknowledged and removed like a successful apply, but callers that
// write-ahead log applied MSets must not log it: replaying it on
// recovery would double-apply state the covering record already
// carries.
var ErrStale = errors.New("replica: mset superseded")

// ApplyFunc applies one MSet at a site.  nil means applied (the MSet is
// acknowledged and removed); ErrHold means not yet eligible; any other
// error is recorded and the MSet retried later.
type ApplyFunc func(m et.MSet) error

// Stats are cumulative per-site counters.
type Stats struct {
	Received uint64 // MSets accepted into the inbound queue
	Applied  uint64 // MSets applied
	Held     uint64 // hold-back decisions
	Errors   uint64 // apply errors (excluding holds)
}

// Metrics instruments a site alongside Stats.  All fields optional (nil
// fields are no-ops); set before Start, like Trace.
type Metrics struct {
	// Received counts MSets accepted into the inbound queue.
	Received *metrics.Counter
	// Applied counts MSets applied.
	Applied *metrics.Counter
	// Held counts hold-back decisions (one per deferred scan, so a
	// long-held MSet counts many times — it measures hold pressure).
	Held *metrics.Counter
	// Errors counts apply errors (excluding holds).
	Errors *metrics.Counter
	// SeenEvictions counts applied-ID dedup entries evicted once the
	// retention horizon passes them.
	SeenEvictions *metrics.Counter
	// Parallelism records the number of apply workers the most recent
	// scheduling pass actually dispatched (1 when the pass ran inline).
	Parallelism *metrics.Gauge
	// ApplySeconds observes per-MSet apply latency (nanoseconds), one
	// series per worker slot; its remaining label is the worker index.
	ApplySeconds *metrics.HistogramVec
	// SafeTime publishes the site's SAFETIME watermark (the logical
	// Time component) after every apply.
	SafeTime *metrics.Gauge
	// Watermark publishes the committed (applied) watermark's logical
	// Time component after every apply.
	Watermark *metrics.Gauge
}

// Site is one replica site.
type Site struct {
	// ID is the site's identifier.
	ID clock.SiteID
	// Store is the site's one store: a version chain per object, whose
	// head is the object's current value.
	Store *storage.Store
	// MV points at Store: the older name, which benchmark/ still uses.
	MV *storage.Store
	// Clock is the site's Lamport clock.
	Clock *clock.Lamport
	// Trace, when non-nil, receives receive/hold/apply events.  Set it
	// before Start.
	Trace *trace.Ring
	// Metrics instruments the site's counters.  Set before Start.
	Metrics Metrics
	// Lag, when non-nil, is told about every applied MSet so the
	// cluster's commit→apply propagation-lag histogram can retire the
	// message for this site.  Set before Start.
	Lag *metrics.Lag
	// OnApplied, when non-nil, runs after each MSet the ApplyFunc applied
	// is recorded in the site's own bookkeeping, so whoever it tells
	// finds the site's watermark already past the MSet.  Set before
	// Start.
	OnApplied func(et.MSet)

	// ins holds one inbound stable queue per ordering shard (a single
	// entry on unsharded sites).  Each shard gets its own processor
	// goroutine, so one shard's hold-back or fsync never stalls another's
	// apply cursor; messages route by the shard folded into their message
	// identity (et.MsgShard).
	ins   []queue.Queue
	apply ApplyFunc

	workers int // apply worker pool size; set before Start

	mu         sync.Mutex
	cond       *sync.Cond
	pending    map[string]int               // object -> queued-but-unapplied update ETs touching it (no zero entries)
	epoch      map[string]uint64            // object -> update ETs applied here touching it
	frontier   []clock.Timestamp            // per-shard max applied MSet timestamp
	pendingTS  []map[uint64]clock.Timestamp // per-shard msgID -> TS of accepted-unapplied MSets
	tsHeap     [][]pendEntry                // per-shard min-heap over pendingTS, dead entries dropped lazily
	pendingAt  map[uint64]time.Time         // msgID -> wall-clock accept time (staleness age)
	accepts    []acceptEntry                // pendingAt in accept order, dead entries dropped lazily
	acceptHead int                          // accepts[acceptHead:] are the entries still in play
	stats      Stats
	seen       map[uint64]bool    // message IDs accepted (mirrors queue dedup)
	decoded    map[uint64]et.MSet // decode-once cache, evicted on ack
	heldOnce   map[uint64]bool    // messages whose first hold was traced
	ackRing    []uint64           // ring of acked IDs still in seen
	ackHead    int                // ring index of the oldest acked ID
	ackLen     int                // live entries in the ring
	retention  int                // how many acked IDs stay in seen

	kicks []chan struct{} // one processor waker per shard
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewSite assembles a site around a single inbound stable queue — the
// unsharded configuration.  Call SetApply and Start before delivering
// MSets.  The lock table is ignored: a site takes no locks, its apply
// scheduler is the only exclusion (see pass).
func NewSite(id clock.SiteID, in queue.Queue, _ lock.Table) *Site {
	return NewShardedSite(id, []queue.Queue{in})
}

// NewShardedSite assembles a site over one inbound stable queue per
// ordering shard.  Incoming MSets route to their shard's queue by the
// shard bits of their message identity, and Start launches one
// processor per shard so the shards' apply cursors advance
// independently.  The store, clock and dedup indexes stay site-wide:
// shards partition ordering, not state ownership.
func NewShardedSite(id clock.SiteID, ins []queue.Queue) *Site {
	if len(ins) == 0 {
		panic("replica: site needs at least one inbound queue")
	}
	st := storage.NewStore()
	s := &Site{
		ID:        id,
		Store:     st,
		MV:        st,
		Clock:     clock.NewLamport(id),
		ins:       ins,
		pending:   make(map[string]int),
		epoch:     make(map[string]uint64),
		frontier:  make([]clock.Timestamp, len(ins)),
		pendingTS: make([]map[uint64]clock.Timestamp, len(ins)),
		tsHeap:    make([][]pendEntry, len(ins)),
		pendingAt: make(map[uint64]time.Time),
		seen:      make(map[uint64]bool),
		decoded:   make(map[uint64]et.MSet),
		heldOnce:  make(map[uint64]bool),
		retention: defaultSeenRetention,
		workers:   runtime.GOMAXPROCS(0),
		kicks:     make([]chan struct{}, len(ins)),
		done:      make(chan struct{}),
	}
	for i := range s.kicks {
		s.kicks[i] = make(chan struct{}, 1)
	}
	for i := range s.pendingTS {
		s.pendingTS[i] = make(map[uint64]clock.Timestamp)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// shardOf routes a message identity to one of the site's inbound
// queues.  Identities always carry a shard below the cluster's shard
// count, but a defensive clamp keeps a stray identity from panicking
// the receive path.
func (s *Site) shardOf(msgID uint64) int {
	sh := et.MsgShard(msgID)
	if sh >= len(s.ins) {
		return 0
	}
	return sh
}

// SetApplyWorkers sizes the apply worker pool the scheduling pass may
// dispatch conflict groups onto.  n <= 0 restores the default
// (GOMAXPROCS).  Call before Start.
func (s *Site) SetApplyWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers = n
}

// defaultSeenRetention bounds how many applied message IDs the site's
// dedup set remembers.  Older duplicates fall to the inbound queue's own
// dedup (journal-backed queues keep their own horizon) or, at worst,
// re-apply through an idempotent ApplyFunc — still at-least-once.
const defaultSeenRetention = 4096

// SetSeenRetention overrides the applied-ID dedup horizon (for tests).
func (s *Site) SetSeenRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-home the ring under the new horizon: keep the acked IDs in
	// order, evicting any the smaller horizon no longer covers.
	old := make([]uint64, 0, s.ackLen)
	for i := 0; i < s.ackLen; i++ {
		old = append(old, s.ackRing[(s.ackHead+i)%len(s.ackRing)])
	}
	s.retention = n
	s.ackRing, s.ackHead, s.ackLen = nil, 0, 0
	for _, id := range old {
		s.recordAckedLocked(id)
	}
}

// SetApply installs the method-specific MSet executor.  Must be called
// before Start.
func (s *Site) SetApply(f ApplyFunc) { s.apply = f }

// Start launches one MSet processor per shard queue.
func (s *Site) Start() {
	if s.apply == nil {
		panic("replica: Start before SetApply")
	}
	for sh := range s.ins {
		s.wg.Add(1)
		go s.run(sh)
	}
}

// Stop shuts the processor down and waits for it.
func (s *Site) Stop() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.wg.Wait()
}

// Receive accepts one encoded MSet into the inbound stable queue.  It is
// the site's network handler: idempotent under redelivery, and it wakes
// the processor.
func (s *Site) Receive(payload []byte) error { return s.ReceiveBatch([][]byte{payload}) }

// ReceiveBatch accepts a whole frame of encoded MSets: one batch append
// into the stable queue (a single fsync on journal-backed queues) and
// one processor wake for the lot.  It is the site's batch network
// handler.  Each payload is decoded exactly once, and its message ID is
// derived from the MSet (et.MSet.MsgID), so redelivery dedups.  A
// malformed payload rejects the frame before anything is enqueued, so
// the sender's retry re-offers the entire batch.
func (s *Site) ReceiveBatch(payloads [][]byte) error {
	msgs := make([]queue.Message, len(payloads))
	decoded := make([]et.MSet, len(payloads))
	for i, p := range payloads {
		m, err := et.DecodeMSet(p)
		if err != nil {
			return fmt.Errorf("site %v: reject malformed mset: %w", s.ID, err)
		}
		msgs[i] = queue.Message{ID: m.MsgID(), Payload: p}
		decoded[i] = m
	}
	return s.ReceiveDecodedBatch(msgs, decoded)
}

// ReceiveDecodedBatch is ReceiveBatch for callers that already hold the
// decoded MSets (an origin delivering its own broadcast, a recovery
// redelivering a journal); decoded[i] must correspond to msgs[i].
func (s *Site) ReceiveDecodedBatch(msgs []queue.Message, decoded []et.MSet) error {
	if len(msgs) != len(decoded) {
		return fmt.Errorf("site %v: batch length mismatch: %d msgs, %d msets", s.ID, len(msgs), len(decoded))
	}
	if len(msgs) == 0 {
		return nil
	}
	// Partition the frame by shard so each shard queue gets one batch
	// append (one fsync on journal-backed queues).  The overwhelmingly
	// common case — a whole frame on one shard, or an unsharded site —
	// appends the original slice without any regrouping.
	first := s.shardOf(msgs[0].ID)
	uniform := true
	for _, msg := range msgs[1:] {
		if s.shardOf(msg.ID) != first {
			uniform = false
			break
		}
	}
	if uniform {
		if err := s.ins[first].EnqueueBatch(msgs); err != nil {
			return err
		}
		s.mu.Lock()
		for i, msg := range msgs {
			s.indexLocked(msg, decoded[i], first)
		}
		s.mu.Unlock()
		s.kickShard(first)
		return nil
	}
	byShard := make([][]queue.Message, len(s.ins))
	for _, msg := range msgs {
		sh := s.shardOf(msg.ID)
		byShard[sh] = append(byShard[sh], msg)
	}
	for sh, part := range byShard {
		if len(part) == 0 {
			continue
		}
		if err := s.ins[sh].EnqueueBatch(part); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for i, msg := range msgs {
		s.indexLocked(msg, decoded[i], s.shardOf(msg.ID))
	}
	s.mu.Unlock()
	for sh, part := range byShard {
		if len(part) > 0 {
			s.kickShard(sh)
		}
	}
	return nil
}

// indexLocked folds one accepted message into the site's in-memory
// indexes.  Caller holds s.mu.
func (s *Site) indexLocked(msg queue.Message, m et.MSet, sh int) {
	if s.seen[msg.ID] {
		return
	}
	s.seen[msg.ID] = true
	s.decoded[msg.ID] = m
	s.stats.Received++
	s.Metrics.Received.Inc()
	s.acceptLocked(msg.ID, m, sh)
	if s.Trace != nil {
		s.Trace.RecordMSetf(trace.Receive, int(s.ID), m.ET.String(), msg.ID,
			"queue=%d", s.ins[sh].Len())
	}
}

// acceptLocked enters one accepted message into the indexes SAFETIME,
// Staleness and WaitDrained read: its objects' pending counts, its
// timestamp in the shard's SAFETIME heap and its accept time at the tail
// of the staleness FIFO.  indexLocked and Reload share it.  Caller holds
// s.mu.
func (s *Site) acceptLocked(id uint64, m et.MSet, sh int) {
	for _, obj := range op.Objects(m.Ops, false) {
		s.pending[obj]++
	}
	if ts, ok := s.pendingTS[sh][id]; !ok || ts != m.TS {
		s.pendingTS[sh][id] = m.TS
		s.tsHeap[sh] = pushTS(s.tsHeap[sh], pendEntry{ts: m.TS, id: id})
	}
	// Accept times are stamped here, under s.mu, in index order, so the
	// FIFO stays sorted by time and its oldest live entry is its head.
	now := time.Now()
	_, again := s.pendingAt[id]
	s.pendingAt[id] = now
	s.accepts = append(s.accepts, acceptEntry{at: now, id: id})
	s.compactLocked(sh)
	if again {
		// Re-accepting a message that never retired restamps its age,
		// which can lower Staleness: tell the gates.
		s.cond.Broadcast()
	}
	// Lamport receive rule: fold the MSet's timestamp into the local
	// clock so later local events order after it.
	s.Clock.Observe(m.TS)
}

// pendEntry is one accepted message in a shard's SAFETIME heap.  It is
// live while pendingTS still maps its id to its ts.
type pendEntry struct {
	ts clock.Timestamp
	id uint64
}

// acceptEntry is one accept in the staleness FIFO.  It is live while
// pendingAt still maps its id to its time: an apply or a later re-accept
// of the same id leaves it dead.
type acceptEntry struct {
	at time.Time
	id uint64
}

// compactSlack is how many dead entries the SAFETIME heaps and the
// staleness FIFO may hold beyond their live ones before compactLocked
// rebuilds them.
const compactSlack = 16

// compactLocked rebuilds shard sh's SAFETIME heap and the staleness FIFO
// once their dead entries outnumber the live ones (plus compactSlack).
// Dead entries otherwise leave only from the top, so one never-applied
// message pinning the minimum would keep every later dead entry forever.
// A rebuild costs its structure's length, and at least half of that is
// dead entries, each left by one apply or re-accept: amortised O(1).
// Caller holds s.mu.
func (s *Site) compactLocked(sh int) {
	if live := s.pendingTS[sh]; len(s.tsHeap[sh]) > 2*len(live)+compactSlack {
		// From the map, not the heap: a message applied and then accepted
		// again has two heap entries with one (id, ts), and both look live.
		h := s.tsHeap[sh][:0]
		for id, ts := range live {
			h = append(h, pendEntry{ts: ts, id: id})
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDownTS(h, i)
		}
		s.tsHeap[sh] = h
	}
	if len(s.accepts)-s.acceptHead > 2*len(s.pendingAt)+compactSlack {
		kept := s.accepts[:0]
		for _, e := range s.accepts[s.acceptHead:] {
			if at, ok := s.pendingAt[e.id]; ok && at == e.at {
				kept = append(kept, e)
			}
		}
		s.accepts, s.acceptHead = kept, 0
	}
}

// pushTS adds e to the min-heap h (ordered by ts).
func pushTS(h []pendEntry, e pendEntry) []pendEntry {
	h = append(h, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].ts.Less(h[p].ts) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// popTS removes the top of the min-heap h.
func popTS(h []pendEntry) []pendEntry {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDownTS(h, 0)
	return h
}

// siftDownTS restores the heap order below index i.
func siftDownTS(h []pendEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].ts.Less(h[c].ts) {
			c = r
		}
		if !h[c].ts.Less(h[i].ts) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Kick wakes every shard processor.
func (s *Site) Kick() {
	for sh := range s.kicks {
		s.kickShard(sh)
	}
}

// kickShard wakes one shard's processor.
func (s *Site) kickShard(sh int) {
	select {
	case s.kicks[sh] <- struct{}{}:
	default:
	}
}

// Pending reports how many update ETs are queued here, unapplied, that
// touch the object.  Queries use it to price staleness.
func (s *Site) Pending(object string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending[object]
}

// QueueLen reports the number of unapplied MSets across the site's
// inbound shard queues.
func (s *Site) QueueLen() int {
	n := 0
	for _, q := range s.ins {
		n += q.Len()
	}
	return n
}

// Epoch returns the count of update ETs applied at this site that touched
// the object.  The difference between two Epoch readings bounds the
// update ETs a query overlapped on that object.
func (s *Site) Epoch(object string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch[object]
}

// RestoreEpochs recounts the per-object applied-update epochs from
// recovered WAL records.  Epochs are in-memory evidence, so a restart
// would otherwise reset them to zero and strand any client whose
// monotonic-reads high-water mark predates the crash; recovery replays
// the same per-MSet counting the live apply path performs.
func (s *Site) RestoreEpochs(records []et.MSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range records {
		for _, obj := range op.Objects(m.Ops, false) {
			s.epoch[obj]++
		}
	}
}

// Stats returns a snapshot of the site's counters.
func (s *Site) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// WaitDrained blocks until no unapplied update MSet touching the object
// remains, or the timeout elapses.  This is the conservative path a query
// takes when its inconsistency counter is exhausted — it waits until it
// is effectively "running in the global order" (§3.1).
func (s *Site) WaitDrained(object string, timeout time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.waitLocked(timeout, func() bool { return s.pending[object] == 0 }) {
		return fmt.Errorf("site %v: object %q still has %d pending updates after %v",
			s.ID, object, s.pending[object], timeout)
	}
	return nil
}

// waitLocked parks on s.cond until done reports true or timeout elapses,
// and reports whether done held.  applied() broadcasts whenever it
// raises SAFETIME, lowers a pending count or retires an accept, so the
// only other wake a gate needs is its deadline: one timer per wait.
// Caller holds s.mu.
func (s *Site) waitLocked(timeout time.Duration, done func() bool) bool {
	if done() {
		return true
	}
	expired := false
	// The timer takes s.mu before it broadcasts, so it cannot fire in
	// the gap between a waiter's check and its cond.Wait.
	t := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		expired = true
		s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer t.Stop()
	for !done() {
		if expired {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// safeCeiling is the site tie-break used when stepping a timestamp just
// below an exclusive bound (mirrors RITU's VTNC ceiling).
const safeCeiling = clock.SiteID(1 << 30)

// prevTS returns the largest representable timestamp strictly below ts.
func prevTS(ts clock.Timestamp) clock.Timestamp {
	if ts.Site > 0 {
		return clock.Timestamp{Time: ts.Time, Site: ts.Site - 1}
	}
	if ts.Time == 0 {
		return clock.Timestamp{}
	}
	return clock.Timestamp{Time: ts.Time - 1, Site: safeCeiling}
}

// safeTimeLocked computes the SAFETIME watermark: the largest timestamp
// T such that every update MSet the site has accepted with TS ≤ T has
// been applied.  Snapshot reads at or below it are never torn (pending
// counts only drop after the ApplyFunc returns).  The minimum pending
// timestamp is the top of each shard's heap once dead tops are popped,
// so the cost is amortised O(log n) in the shard's pending MSets.
// Caller holds s.mu.
func (s *Site) safeTimeLocked() clock.Timestamp {
	var minPending clock.Timestamp
	havePending := false
	for sh, h := range s.tsHeap {
		for len(h) > 0 {
			if ts, ok := s.pendingTS[sh][h[0].id]; ok && ts == h[0].ts {
				break
			}
			h = popTS(h)
		}
		s.tsHeap[sh] = h
		if len(h) > 0 && (!havePending || h[0].ts.Less(minPending)) {
			minPending, havePending = h[0].ts, true
		}
	}
	if havePending {
		return prevTS(minPending)
	}
	// Nothing accepted is unapplied: the watermark is the newest applied
	// frontier across shards.  Idle shards impose no constraint — their
	// sequencer heartbeats flow through the same apply path and keep
	// advancing their frontier (the heartbeat floor evidence of PR 7/9).
	var max clock.Timestamp
	for _, f := range s.frontier {
		if max.Less(f) {
			max = f
		}
	}
	return max
}

// SafeTime returns the site's SAFETIME watermark — the largest timestamp
// at which a snapshot read observes every update the site has accepted.
// Strong and bounded-staleness reads gate on it (DESIGN.md §13).
func (s *Site) SafeTime() clock.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.safeTimeLocked()
}

// Watermark returns the committed (applied) watermark: the newest MSet
// timestamp applied at this site across all shards.  Unlike SafeTime it
// ignores queued-but-unapplied messages.
func (s *Site) Watermark() clock.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max clock.Timestamp
	for _, f := range s.frontier {
		if max.Less(f) {
			max = f
		}
	}
	return max
}

// Staleness reports how long the oldest accepted-but-unapplied MSet has
// been waiting — the wall-clock staleness bound Δt a bounded read
// compares against.  Zero when nothing is pending.
func (s *Site) Staleness() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalenessLocked()
}

// stalenessLocked is Staleness.  Caller holds s.mu.
func (s *Site) stalenessLocked() time.Duration {
	oldest, ok := s.oldestAcceptLocked()
	if !ok {
		return 0
	}
	return time.Since(oldest)
}

// oldestAcceptLocked returns the accept time of the oldest
// accepted-unapplied message: the head of the staleness FIFO once dead
// heads are dropped, amortised O(1).  Caller holds s.mu.
func (s *Site) oldestAcceptLocked() (time.Time, bool) {
	for s.acceptHead < len(s.accepts) {
		e := s.accepts[s.acceptHead]
		if at, ok := s.pendingAt[e.id]; ok && at == e.at {
			return at, true
		}
		s.acceptHead++
	}
	s.accepts, s.acceptHead = s.accepts[:0], 0
	return time.Time{}, false
}

// WaitSafe parks until the SAFETIME watermark reaches ts (the delayed-read
// gate: SNIPPETS.md snippet 1's "delay the read until the replica is
// caught up").  It returns how long it waited; on timeout it returns an
// error with the watermark still short of ts.
func (s *Site) WaitSafe(ts clock.Timestamp, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.waitLocked(timeout, func() bool { return !s.safeTimeLocked().Less(ts) }) {
		return time.Since(start), fmt.Errorf("site %v: SAFETIME %v still below %v after %v",
			s.ID, s.safeTimeLocked(), ts, timeout)
	}
	return time.Since(start), nil
}

// WaitStaleness parks until the site's wall-clock staleness is at most
// bound, or the timeout elapses (returning an error).  It returns how
// long it waited.
//
// Staleness only grows while the oldest accept waits, so only applied()
// retiring it (or a re-accept restamping it) can satisfy the gate, and
// both broadcast.
func (s *Site) WaitStaleness(bound, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.waitLocked(timeout, func() bool { return s.stalenessLocked() <= bound }) {
		return time.Since(start), fmt.Errorf("site %v: staleness %v still above %v after %v",
			s.ID, s.stalenessLocked(), bound, timeout)
	}
	return time.Since(start), nil
}

func (s *Site) run(sh int) {
	defer s.wg.Done()
	ticker := time.NewTicker(500 * time.Microsecond)
	defer ticker.Stop()
	for {
		progress := s.pass(sh)
		if progress {
			continue
		}
		select {
		case <-s.done:
			return
		case <-s.kicks[sh]:
		case <-ticker.C:
		}
	}
}

// applyItem is one queued message staged for the scheduling pass.
type applyItem struct {
	msg  queue.Message
	m    et.MSet
	objs []string // distinct objects the MSet names, reads included
}

// pass scans one shard's inbound queue once and applies every eligible MSet
// through the parallel apply scheduler: the queued window is sorted into
// the method's order (Seq, then timestamp), partitioned into conflict
// groups — two MSets land in the same group iff they name a common
// object — and the groups are dispatched onto the apply worker pool.
// Items inside a group run serially in sorted order, so every update to
// an object keeps its window order, commuting or not; groups touch
// disjoint objects, so running them concurrently is indistinguishable
// from some serial order.  This grouping is the site's only exclusion at
// apply time: every store and version-chain mutation runs inside a pass,
// in the one group that holds every MSet of the window naming that
// object.  A window containing a compensation MSet collapses to one
// serial group: compensations edit version chains of objects their MSet
// does not name (§4.2), so no op footprint bounds them.
//
// All acks earned during the pass are retired with a single AckBatch at
// the end — one journal record and one fsync per pass instead of one
// per message.  A crash between apply and the batched ack only widens
// the at-least-once redelivery window; every ApplyFunc is idempotent
// per MSet, so re-application is safe.
func (s *Site) pass(sh int) bool {
	in := s.ins[sh]
	msgs, err := in.All()
	if err != nil {
		return false
	}
	var acks []uint64
	items := make([]applyItem, 0, len(msgs))
	// One lock acquisition reads the decode cache for the whole window.
	var misses []queue.Message
	s.mu.Lock()
	for _, msg := range msgs {
		if m, ok := s.decoded[msg.ID]; ok {
			items = append(items, applyItem{msg: msg, m: m})
		} else {
			misses = append(misses, msg)
		}
	}
	s.mu.Unlock()
	for _, msg := range misses {
		// Cache miss (queue recovered from a journal after restart):
		// decode and repopulate.
		m, err := et.DecodeMSet(msg.Payload)
		if err != nil {
			// Malformed payloads are dropped (they passed Receive,
			// so this indicates corruption; keeping them would wedge
			// the queue).
			acks = append(acks, msg.ID)
			s.bump(func(st *Stats) { st.Errors++ })
			s.Metrics.Errors.Inc()
			continue
		}
		s.mu.Lock()
		s.decoded[msg.ID] = m
		s.mu.Unlock()
		items = append(items, applyItem{msg: msg, m: m})
	}
	for i := range items {
		// A read names its object like an update does, so it fences
		// scheduling like one.
		items[i].objs = op.Objects(items[i].m.Ops, true)
	}
	// The sorted window: ORDUP's global execution order first (Seq is 0
	// for the other methods), then logical timestamps.  Parallelism only
	// ever reorders *within* this window, which is what keeps ORDUP's
	// in-order guarantee intact — its engine still holds anything ahead
	// of the sequence gate.
	sort.SliceStable(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.m.Seq != b.m.Seq {
			return a.m.Seq < b.m.Seq
		}
		if a.m.TS.Less(b.m.TS) {
			return true
		}
		if b.m.TS.Less(a.m.TS) {
			return false
		}
		return a.msg.ID < b.msg.ID
	})
	groups := conflictGroups(items)
	workers := s.workers
	if workers > len(groups) {
		workers = len(groups)
	}
	progress := false
	if workers <= 1 {
		// Inline fast path: a fully-conflicting window (one group) or a
		// single-worker pool costs no goroutine handoffs at all.
		if len(items) > 0 {
			s.Metrics.Parallelism.Set(1)
		}
		hist := s.Metrics.ApplySeconds.With("0")
		for _, g := range groups {
			for _, it := range g {
				if s.stopped() {
					break
				}
				ack, ok := s.applyOne(it, hist)
				if ack {
					acks = append(acks, it.msg.ID)
				}
				progress = progress || ok
			}
		}
	} else {
		s.Metrics.Parallelism.Set(int64(workers))
		feed := make(chan []applyItem)
		var wg sync.WaitGroup
		var resMu sync.Mutex // guards acks and progress merged from workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				hist := s.Metrics.ApplySeconds.With(strconv.Itoa(w))
				var local []uint64
				ok := false
				for g := range feed {
					for _, it := range g {
						if s.stopped() {
							break
						}
						ack, applied := s.applyOne(it, hist)
						if ack {
							local = append(local, it.msg.ID)
						}
						ok = ok || applied
					}
				}
				resMu.Lock()
				acks = append(acks, local...)
				progress = progress || ok
				resMu.Unlock()
			}(w)
		}
		for _, g := range groups {
			if s.stopped() {
				break
			}
			feed <- g
		}
		close(feed)
		wg.Wait()
	}
	if len(acks) > 0 {
		// An ack failure (e.g. queue closed during shutdown) leaves the
		// messages queued for idempotent re-application later.
		if err := in.AckBatch(acks); err == nil {
			s.pruneSeen(acks)
		}
	}
	return progress
}

// stopped reports whether Stop has been requested.
func (s *Site) stopped() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// applyOne runs the method's ApplyFunc on one staged item and does the
// per-outcome bookkeeping.  It reports whether the message should be
// acked and whether it was applied.  Safe for concurrent use: every
// structure it touches is locked or atomic.
func (s *Site) applyOne(it applyItem, hist *metrics.Histogram) (ack, ok bool) {
	start := time.Now()
	err := s.apply(it.m)
	hist.Observe(int64(time.Since(start)))
	switch {
	case err == nil:
		s.applied(it.m, it.msg.ID)
		if s.OnApplied != nil {
			s.OnApplied(it.m)
		}
		s.Metrics.Applied.Inc()
		s.Lag.Applied(it.msg.ID, int(s.ID))
		// A span, not an instant: the apply work itself is one leg of
		// the MSet's timeline, distinct from the receive→apply queueing
		// gap in front of it.
		if s.Trace != nil {
			s.Trace.RecordSpan(trace.Apply, int(s.ID), it.m.ET.String(), it.msg.ID, start, "")
		}
		s.mu.Lock()
		delete(s.decoded, it.msg.ID)
		delete(s.heldOnce, it.msg.ID)
		s.mu.Unlock()
		return true, true
	case errors.Is(err, ErrStale):
		// Superseded: acknowledge and clean up exactly like an apply so
		// dedup still recognises redeliveries, without counting it as
		// applied work.
		s.applied(it.m, it.msg.ID)
		s.Lag.Applied(it.msg.ID, int(s.ID))
		if s.Trace != nil {
			s.Trace.RecordMSet(trace.Apply, int(s.ID), it.m.ET.String(), it.msg.ID, "stale")
		}
		s.mu.Lock()
		delete(s.decoded, it.msg.ID)
		delete(s.heldOnce, it.msg.ID)
		s.mu.Unlock()
		return true, true
	case errors.Is(err, ErrHold):
		s.bump(func(st *Stats) { st.Held++ })
		s.Metrics.Held.Inc()
		s.mu.Lock()
		first := !s.heldOnce[it.msg.ID]
		s.heldOnce[it.msg.ID] = true
		s.mu.Unlock()
		if first && s.Trace != nil {
			s.Trace.RecordMSetf(trace.Hold, int(s.ID), it.m.ET.String(), it.msg.ID,
				"seq=%d", it.m.Seq)
		}
		return false, false
	default:
		s.bump(func(st *Stats) { st.Errors++ })
		s.Metrics.Errors.Inc()
		return false, false
	}
}

// conflictGroups partitions the sorted window into groups that must run
// serially.  Union-find over the items: every item is unioned with the
// first item naming each of its objects, so items sharing an object share
// a group.  Commuting ops are not exempt: §3.2 lets them run in any
// order, one at a time, but two applies interleaved on one object would
// leave its version chain out of step with its store.  Reads count as
// footprint too.  Items with an empty footprint (e.g. COMPE commit
// records, which only advance engine state under the engine's own lock)
// stay singleton groups.  Any compensation MSet collapses the whole
// window into one group: backward control edits version chains its MSet
// does not name (§4.2).  So does any MSet carrying a sequence floor: an
// ORDUP site may skip a number below every origin's floor only once each
// lower-numbered MSet of the window has reached the engine, which only
// window order guarantees.
func conflictGroups(items []applyItem) [][]applyItem {
	n := len(items)
	if n == 0 {
		return nil
	}
	for _, it := range items {
		if it.m.Compensation || it.m.SeqFloor != 0 {
			return [][]applyItem{items}
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	first := make(map[string]int) // object -> first item naming it
	for i, it := range items {
		for _, obj := range it.objs {
			f, ok := first[obj]
			if !ok {
				first[obj] = i
				continue
			}
			if rf, ri := find(f), find(i); rf != ri {
				parent[ri] = rf
			}
		}
	}
	// Assemble groups ordered by their first item, members in window
	// order, so single-group execution degenerates to the serial pass.
	slot := make(map[int]int, n)
	var groups [][]applyItem
	for i, it := range items {
		r := find(i)
		gi, ok := slot[r]
		if !ok {
			gi = len(groups)
			slot[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], it)
	}
	return groups
}

// pruneSeen records newly acked IDs in the retention ring and evicts the
// oldest entries from the dedup set once the ring wraps.  Without this
// the seen map grows with every message a long-running site ever
// applies.  The ring is allocated once at retention capacity; steady
// state does no allocation at all (the old implementation rebuilt a
// slice per pass).
func (s *Site) pruneSeen(acks []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range acks {
		s.recordAckedLocked(id)
	}
}

// recordAckedLocked pushes one acked ID into the retention ring,
// evicting the oldest remembered ID when full.  Caller holds s.mu.
func (s *Site) recordAckedLocked(id uint64) {
	if s.retention <= 0 {
		delete(s.seen, id)
		s.Metrics.SeenEvictions.Inc()
		return
	}
	if len(s.ackRing) != s.retention {
		s.ackRing = make([]uint64, s.retention)
		s.ackHead, s.ackLen = 0, 0
	}
	if s.ackLen == len(s.ackRing) {
		delete(s.seen, s.ackRing[s.ackHead])
		s.Metrics.SeenEvictions.Inc()
		s.ackRing[s.ackHead] = id
		s.ackHead = (s.ackHead + 1) % len(s.ackRing)
		return
	}
	s.ackRing[(s.ackHead+s.ackLen)%len(s.ackRing)] = id
	s.ackLen++
}

func (s *Site) applied(m et.MSet, msgID uint64) {
	sh := s.shardOf(msgID)
	s.mu.Lock()
	s.stats.Applied++
	for _, obj := range op.Objects(m.Ops, false) {
		if n := s.pending[obj]; n > 1 {
			s.pending[obj] = n - 1
		} else if n == 1 {
			delete(s.pending, obj)
		}
		s.epoch[obj]++
	}
	if s.frontier[sh].Less(m.TS) {
		s.frontier[sh] = m.TS
	}
	delete(s.pendingTS[sh], msgID)
	delete(s.pendingAt, msgID)
	s.compactLocked(sh)
	safe := s.safeTimeLocked()
	var wm clock.Timestamp
	for _, f := range s.frontier {
		if wm.Less(f) {
			wm = f
		}
	}
	s.mu.Unlock()
	s.Metrics.SafeTime.Set(int64(safe.Time))
	s.Metrics.Watermark.Set(int64(wm.Time))
	s.cond.Broadcast()
}

func (s *Site) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Reload rebuilds the site's in-memory indexes (dedup set, decode cache,
// pending counts) from the contents of its inbound queue.  It is used
// when a site restarts over a journal-backed queue: the queue's messages
// survived the crash, but the indexes did not.  Call before Start.
func (s *Site) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sh, in := range s.ins {
		msgs, err := in.All()
		if err != nil {
			return err
		}
		for _, msg := range msgs {
			if s.seen[msg.ID] {
				continue
			}
			m, err := et.DecodeMSet(msg.Payload)
			if err != nil {
				continue // dropped by the processor later
			}
			s.seen[msg.ID] = true
			s.decoded[msg.ID] = m
			s.acceptLocked(msg.ID, m, sh)
		}
	}
	return nil
}
