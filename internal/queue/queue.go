// Package queue implements the stable queues the paper assumes for MSet
// propagation (§2.2): persistent FIFO queues that survive crashes and
// support at-least-once delivery with duplicate suppression.
//
// "We assume the system maintains the unprocessed MSets in some stable
// storage, such as stable queues [5] and persistent pipes [17]."
//
// Two implementations are provided: Mem, an in-memory queue for tests and
// simulations that do not model crashes, and File, a journal-backed queue
// whose contents survive Close/reopen (the crash model used by the failure
// injection tests).  A Delivery agent drains a queue through an unreliable
// send function, retrying until each message is acknowledged.
//
// The file-backed queue sits on Log, the append-only record log every
// journal in the system shares, and is built for throughput as well as
// durability:
//
//   - Group commit: concurrent writers stage their records and the first
//     one to reach the journal flushes everything staged with a single
//     write and a single fsync (an optional flush window lets the leader
//     linger for more joiners).  EnqueueBatch/AckBatch write a whole
//     batch under one fsync even from a single goroutine.
//   - Compaction: once acknowledged (dead) records dominate the journal,
//     the live tail is rewritten to a temporary file which atomically
//     replaces the journal; the dedup horizon survives via an explicit
//     Seen record, and recently acked IDs are retained so producer
//     retries stay idempotent while ancient entries stop leaking memory.
//   - Diagnosable corruption: replay distinguishes a torn tail (the
//     expected artifact of a crash mid-append, silently truncated) from
//     mid-file corruption, which surfaces as a *CorruptError carrying
//     the byte offset instead of silently discarding the rest of the log.
package queue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"esr/internal/metrics"
	"esr/internal/trace"
)

// Message is one element of a stable queue.  IDs must be unique per queue;
// enqueueing an ID the queue has already seen (even if since acknowledged)
// is a no-op, which gives producers idempotent retry.
type Message struct {
	// ID uniquely identifies the message within its queue.
	ID uint64
	// Payload is the opaque message body (typically an encoded et.MSet).
	Payload []byte
}

// ErrClosed is returned by operations on a closed queue.
var ErrClosed = errors.New("queue: closed")

// CorruptError reports a structurally damaged journal record that is not
// a torn tail: a record in the middle of the file (or with an impossible
// length) that cannot be decoded.  Unlike a torn tail — the expected
// artifact of a crash mid-append, which replay silently truncates — this
// indicates real corruption, and recovery must be a deliberate decision,
// so Open returns the error instead of discarding everything after the
// damage.
type CorruptError struct {
	// Path is the journal file.
	Path string
	// Offset is the byte offset of the damaged record's length prefix.
	Offset int64
	// Reason describes what failed to parse.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("queue: corrupt journal record in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Queue is a stable FIFO with acknowledge-to-remove semantics.
// Implementations must be safe for concurrent use.
type Queue interface {
	// Enqueue appends the message unless its ID has been seen before.
	Enqueue(Message) error
	// EnqueueBatch appends every not-yet-seen message in the batch,
	// durably, under a single flush on journal-backed implementations.
	EnqueueBatch([]Message) error
	// Peek returns the oldest unacknowledged message without removing it.
	// ok is false when the queue is empty.
	Peek() (m Message, ok bool, err error)
	// PeekN returns up to n of the oldest unacknowledged messages in FIFO
	// order without removing them.
	PeekN(n int) ([]Message, error)
	// Ack removes the message with the given ID.  Acking an unknown or
	// already-acked ID is a no-op.
	Ack(id uint64) error
	// AckBatch removes every listed message, durably, under a single
	// flush on journal-backed implementations.
	AckBatch(ids []uint64) error
	// All returns a snapshot of every unacknowledged message in FIFO
	// order.  Consumers that must process messages out of arrival order
	// (ORDUP's hold-back delivery) scan All instead of Peek.
	All() ([]Message, error)
	// Len reports the number of unacknowledged messages.
	Len() int
	// Close releases resources.  A File queue can be reopened afterwards.
	Close() error
}

// Syncer is implemented by queues whose durability costs fsyncs; the
// benchmarks read it to report fsyncs per operation.
type Syncer interface {
	// Syncs reports the cumulative number of fsync calls issued.
	Syncs() uint64
}

// Metrics instruments a stable queue or a bare Log (which reads only the
// fsync and compaction fields).  Every field is optional (nil fields are
// no-ops, per the metrics package's nil contract); Syncs, when set,
// becomes the fsync counter — the one Syncs() reads — unifying the
// ad-hoc per-journal counter with the cluster registry.
type Metrics struct {
	// Depth tracks the number of unacknowledged messages.
	Depth *metrics.Gauge
	// Enqueued counts messages accepted (dedup-fresh) into the queue.
	Enqueued *metrics.Counter
	// Acked counts messages acknowledged out of the queue.
	Acked *metrics.Counter
	// Syncs counts fsyncs (journal-backed queues only).
	Syncs *metrics.Counter
	// SyncSeconds observes each fsync's duration in nanoseconds.
	SyncSeconds *metrics.Histogram
	// DeliverSeconds observes enqueue→ack latency per message in
	// nanoseconds — the time a message spent in the queue before its
	// delivery was acknowledged.  Setting it enables per-message
	// enqueue timestamping (a map insert/delete per message).
	DeliverSeconds *metrics.Histogram
	// Compactions counts journal compactions (journal-backed only).
	Compactions *metrics.Counter
	// DirSyncErrors counts failed directory fsyncs after a journal
	// compaction's rename.  Directory sync is best effort (some
	// filesystems refuse it), but a failure means the compacted journal's
	// name may not survive a power cut — worth counting, not hiding.
	DirSyncErrors *metrics.Counter
}

// Instrumentable is implemented by queues that accept instrumentation;
// call SetMetrics right after construction, before concurrent use.
type Instrumentable interface {
	SetMetrics(Metrics)
}

// Mem is an in-memory Queue.  The zero value is not usable; call NewMem.
type Mem struct {
	mu         sync.Mutex
	items      []Message
	seen       map[uint64]bool
	closed     bool
	met        Metrics
	enqueuedAt map[uint64]time.Time
}

// NewMem returns an empty in-memory stable queue.
func NewMem() *Mem {
	return &Mem{seen: make(map[uint64]bool)}
}

// SetMetrics installs instrumentation.  Call before concurrent use.
func (q *Mem) SetMetrics(m Metrics) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.met = m
	if m.DeliverSeconds != nil {
		q.enqueuedAt = make(map[uint64]time.Time)
	}
	m.Depth.Set(int64(len(q.items)))
}

// Enqueue implements Queue.
func (q *Mem) Enqueue(m Message) error { return q.EnqueueBatch([]Message{m}) }

// EnqueueBatch implements Queue.
func (q *Mem) EnqueueBatch(msgs []Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	fresh := 0
	var now time.Time // one clock read per batch keeps stamping cheap
	if q.enqueuedAt != nil {
		now = time.Now()
	}
	for _, m := range msgs {
		if q.seen[m.ID] {
			continue
		}
		q.seen[m.ID] = true
		q.items = append(q.items, m)
		fresh++
		if q.enqueuedAt != nil {
			q.enqueuedAt[m.ID] = now
		}
	}
	if fresh > 0 {
		q.met.Enqueued.Add(uint64(fresh))
		q.met.Depth.Set(int64(len(q.items)))
	}
	return nil
}

// Peek implements Queue.
func (q *Mem) Peek() (Message, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Message{}, false, ErrClosed
	}
	if len(q.items) == 0 {
		return Message{}, false, nil
	}
	return q.items[0], true, nil
}

// PeekN implements Queue.
func (q *Mem) PeekN(n int) ([]Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if n > len(q.items) {
		n = len(q.items)
	}
	return append([]Message(nil), q.items[:n]...), nil
}

// Ack implements Queue.
func (q *Mem) Ack(id uint64) error { return q.AckBatch([]uint64{id}) }

// AckBatch implements Queue.
func (q *Mem) AckBatch(ids []uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	before := len(q.items)
	q.items = removeIDs(q.items, ids)
	if removed := before - len(q.items); removed > 0 {
		q.met.Acked.Add(uint64(removed))
		q.met.Depth.Set(int64(len(q.items)))
	}
	q.observeDeliveredLocked(ids)
	return nil
}

// observeDeliveredLocked records enqueue→ack latency for instrumented
// queues.  Caller holds q.mu.
func (q *Mem) observeDeliveredLocked(ids []uint64) {
	if q.enqueuedAt == nil {
		return
	}
	now := time.Now()
	for _, id := range ids {
		if t0, ok := q.enqueuedAt[id]; ok {
			q.met.DeliverSeconds.Observe(int64(now.Sub(t0)))
			delete(q.enqueuedAt, id)
		}
	}
}

// All implements Queue.
func (q *Mem) All() ([]Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	return append([]Message(nil), q.items...), nil
}

// Len implements Queue.
func (q *Mem) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close implements Queue.
func (q *Mem) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	return nil
}

// removeIDs filters the listed IDs out of items, preserving order.
func removeIDs(items []Message, ids []uint64) []Message {
	drop := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	out := items[:0]
	for _, m := range items {
		if !drop[m.ID] {
			out = append(out, m)
		}
	}
	// Zero the tail so dropped payloads are not pinned by the backing
	// array.
	for i := len(out); i < len(items); i++ {
		items[i] = Message{}
	}
	return out
}

// Journal record kinds, the first byte of every queue record body.  They
// lie in 0x80..0xF7, where no gob stream can begin, so a journal in the
// retired gob layout fails replay at its first record.
const (
	// recEnqueue: uvarint message ID, then the payload to the record's end.
	recEnqueue = 0x91
	// recAck: uvarint message ID.
	recAck = 0x92
	// recSeen carries the retained dedup horizon across a compaction:
	// uvarint IDs, to the record's end, of recently acknowledged messages
	// that must stay suppressed even though their enqueue records were
	// compacted away.
	recSeen = 0x93
)

// enqueueRecord, ackRecord and seenRecord build one record body each.
func enqueueRecord(m Message) []byte {
	b := append(make([]byte, 0, 1+binary.MaxVarintLen64+len(m.Payload)), recEnqueue)
	return append(binary.AppendUvarint(b, m.ID), m.Payload...)
}

func ackRecord(id uint64) []byte { return binary.AppendUvarint([]byte{recAck}, id) }

func seenRecord(ids []uint64) []byte {
	b := []byte{recSeen}
	for _, id := range ids {
		b = binary.AppendUvarint(b, id)
	}
	return b
}

// Options tunes a File queue.  The zero value gives sensible defaults.
type Options struct {
	// FlushWindow is how long a group-commit leader lingers for more
	// writers to stage records before issuing the shared fsync.  Zero
	// (the default) still group-commits — writers that arrive while a
	// flush is in progress share the next one — but adds no latency.
	FlushWindow time.Duration
	// CompactMinRecords is the journal record count below which
	// compaction never triggers.  Zero means the default (1024);
	// negative disables compaction.
	CompactMinRecords int
	// SeenRetention is how many recently acknowledged message IDs stay
	// in the dedup set across a compaction.  Zero means the default
	// (4096); negative retains none beyond the live messages.
	SeenRetention int
}

// memState is Mem under an unexported name, so File embeds it without
// exporting a way around its journal.
type memState = Mem

const (
	defaultCompactMinRecords = 1024
	defaultSeenRetention     = 4096
)

// File is a journal-backed Queue.  Every Enqueue and Ack is appended to
// the journal, a Log of binary records (see recEnqueue), and fsynced
// before returning; Open replays the journal to rebuild in-memory state,
// so a crash (simulated by Close or by simply abandoning the handle)
// loses nothing that was acknowledged to the caller.  Recovery follows the Log's rule: a torn
// final record is truncated away, damage anywhere else surfaces as a
// *CorruptError.
//
// Records are staged under the state lock, so journal order is
// in-memory order, and flushed outside it, so concurrent writers
// group-commit.  The journal compacts itself once dead records dominate
// (see Options).
type File struct {
	// memState holds the in-memory state (guarded by its mu) and serves
	// the read-only methods; File overrides every method that writes.
	memState
	opts Options
	log  *Log

	acked   []uint64 // acked IDs in ack order; the prunable part of seen
	records int      // complete records in the journal (live + dead)
	// enqueuing counts EnqueueBatch calls between staging their records
	// and adding their messages to items.  Compaction waits them out:
	// their records may already be on disk while items lacks them.
	enqueuing int
}

// Open opens (creating if necessary) the journal at path and replays it,
// using default Options.
func Open(path string) (*File, error) { return OpenOptions(path, Options{}) }

// OpenOptions opens the journal at path with explicit tuning.
func OpenOptions(path string, opts Options) (*File, error) {
	if opts.CompactMinRecords == 0 {
		opts.CompactMinRecords = defaultCompactMinRecords
	}
	if opts.SeenRetention == 0 {
		opts.SeenRetention = defaultSeenRetention
	}
	if opts.SeenRetention < 0 {
		opts.SeenRetention = 0
	}
	q := &File{memState: memState{seen: make(map[uint64]bool)}, opts: opts}
	l, err := OpenLog(path, opts.FlushWindow, q.replay)
	if err != nil {
		return nil, err
	}
	q.log = l
	return q, nil
}

// SetMetrics installs instrumentation.  Call before concurrent use.
// When m.Syncs is set it takes over as the fsync counter, starting from
// zero (replay happens before instrumentation and issues no fsyncs, so
// nothing is lost).
func (q *File) SetMetrics(m Metrics) {
	q.log.SetMetrics(m)
	q.memState.SetMetrics(m)
}

// replay applies one journal record to the in-memory state.  Every
// record must parse to its last byte.
func (q *File) replay(body []byte) error {
	if len(body) == 0 {
		return errors.New("empty record")
	}
	kind, rest := body[0], body[1:]
	var ids []uint64 // one ID; a horizon record's run to the record's end
	for len(ids) == 0 || (kind == recSeen && len(rest) > 0) {
		id, n := binary.Uvarint(rest)
		if n <= 0 {
			return errors.New("bad message ID")
		}
		ids, rest = append(ids, id), rest[n:]
	}
	id := ids[0]
	switch {
	case kind == recEnqueue:
		if !q.seen[id] {
			q.seen[id] = true
			q.items = append(q.items, Message{ID: id, Payload: rest})
		}
	case kind == recAck && len(rest) == 0:
		for i, m := range q.items {
			if m.ID == id {
				q.items = append(q.items[:i], q.items[i+1:]...)
				q.acked = append(q.acked, id)
				break
			}
		}
	case kind == recSeen:
		for _, id := range ids {
			if !q.seen[id] {
				q.seen[id] = true
				q.acked = append(q.acked, id)
			}
		}
	default:
		return fmt.Errorf("malformed record of kind %#x", kind)
	}
	q.records++
	return nil
}

// Syncs implements Syncer.  When the queue is instrumented this is a
// thin read of the registry's counter, so benchmarks and the metrics
// endpoint agree.
func (q *File) Syncs() uint64 { return q.log.Syncs() }

// Enqueue implements Queue.
func (q *File) Enqueue(m Message) error { return q.EnqueueBatch([]Message{m}) }

// EnqueueBatch implements Queue.  The whole batch is journaled under a
// single flush (shared with any concurrent writers).
func (q *File) EnqueueBatch(msgs []Message) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	fresh := make([]Message, 0, len(msgs))
	bodies := make([][]byte, 0, len(msgs))
	var now time.Time // one clock read per batch keeps stamping cheap
	if q.enqueuedAt != nil {
		now = time.Now()
	}
	for _, m := range msgs {
		if q.seen[m.ID] {
			continue
		}
		q.seen[m.ID] = true
		fresh = append(fresh, m)
		bodies = append(bodies, enqueueRecord(m))
		if q.enqueuedAt != nil {
			q.enqueuedAt[m.ID] = now
		}
	}
	if len(fresh) == 0 {
		q.mu.Unlock()
		return nil
	}
	q.records += len(fresh)
	q.enqueuing++
	ch := q.log.stageRecords(true, bodies)
	q.mu.Unlock()
	err := q.log.wait(ch)
	q.mu.Lock()
	q.enqueuing--
	if err == nil {
		q.items = append(q.items, fresh...)
		q.met.Enqueued.Add(uint64(len(fresh)))
		q.met.Depth.Set(int64(len(q.items)))
	}
	q.mu.Unlock()
	return err
}

// Ack implements Queue.
func (q *File) Ack(id uint64) error { return q.AckBatch([]uint64{id}) }

// AckBatch implements Queue.  Every listed message that is present is
// removed and its ack journaled under a single flush.  The batch may
// trigger a compaction once dead records dominate the journal.
func (q *File) AckBatch(ids []uint64) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	present := make(map[uint64]bool, len(q.items))
	for _, m := range q.items {
		present[m.ID] = true
	}
	var bodies [][]byte
	found := ids[:0:0]
	for _, id := range ids {
		if !present[id] {
			continue
		}
		bodies = append(bodies, ackRecord(id))
		found = append(found, id)
	}
	if len(found) == 0 {
		q.mu.Unlock()
		return nil
	}
	q.items = removeIDs(q.items, found)
	q.acked = append(q.acked, found...)
	q.met.Acked.Add(uint64(len(found)))
	q.met.Depth.Set(int64(len(q.items)))
	q.observeDeliveredLocked(found)
	q.records += len(found)
	ch := q.log.stageRecords(true, bodies)
	q.mu.Unlock()
	if err := q.log.wait(ch); err != nil {
		return err
	}
	q.maybeCompact()
	return nil
}

// Close implements Queue.  It waits for any in-flight group commit, so
// records whose Enqueue/Ack already returned are on disk.
func (q *File) Close() error {
	q.memState.Close()
	return q.log.Close()
}

// maybeCompact compacts the journal when it has grown past the
// configured floor and dead (acknowledged) records outnumber live
// messages.  It rewrites the journal to its live state: one Seen record
// carrying the retained dedup horizon, then every unacknowledged
// message.  Compaction failures are deliberately swallowed: the journal
// stays valid as-is and a later ack retries.
func (q *File) maybeCompact() {
	q.mu.Lock()
	need := q.compactNeededLocked()
	q.mu.Unlock()
	if !need {
		return
	}
	dropped := 0
	err := q.log.compact(func() ([][]byte, bool) {
		q.mu.Lock()
		defer q.mu.Unlock()
		// Re-check now that no flush is in flight; skip while an enqueue
		// is between journal and items (the next ack will retrigger).
		if q.enqueuing > 0 || !q.compactNeededLocked() {
			return nil, false
		}
		bodies := q.liveRecordsLocked()
		dropped = q.records - len(bodies)
		return bodies, true
	})
	if err == nil {
		q.mu.Lock()
		q.records -= dropped
		q.mu.Unlock()
	}
}

func (q *File) compactNeededLocked() bool {
	if q.closed || q.opts.CompactMinRecords < 0 {
		return false
	}
	return q.records >= q.opts.CompactMinRecords && q.records > 2*len(q.items)
}

// liveRecordsLocked prunes the dedup horizon to the retention window and
// encodes the live state compaction writes.  Callers hold q.mu.
func (q *File) liveRecordsLocked() [][]byte {
	// Acked IDs beyond the retention window stop being remembered.  Live
	// messages always stay in seen via their rewritten enqueue records.
	if over := len(q.acked) - q.opts.SeenRetention; over > 0 {
		for _, id := range q.acked[:over] {
			delete(q.seen, id)
		}
		q.acked = append([]uint64(nil), q.acked[over:]...)
	}
	bodies := make([][]byte, 0, 1+len(q.items))
	if len(q.acked) > 0 {
		bodies = append(bodies, seenRecord(q.acked))
	}
	for _, m := range q.items {
		bodies = append(bodies, enqueueRecord(m))
	}
	return bodies
}

// Delivery pumps messages from a stable queue through an unreliable send
// function, in FIFO order, retrying until each message is acknowledged.
// This is the "persistently retry message delivery until successful"
// contract of §2.2.
//
// Each round drains up to the window's worth of messages from the head
// of the queue and pushes them through the send function as one frame,
// all-or-nothing (a window of one sends frames of one).  A delivered
// frame is acknowledged with one AckBatch — a single journal flush; a
// failed one is retried whole, from the head.
type Delivery struct {
	q       Queue
	send    func([]Message) error
	window  int
	backoff time.Duration
	maxWait time.Duration

	mu      sync.Mutex
	kick    chan struct{}
	done    chan struct{}
	stopped bool
	wg      sync.WaitGroup

	met DeliveryMetrics

	// ring, when set, receives one flush span per successful delivery
	// round (send through batched acknowledgement), attributed to site
	// with the peer in the detail — the propagation leg of a timeline.
	ring *trace.Ring
	site int
	peer int
}

// DeliveryMetrics instruments a delivery agent.  All fields optional.
type DeliveryMetrics struct {
	// BatchSize observes the number of messages delivered per round.
	BatchSize *metrics.Histogram
	// Retries counts failed send rounds (each triggers a backoff).
	Retries *metrics.Counter
	// BackoffResets counts kicks that cut a backoff short — a fresh
	// enqueue or a partition heal arriving while the pump was waiting
	// out a failure.
	BackoffResets *metrics.Counter
}

// SetMetrics installs instrumentation.  Call before Start.
func (d *Delivery) SetMetrics(m DeliveryMetrics) { d.met = m }

// SetTrace installs the trace ring: each successful delivery round
// records a flush span attributed to the sending site (peer in the
// detail).  Call before Start.
func (d *Delivery) SetTrace(r *trace.Ring, site, peer int) {
	d.ring = r
	d.site = site
	d.peer = peer
}

// NewDelivery creates a delivery agent draining q through send, which
// delivers one frame (the messages in FIFO order) or fails it whole.
// backoff is the initial retry delay after a failed send; it doubles up
// to maxWait.  Call Start to begin pumping and Stop to shut down.
func NewDelivery(q Queue, send func([]Message) error, backoff, maxWait time.Duration) *Delivery {
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	if maxWait < backoff {
		maxWait = backoff
	}
	return &Delivery{
		q: q, send: send, backoff: backoff, maxWait: maxWait,
		window: 1,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// SetWindow sets the in-flight window: the maximum number of messages
// drained per round.  Values below one mean one.  Call before Start.
func (d *Delivery) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	d.window = n
}

// Start launches the pump goroutine.
func (d *Delivery) Start() {
	d.wg.Add(1)
	go d.run()
}

// Kick wakes the pump immediately, typically after an Enqueue or a
// partition heal.
func (d *Delivery) Kick() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Stop shuts the pump down and waits for it to exit.
func (d *Delivery) Stop() {
	d.mu.Lock()
	if !d.stopped {
		d.stopped = true
		close(d.done)
	}
	d.mu.Unlock()
	d.wg.Wait()
}

func (d *Delivery) run() {
	defer d.wg.Done()
	wait := d.backoff
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		batch, err := d.q.PeekN(d.window)
		if err != nil {
			return // queue closed
		}
		if len(batch) > 0 {
			var t0 time.Time
			if d.ring != nil {
				t0 = time.Now()
			}
			if err := d.send(batch); err == nil {
				ids := make([]uint64, len(batch))
				for i, m := range batch {
					ids[i] = m.ID
				}
				if err := d.q.AckBatch(ids); err != nil {
					return
				}
				d.met.BatchSize.Observe(int64(len(batch)))
				if d.ring != nil {
					d.ring.RecordSpan(trace.Flush, d.site, "", 0, t0,
						fmt.Sprintf("to=%d n=%d", d.peer, len(batch)))
				}
				wait = d.backoff
				continue
			}
			d.met.Retries.Inc()
			// Send failed: back off, then retry from the head.  A kick
			// (fresh enqueue or partition heal) retries immediately and
			// resets the backoff — the stale penalty belongs to the old
			// link state, not the healed one.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-d.done:
				return
			case <-timer.C:
				wait *= 2
				if wait > d.maxWait {
					wait = d.maxWait
				}
			case <-d.kick:
				wait = d.backoff
				d.met.BackoffResets.Inc()
			}
			continue
		}
		// Queue empty: sleep until kicked or a poll interval passes.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d.backoff)
		select {
		case <-d.done:
			return
		case <-d.kick:
		case <-timer.C:
		}
	}
}
