// Package ordup implements the ORDUP (ordered updates) replica-control
// method of §3.1.
//
// "The idea behind the ORDUP replica control method is to execute the
// MSets by updating different replicas of the same object asynchronously
// but in the same order.  In this way the update ETs are SR.  We can
// process query ETs in any order because they are allowed to see
// inconsistent results."
//
// Two ordering sources are provided, mirroring the paper's MSet-delivery
// discussion:
//
//   - Sequencer: a centralized order server hands each update ET a global
//     sequence number; every site applies MSets in sequence-number order,
//     holding back out-of-order arrivals.
//   - Lamport: updates carry Lamport timestamps; a site applies the MSet
//     with the minimum pending timestamp once it has heard a timestamp at
//     least that large from every other site (heartbeats provide the
//     necessary evidence while updates are outstanding).
//
// Divergence bounding follows §3.1's inconsistency counter: each query ET
// is charged one unit per overlapping update ET on the objects it reads;
// once the counter would exceed ε, the remaining reads first drain the
// object's queued updates, so the query "is allowed to proceed only when
// it is running in the global order".
package ordup

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/coherency"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/tsdc"
)

// Ordering selects the global-order source.
type Ordering int

const (
	// Sequencer uses the centralized order server (§3.1: "such ordering
	// can be generated easily by a centralized order server").
	Sequencer Ordering = iota
	// Lamport uses distributed Lamport timestamps ("sometimes true
	// distributed control is desired").
	Lamport
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	if o == Lamport {
		return "lamport"
	}
	return "sequencer"
}

// Config parameterizes an ORDUP engine.
type Config struct {
	// Core configures the underlying cluster chassis.  Its LockTable is
	// forced to lock.ORDUP.
	Core core.Config
	// Ordering selects sequencer or Lamport ordering.
	Ordering Ordering
	// Heartbeat is the interval between stability heartbeats in Lamport
	// mode while updates are outstanding (default 500µs).
	Heartbeat time.Duration
	// Scheduler selects the local divergence-control mechanism for
	// queries: the Table 2 lock modes (default) or basic timestamp
	// ordering (§3.1's alternative).
	Scheduler Scheduler
}

// ErrNotUpdate is returned by Update when the ET contains no update
// operation.
var ErrNotUpdate = errors.New("ordup: ET contains no update operation")

// floorSeq is the sentinel sequence number sequencer-mode heartbeats
// carry.  It sorts after every real MSet in a scheduling pass, so a
// site always records real arrivals before acting on the heartbeat's
// floor evidence — a floor can never skip a number whose MSet is
// sitting in the same window.
const floorSeq = ^uint64(0)

// siteState is one (site, ordering shard) pair's delivery state.  Each
// shard is an independent ordering domain: its own sequence cursor,
// hold-back window, floors and Lamport evidence.  A site hosts one
// siteState per shard, and nothing in one shard's state ever blocks
// (or observes) another's.
type siteState struct {
	mu     sync.Mutex
	submit sync.Mutex // serializes order acquisition + broadcast per origin
	// applyMu is held across each apply and its sequence-cursor advance,
	// so a snapshot reader (catch-up donor) never observes a half-applied
	// MSet: with applyMu held, the store holds exactly the prefix below
	// next.
	applyMu   sync.Mutex
	next      uint64                  // next sequence number to apply (Sequencer mode)
	arrived   map[uint64]bool         // seqs >= next whose MSet has arrived (held, not yet applied)
	floors    map[clock.SiteID]uint64 // highest SeqFloor heard per origin
	lastHeard map[clock.SiteID]clock.Timestamp
	pending   map[et.ID]clock.Timestamp
}

// Engine is the ORDUP replica-control engine.
type Engine struct {
	cfg    Config
	c      *core.Cluster
	states map[clock.SiteID][]*siteState    // per (site, shard) ordering state
	tos    map[clock.SiteID]*tsdc.Scheduler // per-site TO schedulers (nil under 2PL)

	mu sync.Mutex
	// outstanding maps an update ET to, per site, how many of its MSet
	// parts (one per involved shard) that site has not yet applied.
	outstanding map[et.ID]map[clock.SiteID]int

	applies atomic.Uint64 // MSets applied anywhere (stall detection)

	snapMu     sync.Mutex
	snaps      map[uint64][]byte // pinned snapshot encodings by handle
	snapHandle uint64

	hbDone chan struct{}
	hbWG   sync.WaitGroup
}

// New builds and starts an ORDUP engine.
func New(cfg Config) (*Engine, error) {
	cfg.Core.LockTable = lock.ORDUP
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Microsecond
	}
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:         cfg,
		c:           c,
		states:      make(map[clock.SiteID][]*siteState),
		tos:         make(map[clock.SiteID]*tsdc.Scheduler),
		outstanding: make(map[et.ID]map[clock.SiteID]int),
		snaps:       make(map[uint64][]byte),
		hbDone:      make(chan struct{}),
	}
	for _, id := range c.SiteIDs() {
		sts := make([]*siteState, c.Shards())
		for sh := range sts {
			sts[sh] = &siteState{
				next:      1,
				arrived:   make(map[uint64]bool),
				floors:    make(map[clock.SiteID]uint64),
				lastHeard: make(map[clock.SiteID]clock.Timestamp),
				pending:   make(map[et.ID]clock.Timestamp),
			}
		}
		e.states[id] = sts
		if cfg.Scheduler == TimestampOrdering {
			e.tos[id] = tsdc.New()
		}
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		sts := e.states[s.ID]
		// Cold start over a surviving WAL (a process killed without
		// warning): recompute the ordering state exactly as RestartSite
		// does within one process lifetime.
		if recs := c.RecoveredRecords(s.ID); len(recs) > 0 {
			recoverSiteStates(sts, recs)
		}
		return func(m et.MSet) error { return e.apply(s, stateAt(sts, m.Shard), m) }
	})
	e.registerSnapshotServers()
	if cfg.Ordering == Lamport {
		e.hbWG.Add(1)
		go e.heartbeatLoop()
	} else if c.SeqReplicated() {
		e.hbWG.Add(1)
		go e.seqHeartbeatLoop()
	}
	return e, nil
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "ORDUP" }

// Traits implements core.Engine; the values are the ORDUP column of the
// paper's Table 1.
func (e *Engine) Traits() core.Traits {
	return core.Traits{
		Name:             "ORDUP",
		Restriction:      "message delivery",
		Applicability:    "Forwards",
		AsyncPropagation: "Query only",
		SortingTime:      "at update",
	}
}

// Cluster implements core.Engine.
func (e *Engine) Cluster() *core.Cluster { return e.c }

// Update executes an update ET at origin: it obtains the ET's global
// order (sequence number or Lamport timestamp), durably enqueues one MSet
// per site, and returns.  Propagation and application proceed
// asynchronously ("the client generating the MSets does not have to
// deliver them in order", §3.1 — ordering is enforced at application).
func (e *Engine) Update(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	ids, err := e.UpdateBurst(origin, [][]op.Op{ops})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// UpdateBurst executes a burst of update ETs at origin as one propagation
// batch: in Sequencer mode the whole burst reserves a consecutive
// sequence range per involved shard in one order-server round trip each,
// and all MSets leave as one batch per destination (one journal fsync
// per link on durable clusters).  Each burst entry is an independent ET;
// the paper's framing holds per ET, only the propagation is coalesced.
//
// Sharding: each ET's update ops are split by their objects' owning
// shards.  The common case — every object in one shard — produces one
// MSet and pays zero cross-shard coordination.  A cross-shard ET
// produces one MSet per involved shard, all sharing the ET identity,
// and commits atomically over those ordering domains via 2PC
// (coherency.TwoPhase): the per-shard sequence reservations prepare,
// the origin's durable cross-shard record decides, and the per-shard
// broadcasts commit.  A reservation that fails mid-prepare simply
// abandons the runs reserved so far — they become permitted gaps, the
// outcome the per-shard gap contract already covers.
func (e *Engine) UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	if len(bursts) == 0 {
		return nil, nil
	}
	shards := e.c.Shards()
	parts := make([][][]op.Op, len(bursts)) // [burst][shard] = ops (nil when uninvolved)
	counts := make([]uint64, shards)        // MSets per shard across the burst
	crossShard := false
	for i, ops := range bursts {
		updates := updateOps(ops)
		if len(updates) == 0 {
			return nil, ErrNotUpdate
		}
		p := make([][]op.Op, shards)
		involved := 0
		for _, o := range updates {
			sh := e.c.ShardOfObject(o.Object)
			if p[sh] == nil {
				involved++
			}
			p[sh] = append(p[sh], o)
		}
		if involved > 1 {
			crossShard = true
		}
		for sh := range p {
			if p[sh] != nil {
				counts[sh]++
			}
		}
		parts[i] = p
	}
	shardList := make([]int, 0, shards)
	for sh := 0; sh < shards; sh++ {
		if counts[sh] > 0 {
			shardList = append(shardList, sh)
		}
	}
	s := e.c.Site(origin)
	if s == nil {
		return nil, fmt.Errorf("ordup: unknown site %v", origin)
	}
	// In Lamport mode the stability rule depends on per-link FIFO implying
	// per-origin timestamp order, so timestamp assignment and enqueueing
	// must be atomic per origin and shard.  With the replicated sequencer
	// the same holds for reservation and enqueueing: a data MSet's
	// SeqFloor (its own Seq) promises that nothing below it is still
	// unsent from this origin in that shard, which is only true if runs
	// leave in reservation order.  Cross-shard bursts always pin their
	// involved shards: the durable decision record and its broadcast must
	// be serialized per origin.  Ascending shard order keeps concurrent
	// cross-shard bursts deadlock-free.  (The legacy sequencer with
	// single-shard ETs advertises no floors and needs no pinning.)
	sts := e.states[origin]
	replicated := e.cfg.Ordering == Sequencer && e.c.SeqReplicated()
	if e.cfg.Ordering == Lamport || replicated || crossShard {
		for _, sh := range shardList {
			sts[sh].submit.Lock()
		}
		defer func() {
			for _, sh := range shardList {
				sts[sh].submit.Unlock()
			}
		}()
	}
	seq0 := make([]uint64, shards)
	var seqT0 time.Time
	if e.cfg.Ordering == Sequencer {
		seqT0 = time.Now()
	}
	reserve := func(sh int) error {
		if e.cfg.Ordering != Sequencer {
			return nil
		}
		n, err := e.c.NextSeqNShard(origin, sh, counts[sh]) //esrvet:ignore A8 reserve-then-broadcast must be atomic per origin and shard (SeqFloor promise); submit is that gate
		if err != nil {
			return err
		}
		seq0[sh] = n
		return nil
	}
	ids := make([]et.ID, len(bursts))
	var msets []et.MSet
	byShard := make([][]et.MSet, shards)
	// stamp assigns ET identities, timestamps and (in Sequencer mode)
	// the reserved sequence numbers in burst order per shard, and
	// registers each ET as outstanding with one part per involved shard.
	stamp := func() {
		nextSeq := make([]uint64, shards)
		copy(nextSeq, seq0)
		for i := range bursts {
			id := e.c.NextET(origin)
			ids[i] = id
			ts := s.Clock.Tick()
			nparts := 0
			for sh := 0; sh < shards; sh++ {
				if parts[i][sh] != nil {
					nparts++
				}
			}
			pendingAt := make(map[clock.SiteID]int, len(e.states))
			for sid := range e.states {
				pendingAt[sid] = nparts
			}
			e.mu.Lock()
			e.outstanding[id] = pendingAt
			e.mu.Unlock()
			for sh := 0; sh < shards; sh++ {
				if parts[i][sh] == nil {
					continue
				}
				var seq, floor uint64
				if e.cfg.Ordering == Sequencer {
					seq = nextSeq[sh]
					nextSeq[sh]++
					if replicated {
						floor = seq
					}
				}
				m := et.MSet{ET: id, Origin: origin, Seq: seq, TS: ts,
					Ops: parts[i][sh], SeqFloor: floor, Shard: sh}
				msets = append(msets, m)
				byShard[sh] = append(byShard[sh], m)
			}
			e.c.RecordUpdate(id, bursts[i])
		}
	}
	if crossShard {
		tp := coherency.TwoPhase[int]{
			Prepare: reserve,
			Decide: func() error {
				stamp()
				return e.c.BeginCrossShard(origin, msets)
			},
			Commit: func(sh int) error { return e.c.BroadcastAll(byShard[sh]) },
		}
		if err := tp.Run(shardList); err != nil {
			return nil, err
		}
		if err := e.c.EndCrossShard(origin); err != nil { //esrvet:ignore A8 the resolution marker must land while the per-shard submit gates still pin the reserved runs
			return nil, err
		}
	} else {
		for _, sh := range shardList {
			if err := reserve(sh); err != nil {
				return nil, err
			}
		}
		stamp()
		if err := e.c.BroadcastAll(msets); err != nil {
			return nil, err
		}
	}
	if e.cfg.Ordering == Sequencer {
		// The ordering leg: reserve round trip through stamping, one span
		// per MSet so every timeline shows its sequencing cost.
		for _, sh := range shardList {
			e.c.RecordSequenceSpan(origin, byShard[sh], seqT0)
		}
	}
	return ids, nil
}

// Query executes a query ET at the given site under an ε limit.  Reads
// are priced by their overlap with update ETs (§3.1's inconsistency
// counter); past ε the query drains and joins the global order.
func (e *Engine) Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	if e.cfg.Scheduler == TimestampOrdering {
		return e.queryTO(site, objects, eps)
	}
	return core.ReadAtSite(e.c, site, objects, core.ReadOptions{Level: consistency.Bounded, Epsilon: eps, At: clock.Latest})
}

// QuerySpec executes a query ET under a per-object ε specification
// (spatial consistency): each object's read is bounded by its own
// budget.
func (e *Engine) QuerySpec(site clock.SiteID, objects []string, spec divergence.Spec) (et.QueryResult, error) {
	return core.ReadAtSite(e.c, site, objects, core.ReadOptions{Level: consistency.Bounded, Spec: spec, At: clock.Latest})
}

// Outstanding reports the number of update ETs not yet applied at every
// site.
func (e *Engine) Outstanding() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.outstanding)
}

// AppliedEverywhere reports whether the update ET has been applied at
// every site.  Unknown IDs report true (they are not outstanding).
func (e *Engine) AppliedEverywhere(id et.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, out := e.outstanding[id]
	return !out
}

// CrashSite simulates a site failure on a durable cluster.
func (e *Engine) CrashSite(id clock.SiteID) error { return e.c.CrashSite(id) }

// RestartSite recovers a crashed site: the chassis rebuilds the store
// and queue from WAL and journal, and ORDUP recomputes its per-site
// ordering state — the next expected sequence number and the
// last-heard timestamps — from the WAL records rather than trusting
// anything that survived in memory.
func (e *Engine) RestartSite(id clock.SiteID) error {
	return e.c.RestartSite(id, func(_ *replica.Site, records []et.MSet) error {
		recoverSiteStates(e.states[id], records)
		return nil
	})
}

// stateAt routes an MSet's shard index to its ordering state, clamping
// out-of-range indices to shard 0 (matching the chassis' defensive
// routing — a well-formed cluster never produces one).
func stateAt(sts []*siteState, shard int) *siteState {
	if shard < 0 || shard >= len(sts) {
		return sts[0]
	}
	return sts[shard]
}

// recoverSiteStates recomputes a site's per-shard ordering state from
// its WAL records: each shard's next expected sequence number is one
// past the highest applied in that shard (sequencer-mode heartbeats,
// which carry the floorSeq sentinel and are never applied, are
// excluded), and the last-heard timestamps restart from what was
// durably heard.  Floors are deliberately reset: they are re-learnable
// evidence, and until fresh floors arrive a site skips nothing.
func recoverSiteStates(sts []*siteState, records []et.MSet) {
	for _, st := range sts {
		st.mu.Lock()
		st.next = 1
		st.pending = make(map[et.ID]clock.Timestamp)
		st.lastHeard = make(map[clock.SiteID]clock.Timestamp)
		st.arrived = make(map[uint64]bool)
		st.floors = make(map[clock.SiteID]uint64)
		st.mu.Unlock()
	}
	for _, m := range records {
		st := stateAt(sts, m.Shard)
		st.mu.Lock()
		if m.Seq != floorSeq && m.Seq >= st.next {
			st.next = m.Seq + 1
		}
		if st.lastHeard[m.Origin].Less(m.TS) {
			st.lastHeard[m.Origin] = m.TS
		}
		st.mu.Unlock()
	}
}

// Close implements core.Engine.
func (e *Engine) Close() error {
	select {
	case <-e.hbDone:
	default:
		close(e.hbDone)
	}
	e.hbWG.Wait()
	return e.c.Close()
}

func (e *Engine) apply(s *replica.Site, st *siteState, m et.MSet) error {
	if e.cfg.Ordering == Sequencer {
		return e.applySequenced(s, st, m)
	}
	return e.applyLamport(s, st, m)
}

func (e *Engine) applySequenced(s *replica.Site, st *siteState, m et.MSet) error {
	st.mu.Lock()
	if m.SeqFloor > st.floors[m.Origin] {
		st.floors[m.Origin] = m.SeqFloor
		e.trySkipLocked(st)
	}
	if m.Seq == floorSeq {
		// Sequencer-mode heartbeat: pure floor evidence, never applied
		// and never logged.
		st.mu.Unlock()
		return replica.ErrStale
	}
	if m.ET.IsSnap() {
		st.mu.Unlock()
		return e.installSnapshot(s, st, m)
	}
	if m.Seq >= st.next {
		st.arrived[m.Seq] = true
	}
	switch {
	case m.Seq < st.next:
		// Already applied or skipped (duplicate that survived dedup, a
		// gap fill racing a floor skip, or a redelivery below a snapshot
		// install); superseded, so it must stay out of the WAL too.
		st.mu.Unlock()
		return replica.ErrStale
	case m.Seq > st.next:
		// "Each site simply waits for the next MSet in the execution
		// sequence to show up before running other MSets." (§3.1)
		st.mu.Unlock()
		return replica.ErrHold
	}
	st.mu.Unlock()
	st.applyMu.Lock()
	if err := e.applyOps(s, m); err != nil {
		st.applyMu.Unlock()
		return err
	}
	st.mu.Lock()
	delete(st.arrived, m.Seq)
	st.next++
	e.trySkipLocked(st)
	st.mu.Unlock()
	st.applyMu.Unlock()
	e.noteApplied(m.ET, s.ID)
	return nil
}

// trySkipLocked advances the sequence cursor past numbers that can no
// longer arrive: every origin has promised (via SeqFloor over FIFO
// links) never to send anything new below its floor, so a number below
// every floor with no arrived MSet is a permitted gap — a run reserved
// from the sequencer and abandoned.  Called with st.mu held.
func (e *Engine) trySkipLocked(st *siteState) {
	if len(st.floors) == 0 {
		return
	}
	min := uint64(floorSeq)
	for _, id := range e.c.SiteIDs() {
		if f := st.floors[id]; f < min {
			min = f // an origin never heard from has floor 0
		}
	}
	for min > st.next && !st.arrived[st.next] {
		st.next++
	}
}

// installSnapshot applies a catch-up state transfer: the MSet's ops
// rebuild the donor's store content from empty, and the sequence cursor
// jumps to just past the donor's applied prefix.  MSets below the
// cursor that later trickle in are dropped as duplicates.
func (e *Engine) installSnapshot(s *replica.Site, st *siteState, m et.MSet) error {
	st.applyMu.Lock()
	defer st.applyMu.Unlock()
	st.mu.Lock()
	if m.Seq < st.next {
		// This site is already past the snapshot; nothing to install.
		st.mu.Unlock()
		return replica.ErrStale
	}
	st.mu.Unlock()
	if err := e.applyOps(s, m); err != nil {
		return err
	}
	st.mu.Lock()
	if m.Seq+1 > st.next {
		st.next = m.Seq + 1
	}
	for seq := range st.arrived {
		if seq < st.next {
			delete(st.arrived, seq)
		}
	}
	e.trySkipLocked(st)
	st.mu.Unlock()
	return nil
}

func (e *Engine) applyLamport(s *replica.Site, st *siteState, m et.MSet) error {
	st.mu.Lock()
	if st.lastHeard[m.Origin].Less(m.TS) {
		st.lastHeard[m.Origin] = m.TS
	}
	if len(m.Ops) == 0 {
		// Heartbeat: pure stability evidence.
		st.mu.Unlock()
		return nil
	}
	st.pending[m.ET] = m.TS
	// Eligible when (1) every other site has been heard at or past m.TS
	// — FIFO links then guarantee nothing earlier can still arrive — and
	// (2) m.TS is the minimum pending timestamp here.
	for _, id := range e.c.SiteIDs() {
		if id == m.Origin || id == s.ID {
			continue
		}
		if st.lastHeard[id].Less(m.TS) {
			st.mu.Unlock()
			return replica.ErrHold
		}
	}
	for other, ts := range st.pending {
		if other != m.ET && ts.Less(m.TS) {
			st.mu.Unlock()
			return replica.ErrHold
		}
	}
	st.mu.Unlock()
	if err := e.applyOps(s, m); err != nil {
		return err
	}
	st.mu.Lock()
	delete(st.pending, m.ET)
	st.mu.Unlock()
	e.noteApplied(m.ET, s.ID)
	return nil
}

// applyOps applies the MSet's operations under WU locks taken in sorted
// object order (total acquisition order prevents deadlock against
// ε-exhausted queries).  Under timestamp ordering the TO stamps bump
// before the values change, so queries can bracket their reads.
func (e *Engine) applyOps(s *replica.Site, m et.MSet) error {
	e.markTO(s.ID, m)
	tx := lock.TxID(m.ET)
	objs := make([]string, 0, len(m.Ops))
	seen := make(map[string]bool, len(m.Ops))
	for _, o := range m.Ops {
		if !seen[o.Object] {
			seen[o.Object] = true
			objs = append(objs, o.Object)
		}
	}
	sort.Strings(objs)
	for _, obj := range objs {
		if err := s.Locks.Acquire(tx, lock.WU, op.Op{Kind: op.Write, Object: obj}); err != nil {
			s.Locks.ReleaseAll(tx)
			return fmt.Errorf("ordup: apply lock on %q: %w", obj, err)
		}
	}
	vers := make(map[string]op.Value, len(objs))
	for _, o := range m.Ops {
		v := s.Store.Apply(o)
		if o.Kind.IsUpdate() {
			vers[o.Object] = v
		}
	}
	// Dual-write the post-apply values into the multi-version store so
	// snapshot reads can serve any timestamp (Install at the same TS is
	// idempotent, covering redelivery).
	for obj, v := range vers {
		s.MV.InstallMonotone(obj, m.TS, v)
	}
	s.Locks.ReleaseAll(tx)
	return nil
}

func (e *Engine) noteApplied(id et.ID, site clock.SiteID) {
	e.applies.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if pending, ok := e.outstanding[id]; ok {
		if n := pending[site]; n > 1 {
			// A cross-shard ET: one part down, its siblings still queued.
			pending[site] = n - 1
			return
		}
		delete(pending, site)
		if len(pending) == 0 {
			delete(e.outstanding, id)
		}
	}
}

// AppliedAt reports whether the update ET (every part of it, for
// cross-shard ETs) has been applied at the given site.  Unknown IDs
// report true.
func (e *Engine) AppliedAt(id et.ID, site clock.SiteID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	pending, ok := e.outstanding[id]
	return !ok || pending[site] == 0
}

// heartbeatLoop broadcasts empty MSets from every site while updates are
// outstanding, providing the "heard from everyone" evidence Lamport-mode
// delivery needs to release held MSets.
func (e *Engine) heartbeatLoop() {
	defer e.hbWG.Done()
	ticker := time.NewTicker(e.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-e.hbDone:
			return
		case <-ticker.C:
		}
		if e.Outstanding() == 0 {
			continue
		}
		for _, id := range e.c.SiteIDs() {
			s := e.c.Site(id)
			for sh, st := range e.states[id] {
				// Self-clock to link speed: skip this shard's round if
				// earlier heartbeats are still queued on a slow link, so
				// heartbeat traffic can never outrun delivery.
				if e.c.OutBacklogShard(id, sh) > 2 {
					continue
				}
				st.submit.Lock()
				hb := et.MSet{ET: e.c.NextET(id), Origin: id, TS: s.Clock.Tick(), Shard: sh}
				// Best effort: a partitioned heartbeat just retries through
				// the stable queue like any other MSet.
				_ = e.c.Broadcast(hb)
				st.submit.Unlock()
			}
		}
	}
}

// seqHeartbeatLoop is the sequencer-mode counterpart of the Lamport
// heartbeats, run only with the replicated sequencer: while application
// is stalled (inbound MSets queued but nothing applying for a few
// intervals — the signature of a permitted gap), every live origin
// broadcasts a floor heartbeat carrying one past the ensemble's
// committed watermark.  Any run confirmed in the future starts above
// that watermark, and the origin holds its submit lock across the query
// and the broadcast, so every already-reserved run of its own is fully
// enqueued ahead of the heartbeat on each FIFO link — the floor promise
// holds.  Once every origin's floor passes the missing number, sites
// skip it and drain.  Idle and busy clusters pay nothing: the loop only
// queries the ensemble when stalled.
func (e *Engine) seqHeartbeatLoop() {
	defer e.hbWG.Done()
	ticker := time.NewTicker(e.cfg.Heartbeat)
	defer ticker.Stop()
	stallAfter := 4 * e.cfg.Heartbeat
	lastApplies := e.applies.Load()
	lastProgress := time.Now()
	for {
		select {
		case <-e.hbDone:
			return
		case <-ticker.C:
		}
		if cur := e.applies.Load(); cur != lastApplies {
			lastApplies = cur
			lastProgress = time.Now()
			continue
		}
		if time.Since(lastProgress) < stallAfter || !e.anyBacklog() {
			continue
		}
		for _, id := range e.c.SiteIDs() {
			if e.c.SiteCrashed(id) {
				continue
			}
			s := e.c.Site(id)
			if s == nil {
				continue
			}
			for sh, st := range e.states[id] {
				if e.c.OutBacklogShard(id, sh) > 2 {
					continue
				}
				st.submit.Lock()
				wm, err := e.c.SeqCommittedWatermarkShard(id, sh) //esrvet:ignore A8 watermark must be read with submit held so every reservation below it is already enqueued
				if err == nil {
					hb := et.MSet{ET: e.c.NextET(id), Origin: id, Seq: floorSeq,
						TS: s.Clock.Tick(), SeqFloor: wm + 1, Shard: sh}
					_ = e.c.Broadcast(hb)
				}
				st.submit.Unlock()
			}
		}
		// Give the floors a chance to propagate before the next round.
		lastProgress = time.Now()
	}
}

// anyBacklog reports whether any live site still has inbound MSets
// queued (held or undelivered work — the only state a floor heartbeat
// can help).
func (e *Engine) anyBacklog() bool {
	for _, id := range e.c.SiteIDs() {
		if e.c.SiteCrashed(id) {
			continue
		}
		if s := e.c.Site(id); s != nil && s.QueueLen() > 0 {
			return true
		}
	}
	return false
}

func updateOps(ops []op.Op) []op.Op {
	out := make([]op.Op, 0, len(ops))
	for _, o := range ops {
		if o.Kind.IsUpdate() {
			out = append(out, o)
		}
	}
	return out
}
