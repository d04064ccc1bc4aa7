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
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
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
	// Core configures the underlying cluster chassis.
	Core core.Config
	// Ordering selects sequencer or Lamport ordering.
	Ordering Ordering
	// Heartbeat is the interval between stability heartbeats in Lamport
	// mode while updates are outstanding (default 500µs).
	Heartbeat time.Duration
	// Scheduler selects the local divergence-control mechanism for
	// queries: overlap pricing (default) or basic timestamp ordering
	// (§3.1's alternative).
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
	*core.Flights // applied tracking: AppliedAt, AppliedEverywhere, Outstanding

	cfg    Config
	c      *core.Cluster
	method core.Method
	states map[clock.SiteID][]*siteState    // per (site, shard) ordering state
	tos    map[clock.SiteID]*tsdc.Scheduler // per-site TO schedulers (nil under overlap pricing)

	applies atomic.Uint64 // MSets applied anywhere (stall detection)

	snapMu     sync.Mutex
	snaps      map[uint64][]byte // pinned snapshot encodings by handle
	snapHandle uint64

	hbDone chan struct{}
	hbWG   sync.WaitGroup
}

// New builds and starts an ORDUP engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Microsecond
	}
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Flights: core.NewFlights(c, nil),
		cfg:     cfg,
		c:       c,
		states:  make(map[clock.SiteID][]*siteState),
		tos:     make(map[clock.SiteID]*tsdc.Scheduler),
		snaps:   make(map[uint64][]byte),
		hbDone:  make(chan struct{}),
	}
	// Table 1's ORDUP row: a global order per shard, from the order server
	// or from Lamport timestamps; any update op is admitted.
	e.method = core.Method{
		Order:     core.Sequenced,
		Floors:    cfg.Ordering == Sequencer && c.SeqReplicated(),
		Gate:      func(origin clock.SiteID, sh int) *sync.Mutex { return &e.states[origin][sh].submit },
		NotUpdate: ErrNotUpdate,
		Flights:   e.Flights,
	}
	if cfg.Ordering == Lamport {
		e.method.Order = core.Timestamped
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
// batch through core's write path (Cluster.Submit): in Sequencer mode the
// whole burst reserves a consecutive sequence range per involved shard in
// one order-server round trip each, and a cross-shard ET commits
// atomically over its shards' ordering domains.
func (e *Engine) UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	return e.c.Submit(origin, bursts, &e.method)
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
	e.applyOps(s, m)
	st.mu.Lock()
	delete(st.arrived, m.Seq)
	st.next++
	e.trySkipLocked(st)
	st.mu.Unlock()
	st.applyMu.Unlock()
	e.applies.Add(1)
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
	e.applyOps(s, m)
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
	e.applyOps(s, m)
	st.mu.Lock()
	delete(st.pending, m.ET)
	st.mu.Unlock()
	e.applies.Add(1)
	return nil
}

// applyOps applies the MSet through core's apply kernel.  Under
// timestamp ordering the TO stamps bump before the values change, so
// queries can bracket their reads.
func (e *Engine) applyOps(s *replica.Site, m et.MSet) {
	e.markTO(s.ID, m)
	e.method.Apply(s, m, nil)
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
				// Read the watermark with submit held, so every
				// reservation below it is already enqueued.
				st.submit.Lock()
				wm, err := e.c.SeqCommittedWatermarkShard(id, sh)
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
