// Package seqrep replicates ORDUP's centralized order server (§3.1)
// across a small ensemble of the cluster's sites, removing the paper's
// "centralized-sequencer availability cost": the order service survives
// the crash of any minority of its replicas.
//
// The protocol is a Raft-lite specialised to the one piece of state the
// sequencer owns.  Because the NextSeqN contract already permits gaps —
// a run reserved by a client that then crashes is simply never used —
// the replicated reservation log compresses to a single monotone
// watermark: the highest sequence number ever handed out.  Replicating
// an append therefore cannot conflict, and the log-matching machinery of
// full Raft is unnecessary.  What remains is:
//
//   - Leader election with terms, randomized timeouts and one vote per
//     term.  Vote replies carry the voter's watermark; a candidate that
//     wins adopts the maximum over its majority.  Any reservation that
//     was acknowledged to a client was durable on a majority, every
//     majority intersects the electing majority, so the new leader's
//     watermark is at least as high as every acknowledged run — handed
//     out runs are never reissued (no duplicates, no overlaps).
//   - Watermark replication: the leader allocates [w+1, w+n] locally,
//     persists, pushes the new watermark to followers, and answers the
//     client only once a majority (counting itself) has durably noted a
//     watermark covering the run.  Heartbeats are just appends with an
//     unchanged watermark.
//   - Failure behavior: a deposed leader fails its in-flight
//     reservations (the client re-discovers and retries; unused runs
//     become permitted gaps), and a follower rejects appends and votes
//     from stale terms.
//
// Replica i listens on virtual site ReplicaSite(i) of the ordinary
// network.Transport, so the ensemble runs identically over network.Sim
// and network.TCP, in one process or many.
package seqrep

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/queue"
	"esr/internal/trace"
)

// Base is the first virtual site ID of the sequencer ensemble; replica
// i (co-hosted with cluster site i) answers on Base+i.  The range sits
// clear of real sites (1..Sites), the legacy order server (1000) and
// esrnode's control sites (2000+).
const Base clock.SiteID = 1100

// ShardStride is the width of one ordering shard's slice of the virtual
// site space: shard s's ensemble answers on
// [Base+s*ShardStride, Base+(s+1)*ShardStride).  With et.MaxShards
// ensembles the range tops out at Base+16*24-1 = 1483, clear of the
// snapshot servers at 1500+.
const ShardStride = 24

// ReplicaSiteAt maps (shard, replica cluster-site ID) to the replica's
// virtual transport site.
func ReplicaSiteAt(shard int, id clock.SiteID) clock.SiteID {
	return Base + clock.SiteID(shard)*ShardStride + id
}

// ReplicaSite maps a shard-0 replica's cluster-site ID to its virtual
// transport site — the pre-sharding surface.
func ReplicaSite(id clock.SiteID) clock.SiteID { return ReplicaSiteAt(0, id) }

// Metrics are the ensemble's instruments.  Nil fields discard.
type Metrics struct {
	// Elections counts election rounds this replica started (candidacies).
	Elections *metrics.Counter
	// Leader is 1 while this replica believes it is the leader.
	Leader *metrics.Gauge
	// CommitSeconds observes reservation latency from leader admission to
	// majority commit — the blocking leg every update ET's sequence
	// number waits behind.
	CommitSeconds *metrics.Histogram
	// AppendRTT observes leader→follower watermark append round trips.
	AppendRTT *metrics.Histogram
	// FsyncSeconds observes state-file fsync latency (term/vote/watermark
	// persistence).
	FsyncSeconds *metrics.Histogram
	// Trace, when set, receives seq-commit/seq-append/election span
	// events attributed to TraceSite (the replica's cluster-site ID).
	// Nil-ring methods are no-ops, so emissions never guard.
	Trace *trace.Ring
	// TraceSite is the site label Trace events carry.
	TraceSite int
}

// Config parameterizes one replica.
type Config struct {
	// ID is the replica's cluster-site ID, in 1..Replicas.
	ID clock.SiteID
	// Shard is the ordering shard whose sequence space this ensemble
	// owns.  It selects the replica's virtual-site slice
	// (ReplicaSiteAt) and its state-file name; shard 0 is the
	// pre-sharding layout.
	Shard int
	// Replicas is the ensemble size (typically 3; majorities need an odd
	// size to be useful).
	Replicas int
	// Transport carries all protocol traffic.  The caller keeps
	// ownership.
	Transport network.Transport
	// Dir, when non-empty, persists term, vote and watermark to
	// Dir/seqrep-<id>.state with an fsync per change, so the replica's
	// promises survive kill -9.  Empty keeps state in memory (the
	// protocol is then safe against Transport.Crash, not process death).
	Dir string
	// ElectionTimeout is the base follower timeout; the effective
	// timeout is randomized in [base, 2*base).  Zero means 60ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's append interval.  Zero means
	// ElectionTimeout/6.
	Heartbeat time.Duration
	// CommitTimeout bounds how long a reservation waits for majority
	// acknowledgement before telling the client to retry.  Zero means
	// 2s.
	CommitTimeout time.Duration
	// Metrics instruments the replica.
	Metrics Metrics
}

type role uint8

const (
	follower role = iota
	candidate
	leader
)

// waiter is one blocked reservation: fulfilled (1) once the commit
// watermark covers end, failed (0) if the replica is deposed first.
type waiter struct {
	end uint64
	ch  chan byte
}

// Replica is one member of the replicated sequencer ensemble.
type Replica struct {
	cfg    Config
	me     clock.SiteID // virtual transport site
	peers  []clock.SiteID
	quorum int

	mu        sync.Mutex
	closed    bool
	role      role
	term      uint64
	votedFor  uint64 // replica ID voted for in term (0 = none)
	leaderID  uint64 // last known leader's replica ID (0 = unknown)
	watermark uint64 // highest reservation end noted here
	// persistedWM is the highest watermark fsynced to this replica's
	// state file — what the replica may self-ack toward a quorum.  It
	// trails watermark only inside handleReserve's group-commit window.
	persistedWM uint64
	commit      uint64 // leader: highest majority-acked watermark
	matched     map[clock.SiteID]uint64
	waiters     []waiter
	busy        map[clock.SiteID]bool // single-flight append per peer
	lastHeard   time.Time
	timeout     time.Duration // current randomized election timeout
	rng         *rand.Rand
	state       *queue.Log

	nudge chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// New builds and starts a replica: it loads any persisted state,
// registers its protocol handler on ReplicaSite(cfg.ID) and begins
// electing.  Replica 1's first election timeout is the shortest
// (staggered by ID), so an idle fresh ensemble deterministically elects
// the replica on site 1.
func New(cfg Config) (*Replica, error) {
	if cfg.ID < 1 || int(cfg.ID) > cfg.Replicas {
		return nil, fmt.Errorf("seqrep: replica ID %v outside 1..%d", cfg.ID, cfg.Replicas)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("seqrep: nil transport")
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 60 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.ElectionTimeout / 6
	}
	if cfg.CommitTimeout <= 0 {
		cfg.CommitTimeout = 2 * time.Second
	}
	r := &Replica{
		cfg:    cfg,
		me:     ReplicaSiteAt(cfg.Shard, cfg.ID),
		quorum: cfg.Replicas/2 + 1,
		busy:   make(map[clock.SiteID]bool),
		rng:    rand.New(rand.NewSource(int64(cfg.ID)*2654435761 + 1)),
		nudge:  make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	for i := 1; i <= cfg.Replicas; i++ {
		if id := clock.SiteID(i); id != cfg.ID {
			r.peers = append(r.peers, ReplicaSiteAt(cfg.Shard, id))
		}
	}
	if cfg.Dir != "" {
		sf, st, err := openState(cfg.Dir, cfg.ID, cfg.Shard)
		if err != nil {
			return nil, err
		}
		r.state = sf
		r.term, r.votedFor, r.watermark = st.term, st.votedFor, st.watermark
		r.persistedWM = r.watermark
	}
	r.lastHeard = time.Now()
	// Staggered first timeout: base/2, 3*base/2, 5*base/2, ... so the
	// lowest live replica wins the first election without a split vote.
	r.timeout = cfg.ElectionTimeout/2 + time.Duration(cfg.ID-1)*cfg.ElectionTimeout
	cfg.Transport.Register(r.me, r.handle)
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// ID returns the replica's cluster-site ID.
func (r *Replica) ID() clock.SiteID { return r.cfg.ID }

// IsLeader reports whether this replica currently believes it leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == leader && !r.closed
}

// Term returns the replica's current term (tests and debugging).
func (r *Replica) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// Watermark returns the highest reservation end this replica has noted.
func (r *Replica) Watermark() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watermark
}

// Stop halts the replica's goroutines and closes its state file.  The
// transport keeps the (now failing) handler registered; a restarted
// replica re-registers over it.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.becomeFollowerLocked(r.term, false)
	close(r.done)
	r.mu.Unlock()
	r.wg.Wait()
	r.mu.Lock()
	if r.state != nil {
		r.state.Close()
		r.state = nil
	}
	r.mu.Unlock()
}

// run is the replica's single timer loop: election timeouts for
// followers and candidates, heartbeat/replication rounds for leaders.
func (r *Replica) run() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.Heartbeat / 2)
	defer tick.Stop()
	lastRound := time.Time{}
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		case <-r.nudge:
		}
		r.mu.Lock()
		switch r.role {
		case leader:
			due := time.Since(lastRound) >= r.cfg.Heartbeat
			var pending bool
			for _, w := range r.waiters {
				if w.end > r.commit {
					pending = true
					break
				}
			}
			if due || pending {
				lastRound = time.Now()
				r.replicateLocked()
			}
			r.mu.Unlock()
		default:
			if time.Since(r.lastHeard) >= r.timeout {
				r.campaignLocked()
			}
			r.mu.Unlock()
		}
	}
}

// kick wakes the run loop immediately (fresh reservation to replicate).
func (r *Replica) kick() {
	select {
	case r.nudge <- struct{}{}:
	default:
	}
}

// resetTimerLocked restarts the election timer with a fresh randomized
// timeout.
func (r *Replica) resetTimerLocked() {
	r.lastHeard = time.Now()
	base := r.cfg.ElectionTimeout
	r.timeout = base + time.Duration(r.rng.Int63n(int64(base)))
}

// campaignLocked starts an election: bump the term, vote for self, and
// solicit the ensemble.  Called with mu held; the vote collection runs
// in its own goroutine.
func (r *Replica) campaignLocked() {
	r.term++
	r.role = candidate
	r.votedFor = uint64(r.cfg.ID)
	r.leaderID = 0
	r.persistLocked()
	r.resetTimerLocked()
	r.cfg.Metrics.Elections.Inc()
	r.cfg.Metrics.Trace.RecordMSetf(trace.Election, r.cfg.Metrics.TraceSite, "", 0,
		"candidate term=%d wm=%d", r.term, r.watermark)
	term, wm := r.term, r.watermark
	votes := make(chan message, len(r.peers))
	for _, p := range r.peers {
		p := p
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			resp, err := r.cfg.Transport.Call(r.me, p, message{
				Kind: kindVoteReq, Term: term, From: uint64(r.cfg.ID), Watermark: wm,
			}.encode())
			if err != nil {
				return
			}
			if m, err := decode(resp); err == nil {
				votes <- m
			}
		}()
	}
	r.wg.Add(1)
	go r.tally(term, wm, votes)
}

// tally collects vote replies for one election round and promotes the
// candidate on a majority.
func (r *Replica) tally(term, wm uint64, votes <-chan message) {
	defer r.wg.Done()
	granted := 1 // self
	maxWM := wm
	deadline := time.After(2 * r.cfg.ElectionTimeout)
	for i := 0; i < r.cfg.Replicas-1; i++ {
		var m message
		select {
		case m = <-votes:
		case <-deadline:
			return
		case <-r.done:
			return
		}
		r.mu.Lock()
		if m.Term > r.term {
			r.becomeFollowerLocked(m.Term, true)
			r.mu.Unlock()
			return
		}
		stale := r.term != term || r.role != candidate
		r.mu.Unlock()
		if stale {
			return
		}
		if m.Flags&flagOK == 0 {
			continue
		}
		if m.Watermark > maxWM {
			maxWM = m.Watermark
		}
		if granted++; granted >= r.quorum {
			r.becomeLeader(term, maxWM)
			return
		}
	}
}

// becomeLeader installs leadership for the term, adopting the highest
// watermark any voter reported — the majority-intersection step that
// makes acknowledged runs unrepeatable.
func (r *Replica) becomeLeader(term, maxWM uint64) {
	r.mu.Lock()
	if r.closed || r.term != term || r.role != candidate {
		r.mu.Unlock()
		return
	}
	r.role = leader
	r.leaderID = uint64(r.cfg.ID)
	if maxWM > r.watermark {
		r.watermark = maxWM
	}
	// Runs at or below the adopted watermark were either acknowledged by
	// a previous leader (committed on a majority that voted here) or
	// never handed out; both make them permitted gaps, so commit resumes
	// at the adopted watermark.
	r.commit = r.watermark
	r.matched = make(map[clock.SiteID]uint64, len(r.peers))
	r.persistLocked()
	r.cfg.Metrics.Leader.Set(1)
	r.cfg.Metrics.Trace.RecordMSetf(trace.Election, r.cfg.Metrics.TraceSite, "", 0,
		"leader term=%d wm=%d", term, r.watermark)
	r.replicateLocked()
	r.mu.Unlock()
}

// becomeFollowerLocked steps down into the given term.  Every blocked
// reservation fails (the client retries against the new leader; any
// already-replicated runs become permitted gaps).  resetVote clears the
// term's vote (true when the term advances).
func (r *Replica) becomeFollowerLocked(term uint64, resetVote bool) {
	wasLeader := r.role == leader
	r.role = follower
	if term > r.term {
		r.term = term
	}
	if resetVote {
		r.votedFor = 0
	}
	r.leaderID = 0
	r.matched = nil
	for _, w := range r.waiters {
		w.ch <- 0
	}
	r.waiters = nil
	r.persistLocked()
	if wasLeader {
		r.cfg.Metrics.Leader.Set(0)
	}
	r.resetTimerLocked()
}

// replicateLocked pushes the current watermark to every peer not
// already mid-append.  Called with mu held; each push runs in its own
// goroutine (single-flight per peer).
func (r *Replica) replicateLocked() {
	term, wm := r.term, r.watermark
	for _, p := range r.peers {
		if r.busy[p] {
			continue
		}
		r.busy[p] = true
		p := p
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			t0 := time.Now()
			resp, err := r.cfg.Transport.Call(r.me, p, message{
				Kind: kindAppend, Term: term, From: uint64(r.cfg.ID), Watermark: wm,
			}.encode())
			r.mu.Lock()
			defer r.mu.Unlock()
			r.busy[p] = false
			if err != nil || r.closed {
				return
			}
			r.cfg.Metrics.AppendRTT.Observe(int64(time.Since(t0)))
			r.cfg.Metrics.Trace.RecordSpan(trace.SeqAppend, r.cfg.Metrics.TraceSite, "", 0,
				t0, fmt.Sprintf("peer=%d wm=%d term=%d", p-Base, wm, term))
			m, derr := decode(resp)
			if derr != nil {
				return
			}
			if m.Term > r.term {
				r.becomeFollowerLocked(m.Term, true)
				return
			}
			if r.role != leader || r.term != term || m.Flags&flagOK == 0 {
				return
			}
			if m.Watermark > r.matched[p] {
				r.matched[p] = m.Watermark
				r.advanceCommitLocked()
			}
		}()
	}
}

// advanceCommitLocked recomputes the majority-acked watermark and
// fulfills every reservation it now covers.
func (r *Replica) advanceCommitLocked() {
	acked := make([]uint64, 0, r.cfg.Replicas)
	acked = append(acked, r.persistedWM) // self: only what is durable here
	for _, wm := range r.matched {
		acked = append(acked, wm)
	}
	// quorum-th largest acked watermark.
	for i := 0; i < len(acked); i++ {
		for j := i + 1; j < len(acked); j++ {
			if acked[j] > acked[i] {
				acked[i], acked[j] = acked[j], acked[i]
			}
		}
	}
	if len(acked) < r.quorum {
		return
	}
	c := acked[r.quorum-1]
	if c <= r.commit {
		return
	}
	r.commit = c
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		if w.end <= c {
			w.ch <- 1
		} else {
			kept = append(kept, w)
		}
	}
	r.waiters = kept
}

// persistLocked makes the replica's promises (term, vote, watermark)
// durable before they can influence the protocol.  No-op in memory-only
// mode.
func (r *Replica) persistLocked() {
	if r.state != nil {
		t0 := time.Now()
		saveState(r.state, stateRec{term: r.term, votedFor: r.votedFor, watermark: r.watermark})
		r.cfg.Metrics.FsyncSeconds.Observe(int64(time.Since(t0)))
	}
	r.persistedWM = r.watermark
}

// handle is the replica's transport handler for all protocol frames.
func (r *Replica) handle(from clock.SiteID, payload []byte) ([]byte, error) {
	m, err := decode(payload)
	if err != nil {
		return nil, err
	}
	switch m.Kind {
	case kindVoteReq:
		return r.handleVote(m), nil
	case kindAppend:
		return r.handleAppend(m), nil
	case kindReserve:
		return r.handleReserve(m), nil
	case kindWmQuery:
		return r.handleWmQuery(), nil
	default:
		return nil, fmt.Errorf("seqrep: unexpected frame kind %d", m.Kind)
	}
}

func (r *Replica) handleVote(m message) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return message{Kind: kindVoteResp, Term: r.term, From: uint64(r.cfg.ID)}.encode()
	}
	if m.Term > r.term {
		r.becomeFollowerLocked(m.Term, true)
	}
	resp := message{Kind: kindVoteResp, Term: r.term, From: uint64(r.cfg.ID), Watermark: r.watermark}
	if m.Term == r.term && (r.votedFor == 0 || r.votedFor == m.From) && r.role != leader {
		r.votedFor = m.From
		// Persist before replying: a granted vote must survive a crash.
		r.persistLocked()
		r.resetTimerLocked()
		resp.Flags = flagOK
	}
	return resp.encode()
}

func (r *Replica) handleAppend(m message) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return message{Kind: kindAppendResp, Term: r.term, From: uint64(r.cfg.ID)}.encode()
	}
	if m.Term < r.term {
		return message{Kind: kindAppendResp, Term: r.term, From: uint64(r.cfg.ID), Watermark: r.watermark}.encode()
	}
	if m.Term > r.term || r.role != follower {
		r.becomeFollowerLocked(m.Term, m.Term > r.term)
	}
	r.leaderID = m.From
	r.resetTimerLocked()
	changed := false
	if m.Watermark > r.watermark {
		r.watermark = m.Watermark
		changed = true
	}
	if changed {
		r.persistLocked()
	}
	return message{Kind: kindAppendResp, Term: r.term, From: uint64(r.cfg.ID),
		Watermark: r.watermark, Flags: flagOK}.encode()
}

// handleWmQuery reports the leader's committed (majority-acked)
// watermark.  Only a committed value is safe to hand out: an
// uncommitted allocation by a deposed leader can be reissued by a
// successor, so anything above commit may still become a run's start.
// Idle origins use this to raise the sequence floor they advertise in
// heartbeats — any run they reserve in the future starts above it.
func (r *Replica) handleWmQuery() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.role != leader {
		return message{Kind: kindWmResp, From: r.leaderID, Flags: flagNotLeader}.encode()
	}
	return message{Kind: kindWmResp, Term: r.term, From: uint64(r.cfg.ID),
		Watermark: r.commit, Flags: flagOK}.encode()
}

// handleReserve allocates a run and blocks until it is majority-durable
// (or the replica is deposed / the wait times out).  The reply start is
// only sent once no future leader can ever reissue any number in the
// run.
func (r *Replica) handleReserve(m message) []byte {
	t0 := time.Now()
	count := m.Count
	if count == 0 {
		count = 1
	}
	r.mu.Lock()
	if r.closed || r.role != leader {
		hint := r.leaderID
		r.mu.Unlock()
		return message{Kind: kindReserveResp, From: hint, Flags: flagNotLeader}.encode()
	}
	start := r.watermark + 1
	end := r.watermark + count
	r.watermark = end
	w := waiter{end: end, ch: make(chan byte, 1)}
	r.waiters = append(r.waiters, w)
	term := r.term
	r.mu.Unlock()
	// Kick replication before our own fsync: commit needs a majority of
	// durable copies, not the leader's copy specifically (the electing
	// majority intersects whichever quorum acked), and advanceCommit
	// only self-acks persistedWM — so followers persist the run in
	// parallel with the fsync below instead of after it.
	r.kick()
	r.mu.Lock()
	if !r.closed && r.role == leader && r.term == term {
		// Group commit: one fsync covers every run admitted before it,
		// because the state file records the monotone max watermark.  A
		// concurrent reservation that raced ahead of us may have
		// already made this run durable — then the disk is skipped.
		if r.persistedWM < end {
			// Persist before replying: the run must be durable before the
			// reservation's reply leaves.
			r.persistLocked()
		}
		r.advanceCommitLocked()
	}
	r.mu.Unlock()
	select {
	case ok := <-w.ch:
		if ok == 1 {
			r.cfg.Metrics.CommitSeconds.Observe(int64(time.Since(t0)))
			r.cfg.Metrics.Trace.RecordSpan(trace.SeqCommit, r.cfg.Metrics.TraceSite, "", 0,
				t0, fmt.Sprintf("run=[%d,%d] term=%d", start, end, term))
			return message{Kind: kindReserveResp, Term: term, From: uint64(r.cfg.ID),
				Watermark: start, Flags: flagOK}.encode()
		}
		return message{Kind: kindReserveResp, Flags: flagNotLeader}.encode()
	case <-time.After(r.cfg.CommitTimeout):
		// The run may still commit later; the client gives up and
		// retries, and the numbers become a permitted gap.
		return message{Kind: kindReserveResp, Flags: flagNotLeader}.encode()
	case <-r.done:
		return message{Kind: kindReserveResp, Flags: flagNotLeader}.encode()
	}
}
