// The write path (DESIGN.md §2).  Every replica-control method's update
// ETs enter through Submit — filter, admit, order, stamp, track, broadcast
// — and every site applies them through one kernel, Method.Apply.  A
// Method holds only what the paper's Table 1 says differs between the
// four methods: the order an MSet needs, what an update must pass to be
// admitted, and how an op is applied.

package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/replica"
)

// Order is the ordering requirement a method's MSets carry.
type Order int

const (
	// Unordered MSets apply in any order (COMMU, RITU, commutative COMPE).
	Unordered Order = iota
	// Sequenced MSets carry a global sequence number per shard, reserved
	// from the order service for the whole burst (ORDUP's sequencer,
	// general COMPE).
	Sequenced
	// Timestamped MSets apply in Lamport-timestamp order, so an origin
	// stamps and enqueues each shard's MSets atomically (ORDUP-Lamport).
	Timestamped
)

// Method is one replica-control method's row of the write path.  Set the
// exported fields once, before the first Submit; a Method must not be
// copied after first use.
type Method struct {
	// Order is the MSets' ordering requirement.
	Order Order
	// Floors makes each sequenced MSet carry its own Seq as SeqFloor:
	// the replicated sequencer's gap evidence, which holds only if an
	// origin's runs leave in reservation order.
	Floors bool
	// Gate returns the submit gate of one (origin, shard) ordering
	// domain.  Submit pins a burst's gates in ascending shard order when
	// the order needs per-origin atomicity (Timestamped, Floors) or the
	// burst crosses shards.  Nil keeps the method on one domain: every
	// MSet rides shard 0.
	Gate func(origin clock.SiteID, shard int) *sync.Mutex
	// NotUpdate is the error for an ET with no update op.
	NotUpdate error
	// AdmitOp vets each update op as Submit filters an ET.
	AdmitOp func(op.Op) error
	// Family, when set, maps an op kind to its commutativity family
	// (op.Read: none).  Submit pins each object to the family of its
	// first admitted update and rejects, with FamilyErr, an op outside
	// every family or in another one.  A burst's pins commit only once
	// the whole burst is admitted.
	Family    func(op.Kind) op.Kind
	FamilyErr error
	// Admit, when set, runs once per burst after every ET passed, before
	// the family pins commit (COMMU's lock-counter throttle).
	Admit func(updates [][]op.Op) error
	// Stamp picks an ET's timestamp at its origin; nil ticks the origin's
	// clock.  It runs under the tracker's lock, so a stamp derived from
	// tracked state is registered before that state can move.
	Stamp func(s *replica.Site, updates []op.Op) clock.Timestamp
	// Flights tracks the method's ETs until every site applied them (nil:
	// untracked).
	Flights *Flights

	pinMu sync.Mutex
	pins  map[string]op.Kind // object -> its pinned family
}

// part is one MSet of a burst: ET i's update ops in one shard.
type part struct {
	et, shard int
	ops       []op.Op
}

// Submit executes a burst of independent update ETs at origin and
// propagates them as one batch: one sequence reservation per involved
// shard, one batched journal record per link.  An ET's ops split into one
// MSet per shard they touch.  A cross-shard ET commits atomically (2PC):
// the shards' reservations prepare, the origin's durable cross-shard
// record decides, the per-shard broadcasts commit; runs reserved before a
// failed prepare become permitted gaps.  Each ET is tracked before its
// broadcast, so counts of ETs in transit include it.  Submit returns once
// every copy is durably queued, the asynchronous methods' commit point.
func (c *Cluster) Submit(origin clock.SiteID, bursts [][]op.Op, p *Method) ([]et.ID, error) {
	if len(bursts) == 0 {
		return nil, nil
	}
	s := c.Site(origin)
	if s == nil {
		return nil, fmt.Errorf("core: unknown site %v", origin)
	}
	updates, err := p.admit(bursts)
	if err != nil {
		return nil, err
	}
	shards := 1
	if p.Gate != nil {
		shards = c.Shards()
	}
	var counts [et.MaxShards]uint64 // MSets per shard across the burst
	var buf [4]part                 // small bursts split without allocating
	parts := buf[:0]
	cross := false
	for i, ops := range updates {
		if shards == 1 {
			parts = append(parts, part{et: i, ops: ops})
			counts[0]++
			continue
		}
		var split [et.MaxShards][]op.Op
		for _, o := range ops {
			sh := c.ShardOfObject(o.Object)
			split[sh] = append(split[sh], o)
		}
		n := len(parts)
		for sh := 0; sh < shards; sh++ {
			if split[sh] != nil {
				parts = append(parts, part{et: i, shard: sh, ops: split[sh]})
				counts[sh]++
			}
		}
		cross = cross || len(parts)-n > 1
	}
	// Lamport stability needs per-link FIFO to imply per-origin timestamp
	// order, and a SeqFloor promises nothing below it is still unsent from
	// this origin in its shard: both need stamping (or reserving) and
	// enqueueing atomic per origin and shard.  Cross-shard bursts always
	// pin, serializing the durable decision record and its broadcast.
	// Ascending shard order keeps concurrent bursts deadlock-free.
	if p.Gate != nil && (p.Order == Timestamped || p.Floors || cross) {
		for sh := 0; sh < shards; sh++ {
			if counts[sh] > 0 {
				p.Gate(origin, sh).Lock()
			}
		}
		defer func() {
			for sh := 0; sh < shards; sh++ {
				if counts[sh] > 0 {
					p.Gate(origin, sh).Unlock()
				}
			}
		}()
	}
	var next [et.MaxShards]uint64 // next reserved sequence number per shard
	var seqT0 time.Time
	if p.Order == Sequenced {
		seqT0 = time.Now()
		for sh := 0; sh < shards; sh++ {
			if counts[sh] == 0 {
				continue
			}
			n, err := c.NextSeqNShard(origin, sh, counts[sh])
			if err != nil {
				return nil, err
			}
			next[sh] = n
		}
	}
	// Stamp: ET identities, timestamps and reserved sequence numbers in
	// burst order per shard, each ET tracked with one part per shard.
	ids := make([]et.ID, len(bursts))
	msets := make([]et.MSet, 0, len(parts))
	for k := 0; k < len(parts); {
		i := parts[k].et
		n := 1
		for k+n < len(parts) && parts[k+n].et == i {
			n++
		}
		id := c.NextET(origin)
		ids[i] = id
		var shardSet uint64
		for _, pt := range parts[k : k+n] {
			shardSet |= 1 << pt.shard
		}
		ts := p.Flights.track(id, updates[i], shardSet, func() clock.Timestamp {
			if p.Stamp != nil {
				return p.Stamp(s, updates[i])
			}
			return s.Clock.Tick()
		})
		for _, pt := range parts[k : k+n] {
			m := et.MSet{ET: id, Origin: origin, TS: ts, Ops: pt.ops, Shard: pt.shard}
			if p.Order == Sequenced {
				m.Seq = next[pt.shard]
				next[pt.shard]++
				if p.Floors {
					m.SeqFloor = m.Seq
				}
			}
			msets = append(msets, m)
		}
		c.RecordUpdate(id, bursts[i])
		k += n
	}
	var byShard [et.MaxShards][]et.MSet
	if shards == 1 {
		byShard[0] = msets
	} else {
		for _, m := range msets {
			byShard[m.Shard] = append(byShard[m.Shard], m)
		}
	}
	msgs, err := encodeMSets(msets)
	if err == nil && cross {
		err = c.beginCrossShard(origin, msgs)
	}
	if err == nil {
		err = c.commit(msgs, msets)
	}
	if err == nil && cross {
		err = c.endCrossShard(origin)
	}
	if err != nil {
		return nil, err
	}
	if p.Order == Sequenced {
		// The ordering leg: reserve round trip through stamping, one span
		// per MSet so every timeline shows its sequencing cost.
		for _, part := range byShard {
			if len(part) > 0 {
				c.recordSequenceSpan(origin, part, seqT0)
			}
		}
	}
	return ids, nil
}

// admit filters each ET down to its update ops and runs the method's
// admission checks: per op, then per ET, then per burst.  Nothing is
// pinned unless the whole burst passes.
func (p *Method) admit(bursts [][]op.Op) ([][]op.Op, error) {
	updates := make([][]op.Op, len(bursts))
	var staged map[string]op.Kind // object -> family this burst pins
	for i, ops := range bursts {
		u := make([]op.Op, 0, len(ops))
		for _, o := range ops {
			if !o.Kind.IsUpdate() {
				continue
			}
			if p.AdmitOp != nil {
				if err := p.AdmitOp(o); err != nil {
					return nil, err
				}
			}
			u = append(u, o)
		}
		if len(u) == 0 {
			return nil, p.NotUpdate
		}
		if p.Family != nil {
			if staged == nil {
				staged = make(map[string]op.Kind, len(u))
			}
			if err := p.stage(staged, u); err != nil {
				return nil, err
			}
		}
		updates[i] = u
	}
	if p.Admit != nil {
		if err := p.Admit(updates); err != nil {
			return nil, err
		}
	}
	if staged == nil {
		return updates, nil
	}
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	for obj, f := range staged {
		if cur, ok := p.pins[obj]; ok && cur != f {
			// Another burst pinned the object since this one staged it.
			return nil, fmt.Errorf("%w: %v on %q conflicts with the object's established operation family", p.FamilyErr, f, obj)
		}
	}
	if p.pins == nil {
		p.pins = make(map[string]op.Kind, len(staged))
	}
	for obj, f := range staged {
		p.pins[obj] = f
	}
	return updates, nil
}

// stage checks each op against its object's family, staged by this
// burst or already pinned, and stages it.
func (p *Method) stage(staged map[string]op.Kind, ops []op.Op) error {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	for _, o := range ops {
		f := p.Family(o.Kind)
		if f == op.Read {
			return fmt.Errorf("%w: %v", p.FamilyErr, o)
		}
		cur, ok := staged[o.Object]
		if !ok {
			cur, ok = p.pins[o.Object]
		}
		if ok && cur != f {
			return fmt.Errorf("%w: %v conflicts with the object's established operation family", p.FamilyErr, o)
		}
		staged[o.Object] = f
	}
	return nil
}

// Apply is the write path's apply kernel.  It applies m's ops with apply
// (nil: to the site's store) and installs each updated object's last
// value that apply reports, once, in the site's version chain at m.TS
// (idempotent under redelivery).  It takes no lock: the site's apply
// scheduler runs every MSet naming an object in one serial group.  The
// site notes m applied once its own bookkeeping has it.
func (p *Method) Apply(s *replica.Site, m et.MSet, apply func(*replica.Site, op.Op) (op.Value, bool)) {
	objs := op.Objects(m.Ops, false)
	type version struct {
		val op.Value
		ok  bool
	}
	var buf [8]version // on the stack: a small MSet's apply allocates nothing here
	vers := buf[:]
	if len(objs) > len(buf) {
		vers = make([]version, len(objs))
	}
	for _, o := range m.Ops {
		var v op.Value
		ok := true
		if apply != nil {
			v, ok = apply(s, o)
		} else {
			v = s.Store.Apply(o)
		}
		if ok && o.Kind.IsUpdate() {
			vers[sort.SearchStrings(objs, o.Object)] = version{v, true}
		}
	}
	for i, obj := range objs {
		if vers[i].ok {
			s.MV.InstallMonotone(obj, m.TS, vers[i].val)
		}
	}
}

// Flights is the write path's applied-tracker: each update ET Submit
// admits is in flight from before its broadcast until every site has
// applied every part of it (one MSet per shard it touches).  A site
// notes a part applied only after its own bookkeeping (WAL, watermark)
// has it, so a read that waited on AppliedAt snapshots past the ET.
// Engines that embed it answer AppliedAt, AppliedEverywhere and
// Outstanding from it.
type Flights struct {
	mu     sync.Mutex
	sites  int
	live   map[et.ID]flight
	settle func(ts, oldest clock.Timestamp)
}

// flight is one tracked ET: its update ops, its timestamp and, per site
// (index SiteID-1), the set of shards whose part that site has not
// applied.  A set, not a count: a part redelivered after a crash is
// noted again, and must not retire a sibling part.
type flight struct {
	ops  []op.Op
	ts   clock.Timestamp
	owes []uint64
}

// owed returns the shards whose part of the flight the site has not
// applied.
func (fl flight) owed(site clock.SiteID) uint64 {
	if site < 1 || int(site) > len(fl.owes) {
		return 0
	}
	return fl.owes[site-1]
}

// NewFlights returns the cluster's applied-tracker over its sites; the
// cluster's sites report every applied MSet to it.  settle, when set,
// runs under the tracker's lock after each applied MSet with the MSet's
// timestamp and the oldest timestamp still in flight (zero when none) —
// RITU advances its VTNC there.  Call it before Setup.
func NewFlights(c *Cluster, settle func(ts, oldest clock.Timestamp)) *Flights {
	f := &Flights{sites: len(c.SiteIDs()), live: make(map[et.ID]flight), settle: settle}
	c.flights = f
	return f
}

// track registers an ET with parts in the given set of shards, stamped
// by stamp under the tracker's lock, and returns the stamp.  A nil
// tracker only stamps.
func (f *Flights) track(id et.ID, ops []op.Op, shards uint64, stamp func() clock.Timestamp) clock.Timestamp {
	if f == nil {
		return stamp()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ts := stamp()
	f.live[id] = flight{ops: ops, ts: ts, owes: slices.Repeat([]uint64{shards}, f.sites)}
	return ts
}

// applied notes m's part of its ET applied at the site.
func (f *Flights) applied(m et.MSet, site clock.SiteID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.live[m.ET]; ok && fl.owed(site) != 0 {
		fl.owes[site-1] &^= 1 << m.Shard
		if !slices.ContainsFunc(fl.owes, func(s uint64) bool { return s != 0 }) {
			delete(f.live, m.ET)
		}
	}
	if f.settle != nil {
		var oldest clock.Timestamp
		for _, fl := range f.live {
			if oldest.IsZero() || fl.ts.Less(oldest) {
				oldest = fl.ts
			}
		}
		f.settle(m.TS, oldest)
	}
}

// AppliedAt reports whether the update ET (every part of it, for
// cross-shard ETs) has been applied at the site.  Unknown IDs report
// true.
func (f *Flights) AppliedAt(id et.ID, site clock.SiteID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.live[id]
	return !ok || fl.owed(site) == 0
}

// AppliedEverywhere reports whether the update ET has been applied at
// every site.  Unknown IDs report true (they are not in flight).
func (f *Flights) AppliedEverywhere(id et.ID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.live[id]
	return !ok
}

// Outstanding reports the number of update ETs not yet applied at every
// site.
func (f *Flights) Outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.live)
}

// Each calls fn, under the tracker's lock, with the update ops of every
// ET the site has not fully applied; site 0 visits every ET in flight.
func (f *Flights) Each(site clock.SiteID, fn func(ops []op.Op)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fl := range f.live {
		if site == 0 || fl.owed(site) != 0 {
			fn(fl.ops)
		}
	}
}
