// The unified read path (DESIGN.md §13).  Every consistency level and
// every method's ε-query runs through ReadAtSite, except the paper's two
// alternative divergence controls: ORDUP's basic-TO query and RITU-MV's
// VTNC query.  It takes no lock: a site has no lock manager.

package core

import (
	"fmt"
	"sort"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/trace"
)

// ReadOptions selects how a consistency-level read executes.  The zero
// value is an eventual read.
type ReadOptions struct {
	// Level is the consistency level from the menu.
	Level consistency.Level
	// Epsilon bounds the inconsistency a bounded read may import.  Zero
	// means zero; divergence.Unlimited places no bound.
	Epsilon divergence.Limit
	// Spec, when set, gives each object its own budget in place of
	// Epsilon (§5.1 spatial consistency); the result's Epsilon is then
	// Spec.Total(objects).
	Spec divergence.Spec
	// Price is a bounded read's cost for one object, given its epoch when
	// the read began.  Nil means OverlapCost.
	Price func(object string, baseline uint64) int
	// At, when set, reads this timestamp instead of the level's gate and
	// snapshot; clock.Latest reads the newest local state.
	At clock.Timestamp
	// MaxStaleness is the bounded level's Δt: the read proceeds only
	// while the site's wall-clock staleness is at most Δt.
	MaxStaleness time.Duration
	// MinTS is the session level's high-water mark: the read waits until
	// the SAFETIME watermark passes it (read-your-writes).
	MinTS clock.Timestamp
	// WaitTimeout caps how long the read parks on the delayed-read gate
	// before proceeding with what the site has.
	WaitTimeout time.Duration
}

// withDefaults fills unset knobs.
func (o ReadOptions) withDefaults() ReadOptions {
	if o.MaxStaleness <= 0 {
		o.MaxStaleness = consistency.DefaultMaxStaleness
	}
	if o.WaitTimeout <= 0 {
		o.WaitTimeout = consistency.DefaultWaitTimeout
	}
	return o
}

// ReadAtSite serves one read at the requested consistency level from the
// site's local replica.  All four levels share this path:
//
//	strong   — drain the gate: wait until no accepted update touching a
//	           requested object remains unapplied, then read the latest
//	           local state.  Once delivery quiesces this is byte-identical
//	           to the serial-order store.
//	bounded  — if the site's staleness exceeds Δt, park until the replica
//	           catches up; then read the SAFETIME snapshot, charging each
//	           object's Price against ε (an object whose charge does not
//	           fit drains first, like the paper's conservative queries).
//	session  — park until SAFETIME passes the caller's high-water mark,
//	           then read that snapshot (read-your-writes).
//	eventual — read the latest local state immediately.
//
// The paper's ε-query is the bounded level at At = clock.Latest: no Δt
// gate, and a read past ε drains and re-reads the newest local state,
// running "in the global order" (§3.1).
//
// Snapshot reads pin the MVStore at the chosen timestamp for their
// duration, so concurrent version GC never prunes state from under
// them.
func ReadAtSite(c *Cluster, site clock.SiteID, objects []string, o ReadOptions) (et.QueryResult, error) {
	s := c.Site(site)
	if s == nil {
		return et.QueryResult{}, fmt.Errorf("core: unknown site %v", site)
	}
	o = o.withDefaults()
	qid := c.NextET(site)
	sm := c.SiteMetrics(site)

	sorted := append([]string(nil), objects...)
	sort.Strings(sorted)
	baseline := make(map[string]uint64, len(sorted))
	for _, obj := range sorted {
		baseline[obj] = s.Epoch(obj)
	}

	// Gate phase: park until the level's precondition holds (unless At is set).
	waitStart := time.Now()
	delayed := false
	switch {
	case !o.At.IsZero():
	case o.Level == consistency.Strong:
		for _, obj := range sorted {
			if s.Pending(obj) > 0 {
				delayed = true
			}
			_ = s.WaitDrained(obj, o.WaitTimeout)
		}
	case o.Level == consistency.Session:
		if !o.MinTS.IsZero() && s.SafeTime().Less(o.MinTS) {
			delayed = true
			_, _ = s.WaitSafe(o.MinTS, o.WaitTimeout)
		}
	case o.Level == consistency.Bounded:
		if s.Staleness() > o.MaxStaleness {
			delayed = true
			_, _ = s.WaitStaleness(o.MaxStaleness, o.WaitTimeout)
		}
	}
	waited := time.Since(waitStart)
	if delayed {
		sm.ReadDelayed(o.Level).Inc()
		c.Trace.RecordSpan(trace.ReadWait, int(site), qid.String(), 0, waitStart,
			"level="+o.Level.String())
	}

	// Snapshot phase: select the timestamp and read it lock-free.
	snapStart := time.Now()
	ts := o.At
	switch {
	case !ts.IsZero():
	case o.Level == consistency.Bounded:
		ts = s.SafeTime()
	case o.Level == consistency.Session:
		// Favor recency: a session write already applied at this site
		// must be visible even while SAFETIME trails the applied
		// watermark (read-your-writes beats snapshot conservatism).
		ts = s.SafeTime()
		if wm := s.Watermark(); ts.Less(wm) {
			ts = wm
		}
		if ts.Less(o.MinTS) {
			ts = o.MinTS
		}
	case o.Level == consistency.Strong:
		ts = s.Watermark()
	}
	latest := ts == clock.Latest || (o.At.IsZero() && (o.Level == consistency.Strong || o.Level == consistency.Eventual))
	if !latest && !ts.IsZero() {
		pin := s.MV.Pin(ts)
		defer s.MV.Unpin(pin)
	}

	// Under a Spec each charge must fit its object's own limit first.
	spec := o.Spec.Default != 0 || len(o.Spec.PerObject) > 0
	counter := divergence.NewCounter(o.Epsilon)
	if spec {
		counter = divergence.NewCounter(o.Spec.Total(objects))
	}
	price := o.Price
	if price == nil {
		price = func(obj string, baseline uint64) int { return OverlapCost(s, obj, baseline) }
	}

	vals := make(map[string]op.Value, len(sorted))
	for _, obj := range sorted {
		if o.Level == consistency.Bounded {
			cost := price(obj, baseline[obj])
			if (spec && !o.Spec.For(obj).Allows(cost)) || !counter.TryAdd(cost) {
				// ε exhausted: drain this object's overlap away rather
				// than import it, then re-read the advanced state.
				sm.QueryFallback.Inc()
				c.Trace.Recordf(trace.QueryFallback, int(site), qid.String(), "obj=%s cost=%d", obj, cost)
				_ = s.WaitDrained(obj, o.WaitTimeout)
				if o.At.IsZero() {
					ts = s.SafeTime()
				}
			} else if cost > 0 {
				sm.QueryCharged.Inc()
				c.Trace.Recordf(trace.QueryCharged, int(site), qid.String(), "obj=%s cost=%d", obj, cost)
			}
		}
		switch {
		case latest:
			vals[obj] = latestRead(s, obj)
		case o.At.IsZero():
			vals[obj] = snapshotRead(s, obj, ts)
		default:
			// An explicit past timestamp reads the version chain alone:
			// an object with no version at or below it did not exist yet.
			v, _ := s.MV.ReadAt(obj, ts)
			vals[obj] = v.Val
		}
		c.RecordQueryRead(qid, obj)
	}
	c.Trace.RecordSpan(trace.ReadSnap, int(site), qid.String(), 0, snapStart,
		"level="+o.Level.String())
	if o.Level == consistency.Bounded {
		sm.EpsilonBudget.Set(int64(counter.Remaining())) // what the site's last bounded read had left
	}

	st := s.Staleness()
	sm.ObserveStaleness(o.Level, st)
	return et.QueryResult{
		Values:        vals,
		Inconsistency: counter.Count(),
		Epsilon:       counter.Limit(),
		Site:          site,
		Level:         o.Level,
		SnapTS:        ts,
		Staleness:     st,
		Waited:        waited,
	}, nil
}

// OverlapCost is the default read-pricing rule: update ETs applied at the
// site since the query began (epoch delta) plus update ETs queued but not
// yet applied (staleness), both restricted to the object being read.
// Together they count the update ETs the query overlaps on that object —
// the §2.1 error bound.
func OverlapCost(s *replica.Site, object string, baseline uint64) int {
	return s.Pending(object) + int(s.Epoch(object)-baseline)
}

// snapshotRead answers one object from the multi-version store at ts,
// falling back to the single-version store for objects with no version
// chain yet (pre-refactor recovery state, or coherency baselines that do
// not dual-write versions).
func snapshotRead(s *replica.Site, obj string, ts clock.Timestamp) op.Value {
	if v, ok := s.MV.ReadAt(obj, ts); ok {
		return v.Val
	}
	return s.Store.Get(obj)
}

// latestRead answers one object from the latest local state.  The
// single-version store wins when it has ever seen the object; otherwise
// the multi-version chain head serves methods whose state lives only
// there (the paper's multi-version RITU).
func latestRead(s *replica.Site, obj string) op.Value {
	if s.Store.Has(obj) {
		return s.Store.Get(obj)
	}
	if v, _, ok := s.MV.ReadLatest(obj); ok {
		return v.Val
	}
	return op.Value{}
}
