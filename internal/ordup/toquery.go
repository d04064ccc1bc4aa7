package ordup

import (
	"fmt"
	"sort"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/tsdc"
)

// Scheduler selects the local divergence-control mechanism ORDUP sites
// use to bound what query ETs see.  The paper presents two: the modified
// 2PL compatibility of Table 2, and basic timestamp ordering with an ESR
// twist ("the divergence control increments the inconsistency counter
// and decides whether to allow the read depending on the specified
// divergence limit", §3.1).  Queries are lock-free snapshot reads under
// either, so the Table 2 arm takes no lock: it prices a read by the
// update ETs it overlaps, which is what Table 2's RQ/WU compatibility
// lets a query see.
type Scheduler int

const (
	// TwoPhaseLocking prices query reads by overlap, Table 2's view of
	// what a query may see (default).  It takes no lock.
	TwoPhaseLocking Scheduler = iota
	// TimestampOrdering uses a basic-TO scheduler: each object carries
	// the timestamp of its last write; query reads that observe a write
	// newer than the query's timestamp charge the inconsistency counter.
	TimestampOrdering
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	if s == TimestampOrdering {
		return "timestamp-ordering"
	}
	return "two-phase-locking"
}

// markTO records an applied MSet in the site's TO scheduler.  Called
// with the apply already serialized (one MSet at a time per site), so
// rejections cannot occur: applies arrive in global order, hence in
// non-decreasing TO timestamps.
func (e *Engine) markTO(site clock.SiteID, m et.MSet) {
	sched := e.tos[site]
	if sched == nil {
		return
	}
	ts := e.toTS(m)
	for _, o := range m.Ops {
		if o.Kind.IsUpdate() {
			sched.WriteU(o.Object, ts)
		}
	}
}

// toTS derives the TO timestamp of an MSet: the global sequence number
// under sequencer ordering (gap-free and monotone at every site), the
// Lamport timestamp otherwise.
func (e *Engine) toTS(m et.MSet) clock.Timestamp {
	if e.cfg.Ordering == Sequencer {
		return clock.Timestamp{Time: m.Seq}
	}
	return m.TS
}

// highWater returns the site's current query timestamp: everything
// applied at the site is at or below it.  Under sequencer ordering the
// minimum cursor across shards is used — with several independent
// sequence domains that is the only bound every applied write respects;
// reads of objects in a further-ahead shard may charge ε a little
// conservatively, never unsafely.
func (e *Engine) highWater(site clock.SiteID) clock.Timestamp {
	if e.cfg.Ordering == Sequencer {
		min := ^uint64(0)
		for _, st := range e.states[site] {
			st.mu.Lock()
			if st.next-1 < min {
				min = st.next - 1
			}
			st.mu.Unlock()
		}
		return clock.Timestamp{Time: min}
	}
	return e.c.Site(site).Clock.Now()
}

// queryTO executes a query ET under basic-TO divergence control: reads
// validate against per-object write timestamps, out-of-order
// observations charge the ε counter, and when the budget is exhausted
// the query falls back to the serialized (drain-and-read) path.
func (e *Engine) queryTO(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	s := e.c.Site(site)
	if s == nil {
		return et.QueryResult{}, fmt.Errorf("ordup: unknown site %v", site)
	}
	sched := e.tos[site]
	qid := e.c.NextET(site)
	counter := divergence.NewCounter(eps)
	sorted := append([]string(nil), objects...)
	sort.Strings(sorted)

	for attempt := 0; attempt < 3; attempt++ {
		qts := e.highWater(site)
		vals := make(map[string]op.Value, len(sorted))
		outOfOrder := 0
		for _, obj := range sorted {
			// Double-check pattern: the applier bumps the TO timestamp
			// before writing the value, so equal before/after stamps
			// bracket a consistent (timestamp, value) observation.
			var v op.Value
			var wts clock.Timestamp
			for {
				_, t1 := sched.ObjectTS(obj)
				v = s.Store.Get(obj)
				_, t2 := sched.ObjectTS(obj)
				if t1 == t2 {
					wts = t2
					break
				}
			}
			vals[obj] = v
			if qts.Less(wts) {
				outOfOrder++
			}
		}
		if outOfOrder == 0 || counter.TryAdd(outOfOrder) {
			for _, obj := range sorted {
				e.c.RecordQueryRead(qid, obj)
			}
			return et.QueryResult{
				Values:        vals,
				Inconsistency: counter.Count(),
				Epsilon:       eps,
				Site:          site,
			}, nil
		}
		// Budget refused the charge: wait for the backlog on these
		// objects to drain and retry with a fresh timestamp.
		for _, obj := range sorted {
			s.WaitDrained(obj, 50*time.Millisecond)
		}
	}
	// Final fallback: join the update serialization order by waiting the
	// remaining backlog out entirely — the lock-free equivalent of the
	// old RU-locked conservative path (the query then runs "in the
	// global order" without a lock-manager round trip).
	vals := make(map[string]op.Value, len(sorted))
	for _, obj := range sorted {
		_ = s.WaitDrained(obj, consistency.DefaultWaitTimeout)
		vals[obj] = s.Store.Get(obj)
		e.c.RecordQueryRead(qid, obj)
	}
	return et.QueryResult{
		Values:        vals,
		Inconsistency: counter.Count(),
		Epsilon:       eps,
		Site:          site,
	}, nil
}

// SchedulerStats returns the TO scheduler decision counters for a site
// (zero stats under overlap pricing).
func (e *Engine) SchedulerStats(site clock.SiteID) tsdc.Stats {
	if sched := e.tos[site]; sched != nil {
		return sched.Stats()
	}
	return tsdc.Stats{}
}
