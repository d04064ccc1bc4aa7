// Package ritu implements the RITU (read-independent timestamped
// updates) replica-control method of §3.3.
//
// RITU updates are blind timestamped writes: their effect does not depend
// on the value they overwrite, so MSets "can be executed asynchronously"
// in any order.  Two modes follow the paper:
//
//   - SingleVersion: "An RITU update trying to overwrite a newer version
//     is ignored" — the Thomas write rule over a single-version store.
//     "In these cases, there is no divergence since by definition all the
//     reads request the latest version.  RITU reduces to COMMU."
//   - MultiVersion: every update installs an immutable version; a visible
//     transaction number counter (VTNC) marks the prefix of versions that
//     is stable ("no smaller version can be created by any active or
//     future transactions"), yielding SR queries.  "Query ETs may read
//     versions newer than VTNC, knowing that the newer value may
//     introduce inconsistency" — at one inconsistency unit per such read,
//     refused once the ε budget is exhausted.
package ritu

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/trace"
)

// Mode selects single- or multi-version storage.
type Mode int

const (
	// SingleVersion overwrites in place under the Thomas write rule.
	SingleVersion Mode = iota
	// MultiVersion keeps immutable timestamped versions with VTNC
	// visibility.
	MultiVersion
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == MultiVersion {
		return "multi-version"
	}
	return "single-version"
}

// Errors returned by Update.
var (
	// ErrNotUpdate reports an ET with no update operation.
	ErrNotUpdate = errors.New("ritu: ET contains no update operation")
	// ErrNotReadIndependent reports an operation whose effect depends on
	// the prior value, which RITU cannot propagate asynchronously.
	ErrNotReadIndependent = errors.New("ritu: operation is not a read-independent write")
)

// vtncCeiling is the site component of derived VTNC values; it exceeds
// every real site ID so a derived VTNC dominates all timestamps with a
// strictly smaller time component.
const vtncCeiling clock.SiteID = 1 << 30

// Config parameterizes a RITU engine.
type Config struct {
	// Core configures the cluster chassis.
	Core core.Config
	// Mode selects single- or multi-version behaviour.
	Mode Mode
}

// Engine is the RITU replica-control engine.
type Engine struct {
	cfg Config
	c   *core.Cluster

	mu          sync.Mutex
	outstanding map[et.ID]*flight
	vtnc        clock.Timestamp
	maxApplied  clock.Timestamp
}

type flight struct {
	ts      clock.Timestamp
	pending map[clock.SiteID]bool
}

// New builds and starts a RITU engine.
func New(cfg Config) (*Engine, error) {
	cfg.Core.LockTable = lock.COMMU
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, c: c, outstanding: make(map[et.ID]*flight)}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(m et.MSet) error { return e.apply(s, m) }
	})
	return e, nil
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "RITU" }

// Traits implements core.Engine; the values are the RITU column of the
// paper's Table 1.
func (e *Engine) Traits() core.Traits {
	return core.Traits{
		Name:             "RITU",
		Restriction:      "operation semantics",
		Applicability:    "Forwards",
		AsyncPropagation: "Query & Update",
		SortingTime:      "at read",
	}
}

// Cluster implements core.Engine.
func (e *Engine) Cluster() *core.Cluster { return e.c }

// Mode returns the engine's storage mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Update executes an update ET of blind writes at origin.  All write
// operations in the ET share one version timestamp, chosen above the
// current VTNC so already-stable reads are never invalidated.
func (e *Engine) Update(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	ids, err := e.UpdateBurst(origin, [][]op.Op{ops})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// UpdateBurst executes a burst of blind-write update ETs at origin as
// one propagation batch.  Every entry gets its own version timestamp
// above the VTNC (later entries stamp later), and all MSets leave as a
// single batch per destination — one journal fsync per link on durable
// clusters.  Read independence makes the batching invisible to queries:
// each version is judged against the VTNC exactly as if sent alone.
func (e *Engine) UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	if len(bursts) == 0 {
		return nil, nil
	}
	s := e.c.Site(origin)
	if s == nil {
		return nil, fmt.Errorf("ritu: unknown site %v", origin)
	}
	allUpdates := make([][]op.Op, len(bursts))
	for i, ops := range bursts {
		var updates []op.Op
		for _, o := range ops {
			if !o.Kind.IsUpdate() {
				continue
			}
			if o.Kind != op.Write {
				return nil, fmt.Errorf("%w: %v", ErrNotReadIndependent, o)
			}
			updates = append(updates, o)
		}
		if len(updates) == 0 {
			return nil, ErrNotUpdate
		}
		allUpdates[i] = updates
	}
	ids := make([]et.ID, len(bursts))
	msets := make([]et.MSet, len(bursts))
	for i, updates := range allUpdates {
		id := e.c.NextET(origin)
		ids[i] = id
		ts := e.trackAboveVTNC(id, s)
		for j := range updates {
			updates[j].TS = ts
		}
		msets[i] = et.MSet{ET: id, Origin: origin, TS: ts, Ops: updates}
		e.c.RecordUpdate(id, bursts[i])
	}
	if err := e.c.BroadcastAll(msets); err != nil {
		return nil, err
	}
	return ids, nil
}

// Query executes a query ET at the given site.
//
// In MultiVersion mode each read prefers the newest version; if that
// version lies beyond the VTNC it costs one inconsistency unit, and once
// ε is exhausted the read falls back to the newest visible (≤ VTNC)
// version, which is serializable.  In SingleVersion mode reads simply
// return the current value — the paper's "no divergence since by
// definition all the reads request the latest version".
func (e *Engine) Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	if e.cfg.Mode == SingleVersion {
		// RITU reads "simply return the current value": an eventual read.
		return core.ReadAtSite(e.c, site, objects, core.ReadOptions{Epsilon: eps})
	}
	s := e.c.Site(site)
	if s == nil {
		return et.QueryResult{}, fmt.Errorf("ritu: unknown site %v", site)
	}
	qid := e.c.NextET(site)
	counter := divergence.NewCounter(eps)
	s.MV.SetVTNC(e.VTNC())
	// Charge in sorted order so the accounting is deterministic across runs.
	sorted := append([]string(nil), objects...)
	sort.Strings(sorted)
	vals := make(map[string]op.Value, len(sorted))
	sm := e.c.SiteMetrics(site)
	for _, obj := range sorted {
		latest, beyond, ok := s.MV.ReadLatest(obj)
		switch {
		case !ok, !beyond: // a missing object reads as the zero Value
			vals[obj] = latest.Val
		case counter.TryAdd(1):
			// "Each time a query ET reads such a version its
			// inconsistency counter is increased by one."
			vals[obj] = latest.Val
			sm.QueryCharged.Inc()
			e.c.Trace.Recordf(trace.QueryCharged, int(site), qid.String(), "obj=%s cost=1", obj)
		default:
			// ε exhausted: "not allowing reading versions that are
			// newer than VTNC".
			vis, _ := s.MV.ReadVisible(obj)
			vals[obj] = vis.Val
			sm.QueryFallback.Inc()
			e.c.Trace.Recordf(trace.QueryFallback, int(site), qid.String(), "obj=%s", obj)
		}
		e.c.RecordQueryRead(qid, obj)
	}
	sm.EpsilonBudget.Set(int64(counter.Remaining()))
	return et.QueryResult{
		Values:        vals,
		Inconsistency: counter.Count(),
		Epsilon:       eps,
		Site:          site,
	}, nil
}

// AppliedEverywhere reports whether the update ET has been applied at
// every site.  Unknown IDs report true (they are not outstanding).
func (e *Engine) AppliedEverywhere(id et.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, out := e.outstanding[id]
	return !out
}

// QueryAt executes a historical query in MultiVersion mode: every object
// is read as of the given timestamp, yielding a serializable snapshot
// ("queries that are serialized in the 'past' do not block, and
// immutable versions can be replicated freely", §5.2).  Objects with no
// version at or below ts read as the zero Value.  Historical reads cost
// no inconsistency.
func (e *Engine) QueryAt(site clock.SiteID, objects []string, ts clock.Timestamp) (et.QueryResult, error) {
	if e.cfg.Mode != MultiVersion {
		return et.QueryResult{}, fmt.Errorf("ritu: QueryAt requires multi-version mode")
	}
	if ts.IsZero() {
		ts.Site = 1 // a zero At means "unset"; no version is stamped at time 0 either way
	}
	return core.ReadAtSite(e.c, site, objects, core.ReadOptions{At: ts})
}

// AppliedAt reports whether the update ET has been applied at the given
// site.  Unknown IDs report true.
func (e *Engine) AppliedAt(id et.ID, site clock.SiteID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.outstanding[id]
	return !ok || !f.pending[site]
}

// VTNC returns the current visible transaction number counter: the
// largest timestamp below which no new version can appear.
func (e *Engine) VTNC() clock.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vtnc
}

// GC prunes versions no longer readable under the current VTNC at every
// site and returns the number collected.
func (e *Engine) GC() int {
	vtnc := e.VTNC()
	n := 0
	for _, id := range e.c.SiteIDs() {
		n += e.c.Site(id).MV.GC(vtnc)
	}
	return n
}

// CrashSite simulates a site failure on a durable cluster.
func (e *Engine) CrashSite(id clock.SiteID) error { return e.c.CrashSite(id) }

// RestartSite recovers a crashed site.  Single-version state rebuilds
// through the chassis' timestamped-write replay; multi-version state is
// reinstalled version by version from the WAL records.
func (e *Engine) RestartSite(id clock.SiteID) error {
	var recover core.RecoverFunc
	if e.cfg.Mode == MultiVersion {
		recover = func(s *replica.Site, records []et.MSet) error {
			for _, m := range records {
				for _, o := range m.Ops {
					if o.Kind == op.Write {
						s.MV.Install(o.Object, o.TS, op.NumValue(o.Arg))
					}
				}
			}
			return nil
		}
	}
	return e.c.RestartSite(id, recover)
}

// Close implements core.Engine.
func (e *Engine) Close() error { return e.c.Close() }

// trackAboveVTNC atomically chooses a version timestamp above the current
// VTNC and registers the ET as outstanding, so the VTNC cannot advance
// past the new timestamp before it is accounted for.
func (e *Engine) trackAboveVTNC(id et.ID, s *replica.Site) clock.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := s.Clock.Observe(e.vtnc)
	f := &flight{ts: ts, pending: make(map[clock.SiteID]bool)}
	for _, sid := range e.c.SiteIDs() {
		f.pending[sid] = true
	}
	e.outstanding[id] = f
	return ts
}

func (e *Engine) noteApplied(id et.ID, site clock.SiteID, ts clock.Timestamp) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.maxApplied.Less(ts) {
		e.maxApplied = ts
	}
	f := e.outstanding[id]
	if f != nil {
		delete(f.pending, site)
		if len(f.pending) == 0 {
			delete(e.outstanding, id)
		}
	}
	// Advance the VTNC: everything below the oldest outstanding version
	// is stable; with nothing outstanding, everything applied is.
	var candidate clock.Timestamp
	if len(e.outstanding) == 0 {
		candidate = e.maxApplied
	} else {
		min := clock.Timestamp{}
		for _, fl := range e.outstanding {
			if min.IsZero() || fl.ts.Less(min) {
				min = fl.ts
			}
		}
		if min.Time == 0 {
			return
		}
		candidate = clock.Timestamp{Time: min.Time - 1, Site: vtncCeiling}
	}
	if e.vtnc.Less(candidate) {
		e.vtnc = candidate
	}
}

func (e *Engine) apply(s *replica.Site, m et.MSet) error {
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
			return fmt.Errorf("ritu: apply lock on %q: %w", obj, err)
		}
	}
	for _, o := range m.Ops {
		if e.cfg.Mode == SingleVersion {
			if s.Store.ApplyTimestamped(o) {
				// Dual-write applied (non-stale) values into the
				// multi-version store so snapshot reads can serve any
				// timestamp from single-version RITU sites too.
				s.MV.InstallMonotone(o.Object, m.TS, s.Store.Get(o.Object))
			}
		} else {
			s.MV.Install(o.Object, o.TS, op.NumValue(o.Arg))
		}
	}
	s.Locks.ReleaseAll(tx)
	e.noteApplied(m.ET, s.ID, m.TS)
	return nil
}
