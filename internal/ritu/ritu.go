// Package ritu implements the RITU (read-independent timestamped
// updates) replica-control method of §3.3.
//
// RITU updates are blind timestamped writes: their effect does not depend
// on the value they overwrite, so MSets "can be executed asynchronously"
// in any order.  Two modes follow the paper:
//
//   - SingleVersion: "An RITU update trying to overwrite a newer version
//     is ignored" — the Thomas write rule against each chain's head.
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
	*core.Flights // applied tracking: AppliedAt, AppliedEverywhere, Outstanding

	cfg    Config
	c      *core.Cluster
	method core.Method

	// mu guards the VTNC state.  The tracker's lock is taken first: both
	// stamp and settle run under it.
	mu         sync.Mutex
	vtnc       clock.Timestamp
	maxApplied clock.Timestamp
}

// New builds and starts a RITU engine.
func New(cfg Config) (*Engine, error) {
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, c: c}
	e.Flights = core.NewFlights(c, e.settle)
	// Table 1's RITU row: no order; only blind writes are admitted, each
	// ET stamped above the VTNC.
	e.method = core.Method{
		NotUpdate: ErrNotUpdate,
		AdmitOp: func(o op.Op) error {
			if o.Kind != op.Write {
				return fmt.Errorf("%w: %v", ErrNotReadIndependent, o)
			}
			return nil
		},
		Stamp:   e.stamp,
		Flights: e.Flights,
	}
	apply := applyThomas
	if cfg.Mode == MultiVersion {
		apply = installVersion
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(m et.MSet) error {
			e.method.Apply(s, m, apply)
			return nil
		}
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
	return e.c.Submit(origin, bursts, &e.method)
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
	s.Store.SetVTNC(e.VTNC())
	// Charge in sorted order so the accounting is deterministic across runs.
	sorted := append([]string(nil), objects...)
	sort.Strings(sorted)
	vals := make(map[string]op.Value, len(sorted))
	sm := e.c.SiteMetrics(site)
	for _, obj := range sorted {
		latest, beyond, ok := s.Store.ReadLatest(obj)
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
			vis, _ := s.Store.ReadVisible(obj)
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
		n += e.c.Site(id).Store.GC(vtnc)
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
						s.Store.Install(o.Object, o.TS, op.NumValue(o.Arg))
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

// stamp chooses an ET's version timestamp above the current VTNC and
// marks every write with it.  It runs under the tracker's lock, which
// registers the ET before the VTNC can advance past the new timestamp.
func (e *Engine) stamp(s *replica.Site, updates []op.Op) clock.Timestamp {
	ts := s.Clock.Observe(e.VTNC())
	for j := range updates {
		updates[j].TS = ts
	}
	return ts
}

// settle advances the VTNC after an apply: everything below the oldest
// outstanding version is stable; with nothing outstanding, everything
// applied is.
func (e *Engine) settle(ts, oldest clock.Timestamp) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.maxApplied.Less(ts) {
		e.maxApplied = ts
	}
	candidate := e.maxApplied
	if !oldest.IsZero() {
		if oldest.Time == 0 {
			return
		}
		candidate = clock.Timestamp{Time: oldest.Time - 1, Site: vtncCeiling}
	}
	if e.vtnc.Less(candidate) {
		e.vtnc = candidate
	}
}

// applyThomas installs a blind write at its timestamp under the Thomas
// write rule: a write older than the object's head is ignored.
func applyThomas(s *replica.Site, o op.Op) {
	s.Store.InstallNewer(o.Object, o.TS, op.NumValue(o.Arg))
}

// installVersion installs a blind write as an immutable version at its
// own timestamp.
func installVersion(s *replica.Site, o op.Op) {
	s.Store.Install(o.Object, o.TS, op.NumValue(o.Arg))
}
