// Package compe implements COMPE, the compensation-based backward
// replica-control method of §4.
//
// Forward methods assume update ETs have committed before propagation;
// COMPE instead lets MSets run optimistically before the global update
// commits: "for performance reasons, the system may start running MSets
// before the global update is committed.  To allow an MSet to commit
// asynchronously, the system must be able to compensate for its results
// if the global update aborts."
//
// Each site remembers its executed MSets (with the values they
// overwrote) "until there is no risk of rollback".  On abort, a
// compensation MSet is broadcast and each site undoes the target
// locally:
//
//   - if every logged operation commutes with the target's, "the system
//     can simply apply the compensation without any overhead";
//   - otherwise the site rolls the log back in reverse order to the
//     target, compensates it, and replays the remainder — the paper's
//     full-log rollback, illustrated by the Inc(x,10)·Mul(x,2) example.
//
// Divergence bounding follows §4.2's saga discussion: the lock-counters
// of a tentative ET are held until its commit or abort record arrives,
// so queries price reads by the number of potential compensations they
// may be exposed to.
package compe

import (
	"errors"
	"fmt"
	"sync"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/trace"
)

// Mode selects the operation discipline, which determines rollback cost.
type Mode int

const (
	// Commutative restricts updates to commutative, value-independently
	// compensatable operations; aborts apply a single compensation MSet.
	Commutative Mode = iota
	// General admits any compensatable update operations; aborts roll
	// back the log suffix, compensate, and replay.
	General
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == General {
		return "general"
	}
	return "commutative"
}

// Errors returned by the engine.
var (
	// ErrNotUpdate reports an ET with no update operation.
	ErrNotUpdate = errors.New("compe: ET contains no update operation")
	// ErrNotCompensatable reports an operation that cannot be undone
	// (Read, or Multiply by zero), or — in Commutative mode — one
	// outside the commutative families.
	ErrNotCompensatable = errors.New("compe: operation not compensatable under the mode")
	// ErrUnknownET reports a Commit/Abort of an ET the engine never saw.
	ErrUnknownET = errors.New("compe: unknown ET")
	// ErrAlreadyResolved reports a second Commit/Abort of the same ET.
	ErrAlreadyResolved = errors.New("compe: ET already committed or aborted")
)

type status int

const (
	tentative status = iota
	committed
	aborted
)

// Stats counts compensation activity for the E8 experiment.
type Stats struct {
	Aborts   uint64 // aborted update ETs
	Commits  uint64 // committed update ETs (explicit or auto)
	OpsUndon uint64 // operations undone across all sites during rollbacks
	OpsRedon uint64 // operations re-applied across all sites during replays
}

// Config parameterizes a COMPE engine.
type Config struct {
	// Core configures the cluster chassis.
	Core core.Config
	// Mode selects the operation discipline.
	Mode Mode
	// AutoCommit makes Update commit immediately after broadcasting,
	// which lets the engine serve the plain core.Engine interface.
	// Explicit sagas use Begin/Commit/Abort regardless of this setting.
	AutoCommit bool
}

type logEntry struct {
	m     et.MSet
	prevs []op.Value // value of each op's object immediately before it ran
}

type siteLog struct {
	mu      sync.Mutex
	entries []logEntry
	risk    map[string]int // object -> tentative ETs applied here, unresolved
	nextSeq uint64         // next forward sequence number (General mode)
	applied map[et.ID]bool // forward ETs applied here whose resolution record is still pending
}

// Engine is the COMPE replica-control engine.
type Engine struct {
	cfg    Config
	c      *core.Cluster
	method core.Method

	mu     sync.Mutex
	status map[et.ID]status
	objs   map[et.ID][]string // objects each forward ET updates, for commit bookkeeping
	stats  Stats

	logs map[clock.SiteID]*siteLog
}

// New builds and starts a COMPE engine.
func New(cfg Config) (*Engine, error) {
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		c:      c,
		status: make(map[et.ID]status),
		objs:   make(map[et.ID][]string),
		logs:   make(map[clock.SiteID]*siteLog),
	}
	for _, id := range c.SiteIDs() {
		e.logs[id] = &siteLog{risk: make(map[string]int), nextSeq: 1, applied: make(map[et.ID]bool)}
	}
	// Table 1's COMPENSATION row: every update op must be compensatable.
	// Commutative mode pins each object to one commutative family; general
	// mode's forward MSets do not commute, so they take one global order
	// — §4.2 pairs full-log rollback with ORDUP-style processing ("This
	// is the case with ORDUP operations").
	e.method = core.Method{NotUpdate: ErrNotUpdate, AdmitOp: e.admissible}
	if cfg.Mode == General {
		e.method.Order = core.Sequenced
	} else {
		e.method.Family = func(k op.Kind) op.Kind {
			if k == op.Decrement {
				return op.Increment // one additive family
			}
			return k
		}
		e.method.FamilyErr = ErrNotCompensatable
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		sl := e.logs[s.ID]
		return func(m et.MSet) error { return e.apply(s, sl, m) }
	})
	return e, nil
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "COMPE" }

// Traits implements core.Engine; the values are the COMPENSATION column
// of the paper's Table 1.
func (e *Engine) Traits() core.Traits {
	return core.Traits{
		Name:             "COMPE",
		Restriction:      `"operation value"`,
		Applicability:    "Backwards",
		AsyncPropagation: "Query & Update",
		SortingTime:      "N/A",
	}
}

// Cluster implements core.Engine.
func (e *Engine) Cluster() *core.Cluster { return e.c }

// Mode returns the engine's operation discipline.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Stats returns a snapshot of compensation activity.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Update implements core.Engine: a tentative update followed (when
// AutoCommit is set) by an immediate commit.
func (e *Engine) Update(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	ids, err := e.UpdateBurst(origin, [][]op.Op{ops})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// UpdateBurst executes a burst of update ETs at origin as one
// propagation batch: all tentative MSets leave as a single batch per
// destination, and under AutoCommit all their commit records follow as a
// second batch — two fsyncs per link for the whole burst instead of two
// per update.
func (e *Engine) UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	ids, err := e.BeginBurst(origin, bursts)
	if err != nil || !e.cfg.AutoCommit {
		return ids, err
	}
	return e.commitAll(ids)
}

// commitAll commits a burst of tentative ETs with one batch of commit
// records.
func (e *Engine) commitAll(ids []et.ID) ([]et.ID, error) {
	recs := make([]et.MSet, len(ids))
	for i, id := range ids {
		var err error
		if recs[i], err = e.resolve(id, committed); err != nil {
			return nil, err
		}
	}
	if err := e.c.BroadcastAll(recs); err != nil {
		return nil, err
	}
	return ids, nil
}

// BeginBurst executes a burst of tentative update ETs at origin as one
// propagation batch.  Every entry is admitted and registered as an
// independent saga step; in General mode the burst reserves its forward
// sequence range in a single order-server round trip.
func (e *Engine) BeginBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	ids, err := e.c.Submit(origin, bursts, &e.method)
	e.begun(ids, bursts)
	return ids, err
}

// Begin executes a tentative update ET at origin: its MSet propagates and
// applies optimistically at every site, while its lock-counters stay held
// until Commit or Abort resolves it.
func (e *Engine) Begin(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	ids, err := e.BeginBurst(origin, [][]op.Op{ops})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// begun registers submitted ETs as tentative saga steps.
func (e *Engine) begun(ids []et.ID, bursts [][]op.Op) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, id := range ids {
		e.status[id] = tentative
		e.objs[id] = op.Objects(bursts[i], false)
	}
}

// admissible validates one update operation against the mode.
func (e *Engine) admissible(o op.Op) error {
	if !o.Compensatable() {
		return fmt.Errorf("%w: %v", ErrNotCompensatable, o)
	}
	if e.cfg.Mode == Commutative {
		switch o.Kind {
		case op.Increment, op.Decrement, op.UnorderedAppend:
		default:
			return fmt.Errorf("%w: %v requires General mode", ErrNotCompensatable, o)
		}
	}
	return nil
}

// Commit resolves a tentative ET as globally committed and broadcasts
// its commit record, releasing lock-counters (and enabling log
// truncation) as the record reaches each site.
func (e *Engine) Commit(id et.ID) error { return e.finish(id, committed) }

// Abort resolves a tentative ET as globally aborted and broadcasts its
// compensation MSet; every site undoes the ET locally per §4.2.
func (e *Engine) Abort(id et.ID) error { return e.finish(id, aborted) }

// finish resolves a tentative ET and broadcasts the record carrying the
// outcome.
func (e *Engine) finish(id et.ID, to status) error {
	rec, err := e.resolve(id, to)
	if err != nil {
		return err
	}
	return e.c.Broadcast(rec)
}

// resolve marks a tentative ET committed or aborted and returns the
// record that carries the outcome to every site: a commit record, or the
// compensation MSet.
func (e *Engine) resolve(id et.ID, to status) (et.MSet, error) {
	e.mu.Lock()
	st, ok := e.status[id]
	if ok && st == tentative {
		e.status[id] = to
		if to == committed {
			e.stats.Commits++
		} else {
			e.stats.Aborts++
		}
	}
	e.mu.Unlock()
	switch {
	case !ok:
		return et.MSet{}, ErrUnknownET
	case st != tentative:
		return et.MSet{}, fmt.Errorf("%w: %v", ErrAlreadyResolved, id)
	}
	origin := id.Origin()
	return et.MSet{ET: e.c.NextET(origin), Origin: origin, Target: id,
		Compensation: to == aborted, TS: e.c.Site(origin).Clock.Tick()}, nil
}

// Query executes a query ET under an ε limit.  Reads are priced by their
// overlap plus the number of unresolved tentative ETs that touched the
// object here — the conservative "number of potential compensations"
// bound of §4.2.
func (e *Engine) Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	s := e.c.Site(site) // nil for an unknown site, which ReadAtSite refuses before pricing
	return core.ReadAtSite(e.c, site, objects, core.ReadOptions{Level: consistency.Bounded, Epsilon: eps, At: clock.Latest,
		Price: func(obj string, baseline uint64) int { return core.OverlapCost(s, obj, baseline) + e.RiskAt(site, obj) }})
}

// RiskAt reports the number of unresolved tentative ETs applied at the
// site that touched the object (its retained lock-counter).
func (e *Engine) RiskAt(site clock.SiteID, object string) int {
	sl := e.logs[site]
	if sl == nil {
		return 0
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.risk[object]
}

// LogLen reports the number of remembered MSets at the site (the
// rollback exposure).
func (e *Engine) LogLen(site clock.SiteID) int {
	sl := e.logs[site]
	if sl == nil {
		return 0
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return len(sl.entries)
}

// Close implements core.Engine.
func (e *Engine) Close() error { return e.c.Close() }

func (e *Engine) apply(s *replica.Site, sl *siteLog, m et.MSet) error {
	switch {
	case m.Compensation:
		return e.applyCompensation(s, sl, m)
	case m.Target != 0:
		return e.applyCommitRecord(sl, m)
	default:
		return e.applyForward(s, sl, m)
	}
}

// applyForward optimistically applies a tentative MSet through core's
// apply kernel and remembers it.  In General mode forward MSets apply in
// global sequence order.  sl.mu is held across the whole apply, so each
// op's prior value is captured atomically with it and the log order is
// the apply order.
func (e *Engine) applyForward(s *replica.Site, sl *siteLog, m et.MSet) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if e.cfg.Mode == General {
		switch {
		case m.Seq < sl.nextSeq:
			return nil // duplicate
		case m.Seq > sl.nextSeq:
			return replica.ErrHold
		}
	}
	prevs := make([]op.Value, 0, len(m.Ops))
	e.method.Apply(s, m, func(s *replica.Site, o op.Op) (op.Value, bool) {
		prevs = append(prevs, s.Store.Get(o.Object))
		return s.Store.Apply(o), true
	})
	sl.entries = append(sl.entries, logEntry{m: m, prevs: prevs})
	sl.applied[m.ET] = true
	for _, obj := range op.Objects(m.Ops, false) {
		sl.risk[obj]++
	}
	if e.cfg.Mode == General {
		sl.nextSeq++
	}
	return nil
}

// applyCommitRecord marks the target committed at this site: its
// lock-counters drop and the committed log prefix becomes truncatable.
func (e *Engine) applyCommitRecord(sl *siteLog, m et.MSet) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.applied[m.Target] {
		// Forward MSet not yet applied here.  Per-origin FIFO makes
		// this transient: hold and retry.
		return replica.ErrHold
	}
	delete(sl.applied, m.Target)
	// idx < 0 means an earlier truncation already dropped the entry (its
	// committed status became visible before this record arrived).  Its
	// risk counters are still held — truncation never touches them — so
	// release them using the engine's record of the ET's objects.
	if idx := indexOf(sl.entries, m.Target); idx >= 0 {
		releaseRisk(sl, op.Objects(sl.entries[idx].m.Ops, false))
	} else {
		e.mu.Lock()
		objs := e.objs[m.Target]
		e.mu.Unlock()
		releaseRisk(sl, objs)
	}
	e.truncateLocked(sl)
	return nil
}

// releaseRisk drops one unit of the site's risk on each object.  Caller
// holds sl.mu.
func releaseRisk(sl *siteLog, objs []string) {
	for _, obj := range objs {
		if sl.risk[obj] > 0 {
			sl.risk[obj]--
		}
	}
}

// applyCompensation undoes the target MSet at this site (§4.2).
func (e *Engine) applyCompensation(s *replica.Site, sl *siteLog, m et.MSet) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.applied[m.Target] {
		return replica.ErrHold
	}
	idx := indexOf(sl.entries, m.Target)
	if idx < 0 {
		// Unreachable: aborted entries are never truncated before their
		// compensation applies.  Treat defensively as a no-op.
		delete(sl.applied, m.Target)
		return nil
	}
	delete(sl.applied, m.Target)
	target := sl.entries[idx]

	if e.commutesWithSuffix(sl.entries[idx+1:], target.m.Ops) {
		// "If all MSets on the log are commutative, then COMPE simply
		// runs the compensation MSet and continues."
		e.undoEntry(s, target)
		e.countUndo(len(target.m.Ops), 0)
	} else {
		// Full rollback: undo the suffix in reverse, compensate the
		// target, replay the suffix re-recording overwritten values.
		suffix := sl.entries[idx+1:]
		for i := len(suffix) - 1; i >= 0; i-- {
			e.undoEntry(s, suffix[i])
		}
		e.undoEntry(s, target)
		redone := 0
		for i := range suffix {
			for j, o := range suffix[i].m.Ops {
				suffix[i].prevs[j] = s.Store.Get(o.Object)
				s.Store.Apply(o)
				redone++
			}
		}
		undone := len(target.m.Ops)
		for _, en := range suffix {
			undone += len(en.m.Ops)
		}
		e.countUndo(undone, redone)
	}
	releaseRisk(sl, op.Objects(target.m.Ops, false))
	sl.entries = append(sl.entries[:idx], sl.entries[idx+1:]...)
	// Refresh the multi-version chains with the post-compensation values
	// at the compensation MSet's timestamp (§4.2's "adding another
	// version bearing the previous value"), so snapshot reads after the
	// rollback converge with the single-version store.
	touched := make(map[string]bool)
	for _, o := range target.m.Ops {
		touched[o.Object] = true
	}
	for _, en := range sl.entries[idx:] {
		for _, o := range en.m.Ops {
			touched[o.Object] = true
		}
	}
	for obj := range touched {
		s.MV.InstallMonotone(obj, m.TS, s.Store.Get(obj))
	}
	e.truncateLocked(sl)
	e.c.SiteMetrics(s.ID).Compensations.Inc()
	e.c.Trace.RecordMSetf(trace.Compensate, int(s.ID), m.Target.String(), m.MsgID(),
		"log=%d", len(sl.entries))
	return nil
}

// undoEntry applies the compensation of each op in reverse order.
func (e *Engine) undoEntry(s *replica.Site, en logEntry) {
	for i := len(en.m.Ops) - 1; i >= 0; i-- {
		comp, ok := en.m.Ops[i].Compensate(en.prevs[i])
		if !ok {
			continue // admissibility check makes this unreachable
		}
		s.Store.Apply(comp)
	}
}

func (e *Engine) countUndo(undone, redone int) {
	e.mu.Lock()
	e.stats.OpsUndon += uint64(undone)
	e.stats.OpsRedon += uint64(redone)
	e.mu.Unlock()
}

// commutesWithSuffix reports whether every target op commutes with every
// op logged after it, which licenses direct compensation.
func (e *Engine) commutesWithSuffix(suffix []logEntry, targetOps []op.Op) bool {
	for _, en := range suffix {
		for _, a := range en.m.Ops {
			for _, b := range targetOps {
				if !a.Commutes(b) {
					return false
				}
			}
		}
	}
	return true
}

// truncateLocked drops the resolved prefix of the log: entries up to the
// first still-tentative entry can never be reached by a rollback.  "The
// COMPE replica control method must remember the executed MSets until
// there is no risk of rollback."
func (e *Engine) truncateLocked(sl *siteLog) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cut := 0
	for _, en := range sl.entries {
		if e.status[en.m.ET] != committed {
			break
		}
		cut++
	}
	if cut > 0 {
		sl.entries = append([]logEntry(nil), sl.entries[cut:]...)
	}
}

func indexOf(entries []logEntry, id et.ID) int {
	for i, en := range entries {
		if en.m.ET == id {
			return i
		}
	}
	return -1
}
