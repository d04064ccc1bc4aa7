// Package commu implements the COMMU (commutative operations)
// replica-control method of §3.2.
//
// "The idea behind the COMMU replica control method is the use of
// operation semantics.  If the final result is equivalent to some serial
// execution, then the actual execution order does not matter. ...
// Commutative update MSets can be processed asynchronously in any order."
//
// Update ETs are restricted to commutative operations; the engine
// enforces this by assigning each object an operation family on first
// use (additive, multiplicative, or unordered-append) and rejecting
// updates from a different family.  MSets need no ordering: each site
// applies them as they arrive.
//
// Divergence bounding uses the paper's lock-counters: each object carries
// a counter of in-flight update ETs; query ETs price reads by that
// counter (plus their overlap), and — in the update-throttling variant —
// "if the lock-counter of an object exceeds a specified limit, then the
// update ET trying to write must either wait or abort".
package commu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/replica"
)

// Errors returned by Update.
var (
	// ErrNotUpdate reports an ET with no update operation.
	ErrNotUpdate = errors.New("commu: ET contains no update operation")
	// ErrNotCommutative reports an operation outside the commutative
	// families COMMU admits, or one that conflicts with the object's
	// established family.
	ErrNotCommutative = errors.New("commu: operation not commutative")
	// ErrThrottled reports that an update waited longer than the
	// throttle timeout for an object's lock-counter to drop below the
	// limit.
	ErrThrottled = errors.New("commu: lock-counter limit wait timed out")
)

// family is the commutativity class an object is locked into.
type family int

const (
	famNone family = iota
	famAdditive
	famMultiplicative
	famUAppend
)

func familyOf(k op.Kind) family {
	switch k {
	case op.Increment, op.Decrement:
		return famAdditive
	case op.Multiply:
		return famMultiplicative
	case op.UnorderedAppend, op.RemoveOne:
		return famUAppend
	default:
		return famNone
	}
}

// Config parameterizes a COMMU engine.
type Config struct {
	// Core configures the cluster chassis.  LockTable is forced to
	// lock.COMMU.
	Core core.Config
	// CounterLimit, when positive, throttles updates: an update ET waits
	// until every touched object's in-flight update count (its
	// lock-counter, summed across sites) is below the limit.  Zero or
	// negative disables throttling ("we can allow update ETs to run
	// freely", §3.2).
	CounterLimit int
	// ThrottleTimeout bounds the throttle wait (default 5s).
	ThrottleTimeout time.Duration
}

// flight tracks one in-flight update ET: the objects it touches, their
// absolute numeric deltas (for value-bounded queries), and the sites
// that have not yet applied it.
type flight struct {
	objs    []string
	drift   map[string]int64
	pending map[clock.SiteID]bool
}

// Engine is the COMMU replica-control engine.
type Engine struct {
	cfg Config
	c   *core.Cluster

	mu       sync.Mutex
	families map[string]family
	inflight map[et.ID]*flight
	perObj   map[string]map[et.ID]bool // object -> in-flight ETs touching it
}

// New builds and starts a COMMU engine.
func New(cfg Config) (*Engine, error) {
	cfg.Core.LockTable = lock.COMMU
	if cfg.ThrottleTimeout <= 0 {
		cfg.ThrottleTimeout = 5 * time.Second
	}
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		c:        c,
		families: make(map[string]family),
		inflight: make(map[et.ID]*flight),
		perObj:   make(map[string]map[et.ID]bool),
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(m et.MSet) error { return e.apply(s, m) }
	})
	return e, nil
}

// Name implements core.Engine.
func (e *Engine) Name() string { return "COMMU" }

// Traits implements core.Engine; the values are the COMMU column of the
// paper's Table 1.
func (e *Engine) Traits() core.Traits {
	return core.Traits{
		Name:             "COMMU",
		Restriction:      "operation semantics",
		Applicability:    "Forwards",
		AsyncPropagation: "Query & Update",
		SortingTime:      "doesn't matter",
	}
}

// Cluster implements core.Engine.
func (e *Engine) Cluster() *core.Cluster { return e.c }

// Update executes an update ET at origin.  Every update operation must
// belong to a commutative family consistent with its object's history;
// otherwise ErrNotCommutative is returned and nothing is applied.
func (e *Engine) Update(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	ids, err := e.UpdateBurst(origin, [][]op.Op{ops})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// UpdateBurst executes a burst of update ETs at origin as one propagation
// batch: every entry is validated and lock-counted as an independent ET,
// then all MSets leave as a single batch per destination (one journal
// fsync per link on durable clusters).  Commutativity makes the batch
// boundary invisible to correctness — order within the burst doesn't
// matter — so this is pure propagation amortisation.
func (e *Engine) UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	if len(bursts) == 0 {
		return nil, nil
	}
	s := e.c.Site(origin)
	if s == nil {
		return nil, fmt.Errorf("commu: unknown site %v", origin)
	}
	allUpdates := make([][]op.Op, len(bursts))
	for i, ops := range bursts {
		updates := make([]op.Op, 0, len(ops))
		for _, o := range ops {
			if o.Kind.IsUpdate() {
				updates = append(updates, o)
			}
		}
		if len(updates) == 0 {
			return nil, ErrNotUpdate
		}
		if err := e.reserveFamilies(updates); err != nil {
			return nil, err
		}
		allUpdates[i] = updates
	}
	if e.cfg.CounterLimit > 0 {
		for _, updates := range allUpdates {
			if err := e.throttle(updates); err != nil {
				return nil, err
			}
		}
	}
	ids := make([]et.ID, len(bursts))
	msets := make([]et.MSet, len(bursts))
	for i, updates := range allUpdates {
		id := e.c.NextET(origin)
		ids[i] = id
		e.trackFlight(id, updates)
		msets[i] = et.MSet{ET: id, Origin: origin, TS: s.Clock.Tick(), Ops: updates}
		e.c.RecordUpdate(id, bursts[i])
	}
	if err := e.c.BroadcastAll(msets); err != nil {
		return nil, err
	}
	return ids, nil
}

// trackFlight registers the ET's lock-counters: "When updating an object,
// the U^ET increments the object lock-counter by one" (§3.2).  The
// counters drop once every site has applied the MSet.
func (e *Engine) trackFlight(id et.ID, updates []op.Op) {
	f := &flight{
		objs:    distinctObjects(updates),
		drift:   make(map[string]int64),
		pending: make(map[clock.SiteID]bool),
	}
	for _, o := range updates {
		switch o.Kind {
		case op.Increment:
			f.drift[o.Object] += abs64(o.Arg)
		case op.Decrement:
			f.drift[o.Object] += abs64(o.Arg)
		case op.Multiply:
			// Multiplicative drift is value-dependent; treat it as
			// unbounded by charging a large sentinel so value-bounded
			// queries always take the conservative path.
			f.drift[o.Object] += 1 << 40
		default:
			f.drift[o.Object]++
		}
	}
	for _, sid := range e.c.SiteIDs() {
		f.pending[sid] = true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inflight[id] = f
	for _, obj := range f.objs {
		if e.perObj[obj] == nil {
			e.perObj[obj] = make(map[et.ID]bool)
		}
		e.perObj[obj][id] = true
	}
}

// noteApplied marks the ET applied at one site; when the last site
// applies it, its lock-counters are decremented ("At the end of U^ET
// execution all the lock-counters are decremented").
func (e *Engine) noteApplied(id et.ID, site clock.SiteID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.inflight[id]
	if f == nil {
		return
	}
	delete(f.pending, site)
	if len(f.pending) > 0 {
		return
	}
	delete(e.inflight, id)
	for _, obj := range f.objs {
		delete(e.perObj[obj], id)
		if len(e.perObj[obj]) == 0 {
			delete(e.perObj, obj)
		}
	}
}

// invisibleAt counts in-flight update ETs touching the object that the
// given site has not yet applied — committed updates a local read would
// miss.
func (e *Engine) invisibleAt(site clock.SiteID, object string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for id := range e.perObj[object] {
		if f := e.inflight[id]; f != nil && f.pending[site] {
			n++
		}
	}
	return n
}

// reserveFamilies validates commutativity and pins each object's family.
func (e *Engine) reserveFamilies(updates []op.Op) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Validate everything before mutating, so a rejected ET leaves no
	// partial family reservations behind.
	staged := make(map[string]family, len(updates))
	for _, o := range updates {
		f := familyOf(o.Kind)
		if f == famNone {
			return fmt.Errorf("%w: %v", ErrNotCommutative, o)
		}
		cur, ok := staged[o.Object]
		if !ok {
			cur = e.families[o.Object]
		}
		if cur != famNone && cur != f {
			return fmt.Errorf("%w: %v conflicts with the object's established operation family",
				ErrNotCommutative, o)
		}
		staged[o.Object] = f
	}
	for obj, f := range staged {
		e.families[obj] = f
	}
	return nil
}

// throttle implements the §3.2 update-limiting variant: wait until every
// touched object's lock-counter (in-flight update ETs, measured as the
// largest queued-unapplied count across sites) is below the limit.
func (e *Engine) throttle(updates []op.Op) error {
	objs := distinctObjects(updates)
	deadline := time.Now().Add(e.cfg.ThrottleTimeout)
	for {
		over := false
		for _, obj := range objs {
			if e.CounterValue(obj) >= e.cfg.CounterLimit {
				over = true
				break
			}
		}
		if !over {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrThrottled
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// AppliedEverywhere reports whether the update ET has been applied at
// every site.  Unknown IDs report true (they are not in flight).
func (e *Engine) AppliedEverywhere(id et.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, inflight := e.inflight[id]
	return !inflight
}

// AppliedAt reports whether the update ET has been applied at the given
// site.  Unknown IDs report true.
func (e *Engine) AppliedAt(id et.ID, site clock.SiteID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.inflight[id]
	return !ok || !f.pending[site]
}

// CounterValue reports the object's lock-counter: the number of update
// ETs that have committed but are not yet applied at every site.
func (e *Engine) CounterValue(object string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.perObj[object])
}

// Query executes a query ET at the given site under an ε limit.  Reads
// are priced by the object's lock-counter plus the query's overlap; past
// ε a read drains the object's queued updates first, serializing it
// against in-flight appliers ("the only way to make query ETs SR is to
// put them at the beginning or at the end", §3.2).
func (e *Engine) Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	return core.ReadAtSite(e.c, site, objects, core.ReadOptions{Level: consistency.Bounded, Epsilon: eps, At: clock.Latest, Price: e.price(site)})
}

// QuerySpec executes a query ET under a per-object ε specification
// (spatial consistency): each object's read is bounded by its own
// budget.
func (e *Engine) QuerySpec(site clock.SiteID, objects []string, spec divergence.Spec) (et.QueryResult, error) {
	return core.ReadAtSite(e.c, site, objects, core.ReadOptions{Level: consistency.Bounded, Spec: spec, At: clock.Latest, Price: e.price(site)})
}

// price is COMMU's overlap price at the site: committed-but-invisible
// updates (in transit included) plus updates applied since the query began.
func (e *Engine) price(site clock.SiteID) func(string, uint64) int {
	s := e.c.Site(site)
	return func(obj string, baseline uint64) int {
		return e.invisibleAt(site, obj) + int(s.Epoch(obj)-baseline)
	}
}

// CrashSite simulates a site failure on a durable cluster.
func (e *Engine) CrashSite(id clock.SiteID) error { return e.c.CrashSite(id) }

// RestartSite recovers a crashed site from its WAL and inbound journal.
// COMMU needs no per-site protocol state beyond what the chassis
// rebuilds: MSets apply in any order.
func (e *Engine) RestartSite(id clock.SiteID) error {
	return e.c.RestartSite(id, nil)
}

// Close implements core.Engine.
func (e *Engine) Close() error { return e.c.Close() }

func (e *Engine) apply(s *replica.Site, m et.MSet) error {
	tx := lock.TxID(m.ET)
	objs := distinctObjects(m.Ops)
	sort.Strings(objs)
	for _, obj := range objs {
		// The WU lock request carries the first op on the object so the
		// COMMU table can evaluate commutativity against other holders.
		if err := s.Locks.Acquire(tx, lock.WU, firstOpOn(m.Ops, obj)); err != nil {
			s.Locks.ReleaseAll(tx)
			return fmt.Errorf("commu: apply lock on %q: %w", obj, err)
		}
		s.Locks.IncCounter(obj)
	}
	vers := make(map[string]op.Value, len(objs))
	for _, o := range m.Ops {
		v := s.Store.Apply(o)
		if o.Kind.IsUpdate() {
			vers[o.Object] = v
		}
	}
	// Dual-write into the multi-version store for snapshot reads
	// (idempotent at the same TS, covering redelivery).
	for obj, v := range vers {
		s.MV.InstallMonotone(obj, m.TS, v)
	}
	for _, obj := range objs {
		s.Locks.DecCounter(obj)
	}
	s.Locks.ReleaseAll(tx)
	e.noteApplied(m.ET, s.ID)
	return nil
}

func distinctObjects(ops []op.Op) []string {
	seen := make(map[string]bool, len(ops))
	var out []string
	for _, o := range ops {
		if o.Kind.IsUpdate() && !seen[o.Object] {
			seen[o.Object] = true
			out = append(out, o.Object)
		}
	}
	return out
}

func firstOpOn(ops []op.Op, object string) op.Op {
	for _, o := range ops {
		if o.Object == object && o.Kind.IsUpdate() {
			return o
		}
	}
	return op.Op{Kind: op.Write, Object: object}
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}
