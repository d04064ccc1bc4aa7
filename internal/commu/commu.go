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
	"slices"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
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

// familyOf names the commutativity family an object is locked into by
// its representative kind; op.Read means the kind is in none.
func familyOf(k op.Kind) op.Kind {
	switch k {
	case op.Increment, op.Decrement:
		return op.Increment
	case op.Multiply, op.UnorderedAppend:
		return k
	case op.RemoveOne:
		return op.UnorderedAppend
	default:
		return op.Read
	}
}

// Config parameterizes a COMMU engine.
type Config struct {
	// Core configures the cluster chassis.
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

// Engine is the COMMU replica-control engine.
type Engine struct {
	*core.Flights // in-flight ETs: the §3.2 lock-counters

	cfg    Config
	c      *core.Cluster
	method core.Method
}

// New builds and starts a COMMU engine.
func New(cfg Config) (*Engine, error) {
	if cfg.ThrottleTimeout <= 0 {
		cfg.ThrottleTimeout = 5 * time.Second
	}
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{Flights: core.NewFlights(c, nil), cfg: cfg, c: c}
	// Table 1's COMMU row: no order; an update is admitted only within its
	// objects' commutativity families.
	e.method = core.Method{
		NotUpdate: ErrNotUpdate,
		Family:    familyOf,
		FamilyErr: ErrNotCommutative,
		Flights:   e.Flights,
	}
	if cfg.CounterLimit > 0 {
		e.method.Admit = e.throttle
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(m et.MSet) error {
			e.method.Apply(s, m, nil)
			return nil
		}
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
// matter — so this is pure propagation amortisation.  A rejected burst
// pins no family.
//
// Every in-flight ET counts on its objects' lock-counters: "When
// updating an object, the U^ET increments the object lock-counter by
// one"; once every site has applied it, "all the lock-counters are
// decremented" (§3.2).
func (e *Engine) UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error) {
	return e.c.Submit(origin, bursts, &e.method)
}

// inFlight reports, over the ETs in flight that the site has not applied
// (site 0: not yet applied everywhere), how many touch the object and the
// absolute numeric drift their ops on it carry.  Multiplicative drift is
// value-dependent, so it is charged as a large sentinel that sends
// value-bounded queries down the conservative path.
func (e *Engine) inFlight(site clock.SiteID, object string) (n int, drift int64) {
	e.Each(site, func(ops []op.Op) {
		hit := false
		for _, o := range ops {
			if o.Object != object {
				continue
			}
			hit = true
			switch o.Kind {
			case op.Increment, op.Decrement:
				drift += abs64(o.Arg)
			case op.Multiply:
				drift += 1 << 40
			default:
				drift++
			}
		}
		if hit {
			n++
		}
	})
	return n, drift
}

// throttle implements the §3.2 update-limiting variant: each ET of the
// burst waits until every object it touches has a lock-counter below the
// limit.
func (e *Engine) throttle(updates [][]op.Op) error {
	for _, ops := range updates {
		objs := op.Objects(ops, false)
		deadline := time.Now().Add(e.cfg.ThrottleTimeout)
		for slices.ContainsFunc(objs, func(obj string) bool { return e.CounterValue(obj) >= e.cfg.CounterLimit }) {
			if time.Now().After(deadline) {
				return ErrThrottled
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// CounterValue reports the object's lock-counter: the number of update
// ETs that have committed but are not yet applied at every site.
func (e *Engine) CounterValue(object string) int {
	n, _ := e.inFlight(0, object)
	return n
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
		n, _ := e.inFlight(site, obj)
		return n + int(s.Epoch(obj)-baseline)
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

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}
