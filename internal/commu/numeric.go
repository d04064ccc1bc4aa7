package commu

import (
	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/op"
)

// NumericResult is what a value-bounded query returns.
type NumericResult struct {
	// Values holds the value read per object.
	Values map[string]op.Value
	// Drift is the total absolute numeric drift the query may be
	// missing: the sum of |deltas| of committed-but-invisible additive
	// updates on the objects it read.
	Drift int64
	// MaxDrift is the bound the query ran under.
	MaxDrift int64
	// Site is where the query executed.
	Site clock.SiteID
}

// QueryNumeric executes a query ET whose divergence bound is expressed
// in *value* units instead of update counts: the reads may collectively
// miss at most maxDrift of absolute numeric change.
//
// The paper's §5.1 survey calls this spatial consistency "limiting the
// data value changed asynchronously" (Sheth & Rusinkiewicz) and
// "arithmetic consistency constraints" (Barbará & Garcia-Molina), and
// notes that "in order to implement the other spatial consistency
// criteria, replica control methods would need to explicitly include
// these factors" — this method is that inclusion for COMMU, and the
// same idea later became TACT's numerical error.  It is the ε-query with
// each read priced by its pending drift: reads whose drift would exceed
// the budget drain the object's pending updates and re-read, lock-free.
func (e *Engine) QueryNumeric(site clock.SiteID, objects []string, maxDrift int64) (NumericResult, error) {
	eps := divergence.Limit(maxDrift)
	if eps == divergence.Unlimited {
		eps-- // a negative bound admits no drift, but Limit(-1) reads as Unlimited
	}
	res, err := core.ReadAtSite(e.c, site, objects, core.ReadOptions{Level: consistency.Bounded, Epsilon: eps, At: clock.Latest,
		Price: func(obj string, _ uint64) int { return int(e.invisibleDriftAt(site, obj)) }})
	return NumericResult{Values: res.Values, Drift: int64(res.Inconsistency), MaxDrift: maxDrift, Site: res.Site}, err
}

// invisibleDriftAt sums the absolute additive deltas of in-flight update
// ETs touching the object that the site has not yet applied.
func (e *Engine) invisibleDriftAt(site clock.SiteID, object string) int64 {
	_, drift := e.inFlight(site, object)
	return drift
}
