// Package merge implements off-line partition log merging — the
// "optimistic" network-partition recovery family the paper positions
// ESR against (§5.3):
//
// "Optimistic algorithms allow updates to proceed asynchronously, but
// try to merge the operations at partition reconnection time. ...
// Another characteristic of optimistic techniques is that they are
// essentially 'off-line': repairs are based on merging logs from the
// different partitions. ... log transformation [9] is a method proposed
// to speed up the merging of updates from different partitions when
// they reconnect.  They use operation properties such as commutativity
// and overwrite to merge independent updates.  If some updates cannot
// be merged then they try backward recovery by rolling back some
// updates and redoing them."
//
// Merge performs exactly that log transformation: the two partitions'
// update logs interleave into one total order by timestamp; entries
// that commute with everything across the cut merge free, timestamped
// overwrites resolve by the Thomas write rule, and the remaining
// cross-partition conflicts are counted as the rollback/redo work a
// repair tool must perform.  The E11 experiment uses this package to
// quantify the paper's argument that ESR's *on-line* divergence control
// (queued MSets draining at heal) replaces this off-line repair.
package merge

import (
	"sort"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/storage"
)

// Entry is one logged update ET from a partition-side log.
type Entry struct {
	// ET identifies the update.
	ET et.ID
	// TS is the update's logical timestamp; within one side's log
	// timestamps are non-decreasing.
	TS clock.Timestamp
	// Ops are the update's operations.
	Ops []op.Op
}

// Result reports a completed merge.
type Result struct {
	// Schedule is the merged total order.
	Schedule []Entry
	// State is the final object state after replaying the schedule from
	// an empty store (timestamped writes follow the Thomas write rule).
	State map[string]op.Value
	// FreeMerges counts cross-partition entry pairs that commuted (or
	// resolved by overwrite) and therefore merged without repair work.
	FreeMerges int
	// Conflicts counts cross-partition entry pairs with at least one
	// non-commuting operation pair: the entries an off-line repair must
	// roll back and redo.
	Conflicts int
	// Replayed is the number of operations re-executed to compute the
	// final state — the merge's redo cost.
	Replayed int
}

// Merge combines two partition logs into one serial schedule.
//
// The merged order is timestamp order (total, via site tie-break); this
// preserves each side's local order because each side's log is locally
// timestamp-ordered.  Conflict accounting considers only cross-partition
// pairs: intra-partition order was already serialized on-line.
func Merge(a, b []Entry) Result {
	sched := make([]Entry, 0, len(a)+len(b))
	sched = append(sched, a...)
	sched = append(sched, b...)
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].TS.Less(sched[j].TS) })

	res := Result{Schedule: sched}
	// Cross-partition pair analysis.
	fromA := make(map[et.ID]bool, len(a))
	for _, e := range a {
		fromA[e.ET] = true
	}
	for _, ea := range a {
		for _, eb := range b {
			if entriesCommute(ea, eb) {
				res.FreeMerges++
			} else {
				res.Conflicts++
			}
		}
	}
	_ = fromA

	// Replay to the merged state.
	store := storage.NewStore()
	for _, e := range sched {
		for _, o := range e.Ops {
			res.Replayed++
			if o.Kind == op.Write && !o.TS.IsZero() {
				store.InstallNewer(o.Object, o.TS, op.NumValue(o.Arg))
			} else {
				store.Apply(o)
			}
		}
	}
	res.State = store.Snapshot()
	return res
}

// entriesCommute reports whether every operation pair across the two
// entries commutes, or resolves by overwrite (two timestamped writes of
// the same object merge by the Thomas rule regardless of order).
func entriesCommute(a, b Entry) bool {
	for _, oa := range a.Ops {
		for _, ob := range b.Ops {
			if oa.Commutes(ob) {
				continue
			}
			if oa.Kind == op.Write && ob.Kind == op.Write &&
				!oa.TS.IsZero() && !ob.TS.IsZero() {
				// Overwrite property: timestamp order decides, in any
				// replay order.
				continue
			}
			return false
		}
	}
	return true
}

// Equivalent reports whether two merge results reached the same final
// state (list objects compared as multisets, matching the convergence
// predicate used by the on-line methods).
func Equivalent(x, y Result) bool {
	if len(x.State) != len(y.State) {
		return false
	}
	for k, v := range x.State {
		if !v.EqualUnordered(y.State[k]) {
			return false
		}
	}
	return true
}
