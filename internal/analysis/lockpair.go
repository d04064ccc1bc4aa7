package analysis

// LockPairing is rule A1: every lock.Manager Acquire/TryAcquire call is
// matched by a ReleaseAll on all return paths (defer-aware), and every
// sync.Mutex/RWMutex Lock is matched by the corresponding Unlock.
// Strict 2PL's correctness (and the deadlock detector's waits-for
// bookkeeping) both assume the shrinking phase always runs; a lock that
// escapes an error branch blocks every later conflicting ET forever.
//
// The rule is interprocedural: the lock engine (lockflow.go) runs a CFG
// dataflow per function and propagates lock deltas through
// per-function summaries over the call graph.  A helper that acquires
// a lock every caller releases is clean; a lock leaking through a chain
// of calls is reported once, at the original acquisition site, in the
// outermost function where no caller can still release it.
var LockPairing = &Analyzer{
	Rule:      "A1",
	Name:      "lockpair",
	Doc:       "lock acquisitions must be released on all return paths, across call boundaries (defer-aware)",
	RunModule: lockLeaks,
}
