// Package lock implements two-phase locking extended with the paper's
// epsilon-transaction lock classes.
//
// The paper introduces three lock modes (§3.1–3.2): RU, a read lock taken
// by an update ET; WU, a write lock taken by an update ET; and RQ, a read
// lock taken by a query ET.  Three compatibility tables are provided:
//
//   - Standard: classic 2PL, treating query reads like ordinary reads.
//   - ORDUP: the paper's Table 2 — query locks are compatible with
//     everything, update locks conflict as in standard 2PL.
//   - COMMU: the paper's Table 3 — additionally, WU/WU and WU/RU pairs
//     are compatible when the underlying operations commute.
//
// The Manager grants and blocks lock requests under a chosen table,
// detects deadlocks through a waits-for graph, and maintains the
// per-object lock-counters COMMU's divergence bounding uses (§3.2).
package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/metrics"
	"esr/internal/op"
)

// Mode is an ET lock mode.
type Mode int

const (
	// RU is a read lock held by an update ET.
	RU Mode = iota
	// WU is a write lock held by an update ET.
	WU
	// RQ is a read lock held by a query ET.
	RQ
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case RU:
		return "RU"
	case WU:
		return "WU"
	case RQ:
		return "RQ"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all lock modes in the order the paper's tables print them.
var Modes = []Mode{RU, WU, RQ}

// Table selects a lock compatibility table.
type Table int

const (
	// Standard is classic 2PL: only read/read pairs are compatible.
	Standard Table = iota
	// ORDUP is the paper's Table 2.
	ORDUP
	// COMMU is the paper's Table 3.
	COMMU
)

// String implements fmt.Stringer.
func (t Table) String() string {
	switch t {
	case Standard:
		return "Standard"
	case ORDUP:
		return "ORDUP"
	case COMMU:
		return "COMMU"
	default:
		return fmt.Sprintf("Table(%d)", int(t))
	}
}

// Compat is a compatibility verdict.
type Compat int

const (
	// Conflict means the request must wait.
	Conflict Compat = iota
	// OK means the request is always compatible.
	OK
	// Comm means the request is compatible exactly when the two
	// operations commute (Table 3's "Comm" entries).
	Comm
)

// String renders the verdict as it appears in the paper's tables: "OK",
// "Comm", or blank for a conflict.
func (c Compat) String() string {
	switch c {
	case OK:
		return "OK"
	case Comm:
		return "Comm"
	default:
		return ""
	}
}

// Compatibility returns the table cell for a held-mode/requested-mode
// pair.  This single function regenerates the paper's Tables 2 and 3; the
// bench harness prints it and tests assert it cell-by-cell.
func (t Table) Compatibility(held, req Mode) Compat {
	// Query read locks never conflict with anything under the ET tables:
	// "Query ETs are allowed to interleave with other ETs (both queries
	// and updates) freely" (§2.1).
	if t != Standard && (held == RQ || req == RQ) {
		return OK
	}
	switch t {
	case Standard:
		if (held == RU || held == RQ) && (req == RU || req == RQ) {
			return OK
		}
		return Conflict
	case ORDUP:
		// Table 2: update locks conflict exactly as in standard 2PL.
		if held == RU && req == RU {
			return OK
		}
		return Conflict
	case COMMU:
		// Table 3: RU/RU OK; WU/WU, WU/RU, RU/WU compatible when the
		// operations commute.
		if held == RU && req == RU {
			return OK
		}
		return Comm
	default:
		return Conflict
	}
}

// Compatible resolves a Compatibility verdict against an actual operation
// pair: Comm entries require heldOp and reqOp to commute.
func (t Table) Compatible(held, req Mode, heldOp, reqOp op.Op) bool {
	switch t.Compatibility(held, req) {
	case OK:
		return true
	case Comm:
		return heldOp.Commutes(reqOp)
	default:
		return false
	}
}

// TxID identifies a transaction (ET) to the lock manager.
type TxID uint64

// Errors returned by Acquire.
var (
	// ErrDeadlock reports that granting the request would complete a
	// waits-for cycle; the requesting transaction should abort.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrWouldBlock is returned by TryAcquire when the request conflicts.
	ErrWouldBlock = errors.New("lock: would block")
	// ErrClosed is returned after the manager is closed.
	ErrClosed = errors.New("lock: manager closed")
)

type held struct {
	tx   TxID
	mode Mode
	op   op.Op
}

// DefaultStripes is the stripe count used by NewManager.  Sixteen keeps
// per-stripe maps small at our workload sizes while making same-stripe
// collisions between unrelated objects rare.
const DefaultStripes = 16

// stripe is one shard of the lock table: the grants and §3.2
// lock-counters for every object that hashes to it, guarded by its own
// mutex and condition variable so applies to objects on different
// stripes never contend.
type stripe struct {
	mu       sync.Mutex
	cond     *sync.Cond
	locks    map[string][]held // object -> grants
	counters map[string]int    // §3.2 lock-counters
}

// Manager is a blocking lock manager over one compatibility table.  It is
// safe for concurrent use.
//
// The lock table is sharded into per-object stripes (fnv-hash of the
// object name); each stripe has its own mutex, condition variable,
// grant map and lock-counters.  Transaction-wide state — which objects
// a transaction holds (byTx) and the waits-for graph used for deadlock
// detection — spans stripes and lives under txMu.
//
// Lock ordering: a stripe mutex may be held while taking txMu; txMu is
// never held while taking a stripe mutex.  Because every wait edge and
// every cycle check happens atomically under txMu, two transactions
// blocking each other on different stripes cannot both miss the cycle:
// whichever records its edge second observes the first's.
type Manager struct {
	table   Table
	stripes []*stripe
	closed  atomic.Bool

	txMu  sync.Mutex
	byTx  map[TxID][]string // tx -> objects it holds locks on
	waits map[TxID]map[TxID]bool

	met Metrics
}

// Metrics instruments the lock manager.  All fields optional (nil
// fields are no-ops).
type Metrics struct {
	// Acquires counts granted lock requests.
	Acquires *metrics.Counter
	// Waits counts requests that blocked at least once before granting.
	Waits *metrics.Counter
	// Deadlocks counts requests aborted with ErrDeadlock.
	Deadlocks *metrics.Counter
	// Conflicts counts blocking conflicts by table entry: labels are
	// the held mode and the requested mode ("WU","RU", ...), mapping
	// each blocked request onto a cell of the paper's compatibility
	// tables.  Counted once per request, at its first block.
	Conflicts *metrics.CounterVec
	// WaitSeconds observes the grant delay (nanoseconds) of requests
	// that blocked.
	WaitSeconds *metrics.Histogram
	// StripeContention counts stripe-mutex acquisitions that found the
	// stripe already locked — how often two workers landed on the same
	// stripe at the same moment.
	StripeContention *metrics.Counter
}

// SetMetrics installs instrumentation.  Call before concurrent use.
func (m *Manager) SetMetrics(mm Metrics) {
	m.txMu.Lock()
	defer m.txMu.Unlock()
	m.met = mm
}

// NewManager returns a Manager using the given compatibility table and
// DefaultStripes lock-table stripes.
func NewManager(table Table) *Manager {
	m := &Manager{
		table:   table,
		stripes: make([]*stripe, DefaultStripes),
		byTx:    make(map[TxID][]string),
		waits:   make(map[TxID]map[TxID]bool),
	}
	for i := range m.stripes {
		st := &stripe{
			locks:    make(map[string][]held),
			counters: make(map[string]int),
		}
		st.cond = sync.NewCond(&st.mu)
		m.stripes[i] = st
	}
	return m
}

// Table returns the manager's compatibility table.
func (m *Manager) Table() Table { return m.table }

// stripeFor maps an object name to its stripe (fnv-1a, allocation free).
func (m *Manager) stripeFor(object string) *stripe {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(object); i++ {
		h ^= uint32(object[i])
		h *= prime32
	}
	return m.stripes[h%uint32(len(m.stripes))]
}

// lockStripe takes the stripe mutex, counting acquisitions that had to
// contend with another holder.  Deliberately an acquisition helper:
// esrvet's interprocedural A1 verifies every caller releases st.mu.
func (m *Manager) lockStripe(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	m.met.StripeContention.Inc()
	st.mu.Lock()
}

// Acquire blocks until tx holds a lock of the given mode on o.Object, or
// returns ErrDeadlock if waiting would complete a cycle.  Locks a
// transaction already holds never conflict with its own new requests.
func (m *Manager) Acquire(tx TxID, mode Mode, o op.Op) error {
	st := m.stripeFor(o.Object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	var waitStart time.Time
	waited := false
	for {
		if m.closed.Load() {
			return ErrClosed
		}
		blockers := st.conflictsLocked(m.table, tx, mode, o)
		if len(blockers) == 0 {
			m.grantLocked(st, tx, mode, o)
			m.met.Acquires.Inc()
			if waited {
				m.met.WaitSeconds.Observe(int64(time.Since(waitStart)))
			}
			return nil
		}
		if !waited {
			// Count the block (and its table cell) once per request, at
			// the first conflict: retries around cond.Wait are the same
			// logical wait.
			waited = true
			waitStart = time.Now()
			m.met.Waits.Inc()
			m.met.Conflicts.With(blockers[0].mode.String(), mode.String()).Inc()
		}
		// Record the wait edges and test for a cycle.  Both happen
		// atomically under txMu so that concurrent waiters on other
		// stripes cannot record a mutual wait without one of them
		// observing the completed cycle.
		m.txMu.Lock()
		w := m.waits[tx]
		if w == nil {
			w = make(map[TxID]bool)
			m.waits[tx] = w
		}
		for _, b := range blockers {
			w[b.tx] = true
		}
		if m.cycleTx(tx, tx, map[TxID]bool{}) {
			delete(m.waits, tx)
			m.txMu.Unlock()
			m.met.Deadlocks.Inc()
			return ErrDeadlock
		}
		m.txMu.Unlock()
		st.cond.Wait()
		m.txMu.Lock()
		delete(m.waits, tx)
		m.txMu.Unlock()
	}
}

// TryAcquire grants the lock if it is immediately compatible, otherwise
// returns ErrWouldBlock without waiting.
func (m *Manager) TryAcquire(tx TxID, mode Mode, o op.Op) error {
	st := m.stripeFor(o.Object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	if len(st.conflictsLocked(m.table, tx, mode, o)) > 0 {
		return ErrWouldBlock
	}
	m.grantLocked(st, tx, mode, o)
	m.met.Acquires.Inc()
	return nil
}

// ReleaseAll drops every lock held by tx (the shrinking phase of strict
// 2PL happens in one step at commit/abort).
func (m *Manager) ReleaseAll(tx TxID) {
	// Snapshot and clear the transaction's cross-stripe state first;
	// txMu must not be held while stripe mutexes are taken.
	m.txMu.Lock()
	objs := m.byTx[tx]
	delete(m.byTx, tx)
	delete(m.waits, tx)
	m.txMu.Unlock()
	for _, obj := range objs {
		st := m.stripeFor(obj)
		m.lockStripe(st)
		grants := st.locks[obj]
		out := grants[:0]
		for _, g := range grants {
			if g.tx != tx {
				out = append(out, g)
			}
		}
		if len(out) == 0 {
			delete(st.locks, obj)
		} else {
			st.locks[obj] = out
		}
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// Holds reports whether tx holds any lock on the object.
func (m *Manager) Holds(tx TxID, object string) bool {
	st := m.stripeFor(object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	for _, g := range st.locks[object] {
		if g.tx == tx {
			return true
		}
	}
	return false
}

// Close unblocks all waiters with ErrClosed.
func (m *Manager) Close() {
	m.closed.Store(true)
	// Broadcast with each stripe mutex held: a waiter between its
	// closed-check and cond.Wait holds the stripe mutex, so taking it
	// here orders this broadcast after that waiter parks.
	for _, st := range m.stripes {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

// conflictsLocked returns the grants blocking the request (the whole
// held record, so callers can label conflicts by mode pair).  Callers
// hold the stripe mutex.
func (st *stripe) conflictsLocked(table Table, tx TxID, mode Mode, o op.Op) []held {
	var out []held
	for _, g := range st.locks[o.Object] {
		if g.tx == tx {
			continue
		}
		if !table.Compatible(g.mode, mode, g.op, o) {
			out = append(out, g)
		}
	}
	return out
}

// grantLocked records the grant on the stripe (whose mutex the caller
// holds) and the object under the transaction's cross-stripe index.
func (m *Manager) grantLocked(st *stripe, tx TxID, mode Mode, o op.Op) {
	st.locks[o.Object] = append(st.locks[o.Object], held{tx: tx, mode: mode, op: o})
	m.txMu.Lock()
	m.byTx[tx] = append(m.byTx[tx], o.Object)
	m.txMu.Unlock()
}

// cycleTx reports whether target is reachable from cur through the
// waits-for graph (holders block waiters).  Callers hold txMu.
func (m *Manager) cycleTx(target, cur TxID, seen map[TxID]bool) bool {
	for next := range m.waits[cur] {
		if next == target && cur != target {
			return true
		}
		if !seen[next] {
			seen[next] = true
			if m.cycleTx(target, next, seen) {
				return true
			}
		}
	}
	// Also follow edges out of transactions the current one waits on:
	// the map above already encodes that; additionally, the initial call
	// passes cur == target, whose direct edges were just added by the
	// caller.
	return false
}

// IncCounter increments the lock-counter on an object and returns the new
// count.  Update ETs call this per accessed object (§3.2): "When updating
// an object, the U^ET increments the object lock-counter by one."
func (m *Manager) IncCounter(object string) int {
	st := m.stripeFor(object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	st.counters[object]++
	return st.counters[object]
}

// DecCounter decrements the lock-counter on an object.  "At the end of
// U^ET execution all the lock-counters are decremented."
func (m *Manager) DecCounter(object string) {
	st := m.stripeFor(object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	if st.counters[object] > 0 {
		st.counters[object]--
	}
	if st.counters[object] == 0 {
		delete(st.counters, object)
	}
	st.cond.Broadcast()
}

// Counter returns the current lock-counter value for an object.  Query
// ETs read it to account for in-flight update inconsistency: "Each
// lock-counter different from zero means a certain degree of
// inconsistency added to the query ET."
func (m *Manager) Counter(object string) int {
	st := m.stripeFor(object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	return st.counters[object]
}

// WaitCounterBelow blocks until the object's lock-counter is below limit,
// implementing the update-throttling variant of §3.2 ("if the lock-counter
// of an object exceeds a specified limit, then the update ET trying to
// write must either wait or abort").
func (m *Manager) WaitCounterBelow(object string, limit int) error {
	st := m.stripeFor(object)
	m.lockStripe(st)
	defer st.mu.Unlock()
	for st.counters[object] >= limit {
		if m.closed.Load() {
			return ErrClosed
		}
		st.cond.Wait()
	}
	return nil
}
