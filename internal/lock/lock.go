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
// per-object lock-counters of §3.2.  The ESR methods take no locks at
// run time (a site's apply scheduler serialises every MSet naming an
// object); the tables drive the printed Tables 2–3 and the Manager
// serves the synchronous baselines in internal/coherency.
package lock

import (
	"errors"
	"fmt"
	"sync"

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

// Manager is a blocking lock manager over one compatibility table.  It is
// safe for concurrent use: one mutex guards the grants, the §3.2
// lock-counters and the waits-for graph, and one condition variable
// wakes every waiter when a transaction releases its locks or the
// manager closes.
type Manager struct {
	table Table

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	locks    map[string][]held // object -> grants
	counters map[string]int    // §3.2 lock-counters
	byTx     map[TxID][]string // tx -> objects it holds locks on
	waits    map[TxID]map[TxID]bool
}

// NewManager returns a Manager using the given compatibility table.
func NewManager(table Table) *Manager {
	m := &Manager{
		table:    table,
		locks:    make(map[string][]held),
		counters: make(map[string]int),
		byTx:     make(map[TxID][]string),
		waits:    make(map[TxID]map[TxID]bool),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Table returns the manager's compatibility table.
func (m *Manager) Table() Table { return m.table }

// Acquire blocks until tx holds a lock of the given mode on o.Object, or
// returns ErrDeadlock if waiting would complete a cycle.  Locks a
// transaction already holds never conflict with its own new requests.
func (m *Manager) Acquire(tx TxID, mode Mode, o op.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return ErrClosed
		}
		blockers := m.conflictsLocked(tx, mode, o)
		if len(blockers) == 0 {
			m.grantLocked(tx, mode, o)
			return nil
		}
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
			return ErrDeadlock
		}
		m.cond.Wait()
		delete(m.waits, tx)
	}
}

// TryAcquire grants the lock if it is immediately compatible, otherwise
// returns ErrWouldBlock without waiting.
func (m *Manager) TryAcquire(tx TxID, mode Mode, o op.Op) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(m.conflictsLocked(tx, mode, o)) > 0 {
		return ErrWouldBlock
	}
	m.grantLocked(tx, mode, o)
	return nil
}

// ReleaseAll drops every lock held by tx (the shrinking phase of strict
// 2PL happens in one step at commit/abort).
func (m *Manager) ReleaseAll(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, obj := range m.byTx[tx] {
		grants := m.locks[obj]
		out := grants[:0]
		for _, g := range grants {
			if g.tx != tx {
				out = append(out, g)
			}
		}
		if len(out) == 0 {
			delete(m.locks, obj)
		} else {
			m.locks[obj] = out
		}
	}
	delete(m.byTx, tx)
	delete(m.waits, tx)
	m.cond.Broadcast()
}

// Holds reports whether tx holds any lock on the object.
func (m *Manager) Holds(tx TxID, object string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.locks[object] {
		if g.tx == tx {
			return true
		}
	}
	return false
}

// Close unblocks all waiters with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// conflictsLocked returns the grants blocking the request.  Callers
// hold m.mu.
func (m *Manager) conflictsLocked(tx TxID, mode Mode, o op.Op) []held {
	var out []held
	for _, g := range m.locks[o.Object] {
		if g.tx == tx {
			continue
		}
		if !m.table.Compatible(g.mode, mode, g.op, o) {
			out = append(out, g)
		}
	}
	return out
}

// grantLocked records the grant under the object and the transaction.
// Callers hold m.mu.
func (m *Manager) grantLocked(tx TxID, mode Mode, o op.Op) {
	m.locks[o.Object] = append(m.locks[o.Object], held{tx: tx, mode: mode, op: o})
	m.byTx[tx] = append(m.byTx[tx], o.Object)
}

// cycleTx reports whether target is reachable from cur through the
// waits-for graph (holders block waiters).  Callers hold m.mu.
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
	return false
}

// IncCounter increments the lock-counter on an object and returns the new
// count.  Update ETs call this per accessed object (§3.2): "When updating
// an object, the U^ET increments the object lock-counter by one."
func (m *Manager) IncCounter(object string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[object]++
	return m.counters[object]
}

// DecCounter decrements the lock-counter on an object.  "At the end of
// U^ET execution all the lock-counters are decremented."
func (m *Manager) DecCounter(object string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters[object] > 0 {
		m.counters[object]--
	}
	if m.counters[object] == 0 {
		delete(m.counters, object)
	}
}

// Counter returns the current lock-counter value for an object.  Query
// ETs read it to account for in-flight update inconsistency: "Each
// lock-counter different from zero means a certain degree of
// inconsistency added to the query ET."
func (m *Manager) Counter(object string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[object]
}
