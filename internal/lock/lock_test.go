package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"esr/internal/op"
)

// TestPaperTable2 asserts the ORDUP compatibility table cell-by-cell
// against Table 2 of the paper.
func TestPaperTable2(t *testing.T) {
	want := map[[2]Mode]Compat{
		{RU, RU}: OK, {RU, WU}: Conflict, {RU, RQ}: OK,
		{WU, RU}: Conflict, {WU, WU}: Conflict, {WU, RQ}: OK,
		{RQ, RU}: OK, {RQ, WU}: OK, {RQ, RQ}: OK,
	}
	for pair, w := range want {
		if got := ORDUP.Compatibility(pair[0], pair[1]); got != w {
			t.Errorf("Table 2 [%v,%v] = %q, want %q", pair[0], pair[1], got, w)
		}
	}
}

// TestPaperTable3 asserts the COMMU compatibility table cell-by-cell
// against Table 3 of the paper.
func TestPaperTable3(t *testing.T) {
	want := map[[2]Mode]Compat{
		{RU, RU}: OK, {RU, WU}: Comm, {RU, RQ}: OK,
		{WU, RU}: Comm, {WU, WU}: Comm, {WU, RQ}: OK,
		{RQ, RU}: OK, {RQ, WU}: OK, {RQ, RQ}: OK,
	}
	for pair, w := range want {
		if got := COMMU.Compatibility(pair[0], pair[1]); got != w {
			t.Errorf("Table 3 [%v,%v] = %q, want %q", pair[0], pair[1], got, w)
		}
	}
}

func TestStandardTable(t *testing.T) {
	reads := map[Mode]bool{RU: true, RQ: true}
	for _, h := range Modes {
		for _, r := range Modes {
			want := Conflict
			if reads[h] && reads[r] {
				want = OK
			}
			if got := Standard.Compatibility(h, r); got != want {
				t.Errorf("Standard [%v,%v] = %q, want %q", h, r, got, want)
			}
		}
	}
}

func TestCompatResolvesCommutativity(t *testing.T) {
	incA, incB := op.IncOp("x", 1), op.IncOp("x", 2)
	mul := op.MulOp("x", 2)
	if !COMMU.Compatible(WU, WU, incA, incB) {
		t.Errorf("commuting WU/WU must be compatible under COMMU")
	}
	if COMMU.Compatible(WU, WU, incA, mul) {
		t.Errorf("non-commuting WU/WU must conflict under COMMU")
	}
	if ORDUP.Compatible(WU, WU, incA, incB) {
		t.Errorf("ORDUP WU/WU must conflict even when commuting")
	}
	if !ORDUP.Compatible(WU, RQ, mul, op.ReadOp("x")) {
		t.Errorf("query read must pass under ORDUP")
	}
}

func TestCompatStrings(t *testing.T) {
	if OK.String() != "OK" || Comm.String() != "Comm" || Conflict.String() != "" {
		t.Errorf("Compat strings: %q %q %q", OK, Comm, Conflict)
	}
	if RU.String() != "RU" || WU.String() != "WU" || RQ.String() != "RQ" {
		t.Errorf("Mode strings wrong")
	}
	if Standard.String() != "Standard" || ORDUP.String() != "ORDUP" || COMMU.String() != "COMMU" {
		t.Errorf("Table strings wrong")
	}
}

func TestAcquireGrantAndRelease(t *testing.T) {
	m := NewManager(ORDUP)
	defer m.Close()
	w := op.WriteOp("x", 1)
	if err := m.Acquire(1, WU, w); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if !m.Holds(1, "x") {
		t.Errorf("tx 1 must hold a lock on x")
	}
	if err := m.TryAcquire(2, WU, w); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("conflicting TryAcquire = %v, want ErrWouldBlock", err)
	}
	m.ReleaseAll(1)
	if m.Holds(1, "x") {
		t.Errorf("ReleaseAll must drop the lock")
	}
	if err := m.TryAcquire(2, WU, w); err != nil {
		t.Errorf("TryAcquire after release = %v", err)
	}
}

func TestSelfCompatibility(t *testing.T) {
	m := NewManager(Standard)
	defer m.Close()
	if err := m.Acquire(1, RU, op.ReadOp("x")); err != nil {
		t.Fatalf("Acquire RU: %v", err)
	}
	// Upgrading one's own lock never self-conflicts.
	if err := m.TryAcquire(1, WU, op.WriteOp("x", 1)); err != nil {
		t.Errorf("self-upgrade = %v, want nil", err)
	}
}

func TestBlockingAcquireWakesOnRelease(t *testing.T) {
	m := NewManager(Standard)
	defer m.Close()
	w := op.WriteOp("x", 1)
	if err := m.Acquire(1, WU, w); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	got := make(chan error, 1)
	go func() { got <- m.Acquire(2, WU, w) }()
	select {
	case err := <-got:
		t.Fatalf("second Acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("blocked Acquire = %v after release", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("blocked Acquire never woke")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager(Standard)
	defer m.Close()
	wx, wy := op.WriteOp("x", 1), op.WriteOp("y", 1)
	if err := m.Acquire(1, WU, wx); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, WU, wy); err != nil {
		t.Fatal(err)
	}
	res1 := make(chan error, 1)
	go func() { res1 <- m.Acquire(1, WU, wy) }() // 1 waits on 2
	time.Sleep(10 * time.Millisecond)
	err := m.Acquire(2, WU, wx) // 2 waits on 1: cycle
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Acquire = %v, want ErrDeadlock", err)
	}
	// Victim aborts; tx 1 proceeds after tx 2 releases.
	m.ReleaseAll(2)
	select {
	case err := <-res1:
		if err != nil {
			t.Fatalf("survivor Acquire = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("survivor never granted after victim released")
	}
}

func TestCOMMUAllowsConcurrentCommutingWrites(t *testing.T) {
	m := NewManager(COMMU)
	defer m.Close()
	if err := m.Acquire(1, WU, op.IncOp("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(2, WU, op.IncOp("x", 5)); err != nil {
		t.Errorf("commuting increments must coexist: %v", err)
	}
	if err := m.TryAcquire(3, WU, op.MulOp("x", 2)); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("non-commuting multiply must block: %v", err)
	}
}

func TestQueryLocksNeverBlockUnderET(t *testing.T) {
	for _, table := range []Table{ORDUP, COMMU} {
		m := NewManager(table)
		if err := m.Acquire(1, WU, op.WriteOp("x", 1)); err != nil {
			t.Fatal(err)
		}
		if err := m.TryAcquire(2, RQ, op.ReadOp("x")); err != nil {
			t.Errorf("%v: query read blocked by update write: %v", table, err)
		}
		// And an update write is not blocked by a held query read.
		m2 := NewManager(table)
		if err := m2.Acquire(1, RQ, op.ReadOp("x")); err != nil {
			t.Fatal(err)
		}
		if err := m2.TryAcquire(2, WU, op.WriteOp("x", 1)); err != nil {
			t.Errorf("%v: update write blocked by query read: %v", table, err)
		}
		m.Close()
		m2.Close()
	}
}

func TestStandardBlocksQueryReads(t *testing.T) {
	m := NewManager(Standard)
	defer m.Close()
	if err := m.Acquire(1, WU, op.WriteOp("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(2, RQ, op.ReadOp("x")); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("standard 2PL must block query reads against writers: %v", err)
	}
}

func TestLockCounters(t *testing.T) {
	m := NewManager(COMMU)
	defer m.Close()
	if got := m.Counter("x"); got != 0 {
		t.Errorf("fresh counter = %d", got)
	}
	if got := m.IncCounter("x"); got != 1 {
		t.Errorf("IncCounter = %d, want 1", got)
	}
	m.IncCounter("x")
	if got := m.Counter("x"); got != 2 {
		t.Errorf("Counter = %d, want 2", got)
	}
	m.DecCounter("x")
	m.DecCounter("x")
	if got := m.Counter("x"); got != 0 {
		t.Errorf("Counter after decrements = %d, want 0", got)
	}
	m.DecCounter("x") // never below zero
	if got := m.Counter("x"); got != 0 {
		t.Errorf("Counter went negative: %d", got)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	m := NewManager(Standard)
	w := op.WriteOp("x", 1)
	m.Acquire(1, WU, w)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, WU, w) }()
	time.Sleep(10 * time.Millisecond)
	m.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Acquire after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Close did not unblock waiter")
	}
	if err := m.TryAcquire(3, RQ, op.ReadOp("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("TryAcquire on closed manager = %v", err)
	}
}

func TestConcurrentIncrementWorkloadUnderCOMMU(t *testing.T) {
	// Many concurrent commuting writers must all be grantable without
	// deadlock, and ReleaseAll must clean up fully.
	m := NewManager(COMMU)
	defer m.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			o := op.IncOp("hot", 1)
			if err := m.Acquire(tx, WU, o); err != nil {
				errs <- err
				return
			}
			m.IncCounter("hot")
			time.Sleep(time.Millisecond)
			m.DecCounter("hot")
			m.ReleaseAll(tx)
		}(TxID(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("worker error: %v", err)
	}
	if got := m.Counter("hot"); got != 0 {
		t.Errorf("counter leaked: %d", got)
	}
}
