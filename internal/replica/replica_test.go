package replica

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/queue"
)

func encode(t *testing.T, m et.MSet) []byte {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

func newTestSite(t *testing.T, apply ApplyFunc) *Site {
	t.Helper()
	s := NewSite(1, queue.NewMem(), lock.ORDUP)
	s.SetApply(apply)
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestSiteHasOneStore checks that a site keeps one store of state: its
// Store and MV fields name the same version chains, so a write through
// either is the other's chain head.
func TestSiteHasOneStore(t *testing.T) {
	s := NewSite(1, queue.NewMem(), lock.ORDUP)
	if s.Store == nil || s.Store != s.MV {
		t.Fatalf("Site.Store = %p, Site.MV = %p: want one store", s.Store, s.MV)
	}
	s.Store.ApplyAt(op.WriteOp("x", 3), clock.Timestamp{Time: 1, Site: 1})
	if v, _, ok := s.MV.ReadLatest("x"); !ok || v.Val.Num != 3 {
		t.Errorf("MV head = %v ok=%v, want the Store write 3", v.Val, ok)
	}
}

func TestReceiveAndApply(t *testing.T) {
	var applied atomic.Int32
	s := newTestSite(t, func(m et.MSet) error {
		applied.Add(1)
		for _, o := range m.Ops {
			s := o // keep vet quiet about copies
			_ = s
		}
		return nil
	})
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	if err := s.Receive(encode(t, m)); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	waitFor(t, "apply", func() bool { return applied.Load() == 1 })
	st := s.Stats()
	if st.Received != 1 || st.Applied != 1 {
		t.Errorf("stats = %+v", st)
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", s.QueueLen())
	}
}

func TestReceiveRejectsGarbage(t *testing.T) {
	s := newTestSite(t, func(et.MSet) error { return nil })
	if err := s.Receive([]byte("junk")); err == nil {
		t.Errorf("malformed payload must be rejected")
	}
}

func TestReceiveDeduplicates(t *testing.T) {
	var applied atomic.Int32
	s := newTestSite(t, func(et.MSet) error { applied.Add(1); return nil })
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	payload := encode(t, m)
	for i := 0; i < 5; i++ {
		if err := s.Receive(payload); err != nil {
			t.Fatalf("Receive: %v", err)
		}
	}
	waitFor(t, "apply", func() bool { return applied.Load() >= 1 })
	time.Sleep(2 * time.Millisecond)
	if got := applied.Load(); got != 1 {
		t.Errorf("duplicate deliveries applied %d times", got)
	}
	if st := s.Stats(); st.Received != 1 {
		t.Errorf("Received = %d, want 1", st.Received)
	}
}

func TestHoldBackRetriesUntilEligible(t *testing.T) {
	var gate atomic.Bool
	var applied atomic.Int32
	s := newTestSite(t, func(m et.MSet) error {
		if !gate.Load() {
			return ErrHold
		}
		applied.Add(1)
		return nil
	})
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	s.Receive(encode(t, m))
	time.Sleep(3 * time.Millisecond)
	if applied.Load() != 0 {
		t.Fatalf("held MSet applied prematurely")
	}
	if s.Stats().Held == 0 {
		t.Errorf("hold decisions not counted")
	}
	if s.Pending("x") != 1 {
		t.Errorf("Pending = %d while held, want 1", s.Pending("x"))
	}
	gate.Store(true)
	s.Kick()
	waitFor(t, "apply after gate", func() bool { return applied.Load() == 1 })
	if s.Pending("x") != 0 {
		t.Errorf("Pending = %d after apply", s.Pending("x"))
	}
	if s.Epoch("x") != 1 {
		t.Errorf("Epoch = %d after apply", s.Epoch("x"))
	}
}

func TestOutOfOrderMSetsBothApply(t *testing.T) {
	// An apply func that insists on Seq order exercises the scan-all
	// behaviour: the later-arriving earlier MSet unblocks the held one.
	var next atomic.Uint64
	next.Store(1)
	var applied atomic.Int32
	s := newTestSite(t, func(m et.MSet) error {
		if m.Seq != next.Load() {
			return ErrHold
		}
		next.Add(1)
		applied.Add(1)
		return nil
	})
	m2 := et.MSet{ET: et.MakeID(2, 2), Origin: 2, Seq: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	m1 := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Seq: 1, Ops: []op.Op{op.IncOp("x", 1)}}
	s.Receive(encode(t, m2)) // arrives first
	time.Sleep(2 * time.Millisecond)
	s.Receive(encode(t, m1))
	waitFor(t, "both applied in order", func() bool { return applied.Load() == 2 })
}

func TestApplyErrorRetries(t *testing.T) {
	var fails atomic.Int32
	fails.Store(3)
	var applied atomic.Int32
	s := newTestSite(t, func(et.MSet) error {
		if fails.Add(-1) >= 0 {
			return errors.New("transient")
		}
		applied.Add(1)
		return nil
	})
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	s.Receive(encode(t, m))
	waitFor(t, "apply after errors", func() bool { return applied.Load() == 1 })
	if st := s.Stats(); st.Errors < 3 {
		t.Errorf("Errors = %d, want >= 3", st.Errors)
	}
}

func TestWaitDrained(t *testing.T) {
	var gate atomic.Bool
	s := newTestSite(t, func(et.MSet) error {
		if !gate.Load() {
			return ErrHold
		}
		return nil
	})
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	s.Receive(encode(t, m))
	if err := s.WaitDrained("x", 10*time.Millisecond); err == nil {
		t.Errorf("WaitDrained should time out while held")
	}
	gate.Store(true)
	s.Kick()
	if err := s.WaitDrained("x", 5*time.Second); err != nil {
		t.Errorf("WaitDrained after release: %v", err)
	}
	// An object with no pending updates returns immediately.
	if err := s.WaitDrained("never-touched", time.Millisecond); err != nil {
		t.Errorf("WaitDrained(idle object): %v", err)
	}
}

func TestPendingCountsDistinctUpdateObjects(t *testing.T) {
	var gate atomic.Bool
	s := newTestSite(t, func(et.MSet) error {
		if !gate.Load() {
			return ErrHold
		}
		return nil
	})
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{
		op.IncOp("x", 1), op.IncOp("x", 2), op.IncOp("y", 1), op.ReadOp("z"),
	}}
	s.Receive(encode(t, m))
	if s.Pending("x") != 1 {
		t.Errorf("Pending(x) = %d, want 1 (distinct ET count, not op count)", s.Pending("x"))
	}
	if s.Pending("y") != 1 {
		t.Errorf("Pending(y) = %d", s.Pending("y"))
	}
	if s.Pending("z") != 0 {
		t.Errorf("Pending(z) = %d; reads must not count", s.Pending("z"))
	}
	gate.Store(true)
	s.Kick()
	waitFor(t, "drain", func() bool { return s.Pending("x") == 0 })
}

func TestClockObservesIncomingTimestamps(t *testing.T) {
	s := newTestSite(t, func(et.MSet) error { return nil })
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, TS: clock.Timestamp{Time: 500, Site: 2}, Ops: []op.Op{op.IncOp("x", 1)}}
	s.Receive(encode(t, m))
	if now := s.Clock.Now(); now.Time < 500 {
		t.Errorf("site clock %v did not observe incoming TS 500", now)
	}
}

func TestStartWithoutApplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Start without SetApply must panic")
		}
	}()
	s := NewSite(1, queue.NewMem(), lock.ORDUP)
	s.Start()
}

func TestStopIsIdempotent(t *testing.T) {
	s := NewSite(1, queue.NewMem(), lock.ORDUP)
	s.SetApply(func(et.MSet) error { return nil })
	s.Start()
	s.Stop()
	s.Stop() // must not panic or hang
}

// TestJournalRecoveryReappliesAfterRestart: a site built over a File
// queue that still holds unapplied MSets processes them on restart (the
// decode cache misses and falls back to decoding from the journal).
func TestJournalRecoveryReappliesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	q1, err := queue.Open(dir + "/in.journal")
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSite(1, q1, lock.ORDUP)
	s1.SetApply(func(et.MSet) error { return ErrHold }) // never applies
	s1.Start()
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 7)}}
	if err := s1.Receive(encode(t, m)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	s1.Stop()
	q1.Close() // crash with the MSet still queued

	q2, err := queue.Open(dir + "/in.journal")
	if err != nil {
		t.Fatal(err)
	}
	var applied atomic.Int32
	s2 := NewSite(1, q2, lock.ORDUP)
	s2.SetApply(func(got et.MSet) error {
		if got.ET != m.ET || len(got.Ops) != 1 || got.Ops[0].Arg != 7 {
			t.Errorf("recovered MSet mangled: %+v", got)
		}
		applied.Add(1)
		return nil
	})
	s2.Start()
	defer s2.Stop()
	waitFor(t, "recovered apply", func() bool { return applied.Load() == 1 })
}

// TestOnAppliedFollowsBookkeeping: OnApplied runs only once the site's
// watermark, epochs and pending counts already reflect the MSet.
func TestOnAppliedFollowsBookkeeping(t *testing.T) {
	s := NewSite(1, queue.NewMem(), lock.ORDUP)
	s.SetApply(func(et.MSet) error { return nil })
	var told atomic.Bool
	s.OnApplied = func(m et.MSet) {
		if wm := s.Watermark(); wm.Less(m.TS) {
			t.Errorf("OnApplied: watermark %v below the MSet's %v", wm, m.TS)
		}
		if s.Epoch("x") != 1 || s.Pending("x") != 0 {
			t.Errorf("OnApplied: epoch %d, pending %d; want 1, 0", s.Epoch("x"), s.Pending("x"))
		}
		told.Store(true)
	}
	s.Start()
	defer s.Stop()
	m := et.MSet{ET: et.MakeID(2, 1), Origin: 2, TS: clock.Timestamp{Time: 9, Site: 2}, Ops: []op.Op{op.IncOp("x", 1)}}
	if err := s.Receive(encode(t, m)); err != nil {
		t.Fatalf("Receive: %v", err)
	}
	waitFor(t, "OnApplied", told.Load)
}

// TestFloorEvidenceSerializesWindow: a window holding an MSet with a
// sequence floor runs as one group in window order, so no floor is acted
// on before a lower-numbered MSet of the same window has been seen.
func TestFloorEvidenceSerializesWindow(t *testing.T) {
	item := func(seq, floor uint64, obj string) applyItem {
		m := et.MSet{Seq: seq, SeqFloor: floor}
		if obj != "" {
			m.Ops = []op.Op{op.IncOp(obj, 1)}
		}
		return applyItem{m: m, objs: op.Objects(m.Ops, true)}
	}
	disjoint := []applyItem{item(1, 0, "a"), item(2, 0, "b"), item(3, 0, "")}
	if got := len(conflictGroups(disjoint)); got != 3 {
		t.Fatalf("disjoint window without floors: %d groups, want 3", got)
	}
	floored := []applyItem{item(1, 1, "a"), item(2, 2, "b"), item(^uint64(0), 3, "")}
	groups := conflictGroups(floored)
	if len(groups) != 1 || len(groups[0]) != len(floored) {
		t.Fatalf("window with floors: %d groups, want one serial group", len(groups))
	}
	for i, it := range groups[0] {
		if it.m.Seq != floored[i].m.Seq {
			t.Errorf("group order: position %d holds seq %d, want %d", i, it.m.Seq, floored[i].m.Seq)
		}
	}
}

// BenchmarkPruneSeen measures dedup-horizon maintenance per ack batch.
// Steady state must be allocation-free: the retention ring is allocated
// once and reused, where the old implementation rebuilt a slice of
// remembered IDs on every pass.
func BenchmarkPruneSeen(b *testing.B) {
	s := NewSite(1, queue.NewMem(), lock.ORDUP)
	s.SetSeenRetention(4096)
	acks := make([]uint64, 64)
	var next uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.mu.Lock()
		for j := range acks {
			next++
			acks[j] = next
			s.seen[next] = true
		}
		s.mu.Unlock()
		s.pruneSeen(acks)
	}
}
