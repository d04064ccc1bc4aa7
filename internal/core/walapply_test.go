package core

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/replica"
	"esr/internal/wal"
)

func walMSet(local uint64, ops ...op.Op) et.MSet {
	return et.MSet{ET: et.MakeID(1, local), Origin: 1, Ops: ops}
}

func TestWrapLogsOnlySuccesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site.wal")
	w, _, _ := wal.Open(path)
	var allow atomic.Bool
	inner := func(m et.MSet) error {
		if !allow.Load() {
			return replica.ErrHold
		}
		return nil
	}
	wrapped := walApply([]*wal.WAL{w}, nil, inner)
	m := walMSet(1, op.IncOp("x", 1))
	if err := wrapped(m); !errors.Is(err, replica.ErrHold) {
		t.Fatalf("hold must pass through: %v", err)
	}
	allow.Store(true)
	if err := wrapped(m); err != nil {
		t.Fatalf("apply: %v", err)
	}
	w.Close()
	_, recovered, _ := wal.Open(path)
	if len(recovered) != 1 {
		t.Errorf("WAL has %d records, want 1 (holds unlogged)", len(recovered))
	}
}

// TestSiteCrashRecoveryEndToEnd is the full durability story: a site
// with a journal-backed inbound queue and a WAL crashes mid-stream; the
// rebuilt site recovers its store from the WAL, skips already-applied
// MSets, and continues applying the still-queued remainder.
func TestSiteCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "in.journal")
	wpath := filepath.Join(dir, "site.wal")

	// --- first life ---
	q1, err := queue.Open(qpath)
	if err != nil {
		t.Fatal(err)
	}
	w1, _, err := wal.Open(wpath)
	if err != nil {
		t.Fatal(err)
	}
	s1 := replica.NewSite(1, q1, lock.COMMU)
	var gate atomic.Bool
	apply1 := walApply([]*wal.WAL{w1}, nil, func(m et.MSet) error {
		if !gate.Load() && m.ET == et.MakeID(1, 2) {
			return replica.ErrHold // the second MSet stays queued
		}
		for _, o := range m.Ops {
			s1.Store.Apply(o)
		}
		return nil
	})
	s1.SetApply(apply1)
	s1.Start()
	deliver := func(s *replica.Site, m et.MSet) {
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Receive(payload); err != nil {
			t.Fatal(err)
		}
	}
	m1 := walMSet(1, op.IncOp("x", 10))
	m2 := walMSet(2, op.IncOp("x", 5))
	deliver(s1, m1)
	deliver(s1, m2)
	deadline := time.Now().Add(5 * time.Second)
	for s1.Stats().Applied < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s1.Store.Get("x"); !got.Equal(op.NumValue(10)) {
		t.Fatalf("pre-crash x = %v, want 10", got)
	}
	// Crash: stop everything without acking m2.
	s1.Stop()
	q1.Close()
	w1.Close()

	// --- second life ---
	w2, records, err := wal.Open(wpath)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := queue.Open(qpath)
	if err != nil {
		t.Fatal(err)
	}
	s2 := replica.NewSite(1, q2, lock.COMMU)
	appliedBefore := wal.RebuildVersioned(s2.Store, nil, records)
	if !appliedBefore[m1.ET] {
		t.Fatalf("WAL lost the applied MSet")
	}
	if got := s2.Store.Get("x"); !got.Equal(op.NumValue(10)) {
		t.Fatalf("rebuilt x = %v, want 10", got)
	}
	// Already durable pre-crash MSets are acked, not re-applied.
	s2.SetApply(walApply([]*wal.WAL{w2}, []map[et.ID]bool{appliedBefore}, func(m et.MSet) error {
		for _, o := range m.Ops {
			s2.Store.Apply(o)
		}
		return nil
	}))
	s2.Start()
	defer func() {
		s2.Stop()
		q2.Close()
		w2.Close()
	}()
	deadline = time.Now().Add(5 * time.Second)
	for s2.QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s2.Store.Get("x"); !got.Equal(op.NumValue(15)) {
		t.Fatalf("post-recovery x = %v, want 15 (m2 drained from journal)", got)
	}
	// Redelivery of m1 (an at-least-once duplicate) must not double-apply.
	deliver(s2, m1)
	time.Sleep(5 * time.Millisecond)
	if got := s2.Store.Get("x"); !got.Equal(op.NumValue(15)) {
		t.Fatalf("duplicate after recovery changed state: %v", got)
	}
}
