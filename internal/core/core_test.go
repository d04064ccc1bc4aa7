package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/history"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
)

func newCluster(t *testing.T, sites int, net network.Config, apply func(s *replica.Site) replica.ApplyFunc) *Cluster {
	t.Helper()
	c, err := New(Config{Sites: sites, Net: net})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if apply == nil {
		apply = func(s *replica.Site) replica.ApplyFunc {
			return func(m et.MSet) error {
				for _, o := range m.Ops {
					s.Store.Apply(o)
				}
				return nil
			}
		}
	}
	c.Setup(apply)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Sites: 0}); err == nil {
		t.Errorf("zero sites must fail")
	}
}

func TestBroadcastReachesEverySite(t *testing.T) {
	c := newCluster(t, 3, network.Config{Seed: 1}, nil)
	m := et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 5)}}
	if err := c.Broadcast(m); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	for _, id := range c.SiteIDs() {
		if got := c.Site(id).Store.Get("x"); !got.Equal(op.NumValue(5)) {
			t.Errorf("site %v: x = %v", id, got)
		}
	}
	if ok, _ := c.Converged(); !ok {
		t.Errorf("cluster did not converge")
	}
}

func TestBroadcastUnknownOrigin(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	m := et.MSet{ET: et.MakeID(9, 1), Origin: 9, Ops: []op.Op{op.IncOp("x", 1)}}
	if err := c.Broadcast(m); err == nil {
		t.Errorf("unknown origin must fail")
	}
}

func TestNextETUniqueAcrossSites(t *testing.T) {
	c := newCluster(t, 3, network.Config{Seed: 1}, nil)
	seen := make(map[et.ID]bool)
	for i := 0; i < 100; i++ {
		for _, id := range c.SiteIDs() {
			etid := c.NextET(id)
			if seen[etid] {
				t.Fatalf("duplicate ET ID %v", etid)
			}
			seen[etid] = true
			if etid.Origin() != id {
				t.Fatalf("ET %v origin = %v, want %v", etid, etid.Origin(), id)
			}
		}
	}
}

func TestSequencerService(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	var prev uint64
	for i := 0; i < 10; i++ {
		n, err := c.NextSeq(1)
		if err != nil {
			t.Fatalf("NextSeq: %v", err)
		}
		if n <= prev {
			t.Fatalf("sequence numbers must increase: %d after %d", n, prev)
		}
		prev = n
	}
	// Unreachable during a partition.
	c.Net.Partition([]clock.SiteID{SequencerSite, 2}, []clock.SiteID{1})
	if _, err := c.NextSeq(1); err == nil {
		t.Errorf("NextSeq across a partition must fail")
	}
	c.Net.Heal()
}

func TestQuiesceTimesOutDuringPartition(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	c.Net.Partition([]clock.SiteID{1, SequencerSite}, []clock.SiteID{2})
	m := et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}}
	if err := c.Broadcast(m); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	err := c.Quiesce(50 * time.Millisecond)
	if !errors.Is(err, ErrQuiesceTimeout) {
		t.Fatalf("Quiesce = %v, want ErrQuiesceTimeout", err)
	}
	c.Net.Heal()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("Quiesce after heal: %v", err)
	}
}

func TestConvergedDetectsDivergence(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	c.Site(1).Store.Apply(op.WriteOp("x", 1))
	c.Site(2).Store.Apply(op.WriteOp("x", 2))
	ok, obj := c.Converged()
	if ok || obj != "x" {
		t.Errorf("Converged = %v/%q, want divergence on x", ok, obj)
	}
}

func TestOutBacklog(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	c.Net.Partition([]clock.SiteID{1, SequencerSite}, []clock.SiteID{2})
	for i := 0; i < 3; i++ {
		m := et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}}
		if err := c.Broadcast(m); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
	}
	if got := c.OutBacklog(1); got != 3 {
		t.Errorf("OutBacklog = %d, want 3 during partition", got)
	}
	c.Net.Heal()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if got := c.OutBacklog(1); got != 0 {
		t.Errorf("OutBacklog = %d after drain", got)
	}
}

func TestMessageLossMaskedByRetry(t *testing.T) {
	// DeliveryWindow -1 forces one frame per message so the loss model
	// gets a decision per message rather than per batched frame.
	c, err := New(Config{Sites: 3, Net: network.Config{Seed: 3, LossRate: 0.4},
		DeliveryWindow: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(m et.MSet) error {
			for _, o := range m.Ops {
				s.Store.Apply(o)
			}
			return nil
		}
	})
	t.Cleanup(func() { c.Close() })
	for i := 0; i < 10; i++ {
		m := et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}}
		if err := c.Broadcast(m); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce under loss: %v", err)
	}
	for _, id := range c.SiteIDs() {
		if got := c.Site(id).Store.Get("x"); !got.Equal(op.NumValue(10)) {
			t.Errorf("site %v: x = %v, want 10 (no message applied twice)", id, got)
		}
	}
	if st := c.Net.Stats(); st.Lost == 0 {
		t.Errorf("loss model inactive: %+v", st)
	}
}

func TestHistoryRecording(t *testing.T) {
	c := newCluster(t, 1, network.Config{Seed: 1}, nil)
	id := c.NextET(1)
	c.RecordUpdate(id, []op.Op{op.ReadOp("a"), op.IncOp("a", 1)})
	qid := c.NextET(1)
	c.RecordQueryRead(qid, "a")
	events := c.Hist.Events()
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	if events[0].Class != history.Update || events[2].Class != history.Query {
		t.Errorf("event classes wrong: %+v", events)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	c, err := New(Config{Sites: 2, Net: network.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(et.MSet) error { return nil }
	})
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestZeroEpsilonReadImportsNoHeldUpdate(t *testing.T) {
	// With a zero budget and a held update, the ε-query refuses the
	// overlap instead of charging it, and the applier still drains once
	// released.
	var gate atomic.Bool
	c := newCluster(t, 1, network.Config{Seed: 1}, func(s *replica.Site) replica.ApplyFunc {
		return func(m et.MSet) error {
			if !gate.Load() {
				return replica.ErrHold
			}
			for _, o := range m.Ops {
				s.Store.Apply(o)
			}
			return nil
		}
	})
	m := et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}}
	c.Broadcast(m)
	time.Sleep(time.Millisecond)
	res, err := ReadAtSite(c, 1, []string{"x"}, ReadOptions{Level: consistency.Bounded, At: clock.Latest,
		WaitTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("ReadAtSite: %v", err)
	}
	if res.Inconsistency != 0 {
		t.Errorf("ε=0 query reported %d", res.Inconsistency)
	}
	gate.Store(true)
	c.Site(1).Kick()
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
}

func TestReadAtSiteUnknownSite(t *testing.T) {
	c := newCluster(t, 1, network.Config{Seed: 1}, nil)
	if _, err := ReadAtSite(c, 9, []string{"x"}, ReadOptions{Epsilon: divergence.Unlimited}); err == nil {
		t.Errorf("unknown site must fail")
	}
}

func TestMsgIDDistinguishesCompensation(t *testing.T) {
	id := et.MakeID(1, 7)
	fwd := msgIDFor(et.MSet{ET: id})
	comp := msgIDFor(et.MSet{ET: id, Compensation: true})
	if fwd == comp {
		t.Errorf("forward and compensation MSets must have distinct message IDs")
	}
	if msgIDFor(et.MSet{ET: id}) != fwd {
		t.Errorf("message IDs must be deterministic for dedup")
	}
}
