package core

import (
	"testing"
	"time"

	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
)

func TestBroadcastAllReachesEverySite(t *testing.T) {
	c := newCluster(t, 3, network.Config{Seed: 1}, nil)
	var burst []et.MSet
	for i := 0; i < 8; i++ {
		burst = append(burst, et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}})
	}
	if err := c.BroadcastAll(burst); err != nil {
		t.Fatalf("BroadcastAll: %v", err)
	}
	if err := c.BroadcastAll(nil); err != nil {
		t.Errorf("empty burst: %v", err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	for _, id := range c.SiteIDs() {
		if got := c.Site(id).Store.Get("x"); !got.Equal(op.NumValue(8)) {
			t.Errorf("site %v: x = %v, want 8", id, got)
		}
	}
	if ok, obj := c.Converged(); !ok {
		t.Errorf("diverged on %q", obj)
	}
}

func TestBroadcastAllRejectsMixedOrigins(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	err := c.BroadcastAll([]et.MSet{
		{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}},
		{ET: c.NextET(2), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}},
	})
	if err == nil {
		t.Fatal("mixed-origin burst must be rejected")
	}
}

func TestNextSeqNReservesGapFreeRuns(t *testing.T) {
	c := newCluster(t, 2, network.Config{Seed: 1}, nil)
	first, err := c.NextSeqN(1, 5)
	if err != nil {
		t.Fatalf("NextSeqN: %v", err)
	}
	if first != 1 {
		t.Fatalf("first run starts at %d, want 1", first)
	}
	// The legacy single-number path continues after the reserved run.
	n, err := c.NextSeq(2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("NextSeq after Reserve(5) = %d, want 6", n)
	}
	if _, err := c.NextSeqN(1, 0); err == nil {
		t.Errorf("NextSeqN(0) must fail")
	}
}

func TestDurableBurstCostsOneFsyncPerLink(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Sites: 3, Net: network.Config{Seed: 1}, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// No Setup: processors and delivery agents stay idle, so the only
	// fsyncs counted are the burst's own commit-point appends.
	t.Cleanup(func() { c.Close() })

	var burst []et.MSet
	for i := 0; i < 16; i++ {
		burst = append(burst, et.MSet{ET: c.NextET(1), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}})
	}
	if err := c.BroadcastAll(burst); err != nil {
		t.Fatal(err)
	}
	// Commit point: 1 inbound batch at the origin + 1 batch per outbound
	// link (2 links) = 3 fsyncs for 16 updates replicated 3 ways.
	if syncs := c.JournalSyncs(); syncs != 3 {
		t.Errorf("burst commit cost %d fsyncs, want 3", syncs)
	}
	if got := c.OutBacklog(1); got != 16 {
		t.Errorf("outbound backlog = %d, want 16", got)
	}
}
