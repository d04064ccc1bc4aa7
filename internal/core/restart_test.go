package core

import (
	"errors"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
)

func newDurable(t *testing.T, sites int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Sites: sites,
		Net:   network.Config{Seed: 1},
		Dir:   t.TempDir(),
	})
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
	return c
}

func bcast(t *testing.T, c *Cluster, origin clock.SiteID, ops ...op.Op) {
	t.Helper()
	m := et.MSet{ET: c.NextET(origin), Origin: origin, Ops: ops}
	if err := c.Broadcast(m); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
}

func TestCrashRequiresDurability(t *testing.T) {
	c, err := New(Config{Sites: 2, Net: network.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.Setup(func(*replica.Site) replica.ApplyFunc {
		return func(et.MSet) error { return nil }
	})
	defer c.Close()
	if err := c.CrashSite(1); !errors.Is(err, ErrNotDurable) {
		t.Errorf("CrashSite on mem cluster = %v, want ErrNotDurable", err)
	}
	if err := c.RestartSite(1, nil); !errors.Is(err, ErrNotDurable) {
		t.Errorf("RestartSite on mem cluster = %v", err)
	}
}

func TestCrashRestartRoundTrip(t *testing.T) {
	c := newDurable(t, 2)
	bcast(t, c, 1, op.IncOp("x", 10))
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if err := c.CrashSite(2); err != nil {
		t.Fatalf("CrashSite: %v", err)
	}
	if err := c.CrashSite(2); !errors.Is(err, ErrSiteCrashed) {
		t.Errorf("double crash = %v", err)
	}
	// Updates during the crash queue durably toward the dead site.
	bcast(t, c, 1, op.IncOp("x", 5))
	if err := c.RestartSite(2, nil); err != nil {
		t.Fatalf("RestartSite: %v", err)
	}
	if err := c.RestartSite(2, nil); !errors.Is(err, ErrSiteRunning) {
		t.Errorf("double restart = %v", err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce after restart: %v", err)
	}
	// Pre-crash state recovered from WAL + post-crash update delivered.
	if got := c.Site(2).Store.Get("x"); !got.Equal(op.NumValue(15)) {
		t.Errorf("x = %v after restart, want 15", got)
	}
	if ok, obj := c.Converged(); !ok {
		t.Errorf("diverged on %q", obj)
	}
}

func TestRestartSkipsAlreadyAppliedDuplicates(t *testing.T) {
	c := newDurable(t, 2)
	bcast(t, c, 1, op.IncOp("n", 1))
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartSite(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Site(2).Store.Get("n"); !got.Equal(op.NumValue(1)) {
		t.Errorf("n = %v after restart, want 1 (WAL replay not doubled)", got)
	}
}

func TestRecoverFuncSeesRecords(t *testing.T) {
	c := newDurable(t, 2)
	bcast(t, c, 1, op.IncOp("x", 3))
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	var sawRecords int
	err := c.RestartSite(2, func(s *replica.Site, records []et.MSet) error {
		sawRecords = len(records)
		if s.Store.Get("x").Num != 3 {
			t.Errorf("recover callback ran before store rebuild")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RestartSite: %v", err)
	}
	if sawRecords != 1 {
		t.Errorf("recover saw %d records, want 1", sawRecords)
	}
}

func TestRecoverFuncErrorAbortsRestart(t *testing.T) {
	c := newDurable(t, 2)
	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := c.RestartSite(2, func(*replica.Site, []et.MSet) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("RestartSite = %v, want boom", err)
	}
	// The site remains crashed; a second restart (without the failing
	// recover) succeeds.
	if err := c.RestartSite(2, nil); err != nil {
		t.Fatalf("retry RestartSite: %v", err)
	}
}

func TestQueriesFailAtCrashedSiteNetworkLevel(t *testing.T) {
	c := newDurable(t, 3)
	if err := c.CrashSite(3); err != nil {
		t.Fatal(err)
	}
	// Network-level sends to the crashed site fail until restart.
	if err := c.Net.SendBatch(1, 3, [][]byte{[]byte("x")}); err == nil {
		t.Errorf("Send to crashed site should fail")
	}
	if err := c.RestartSite(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
