package ordup

// Crash-fault tests for the replicated sequencer: leader failover under
// concurrent load, floor-driven gap skipping, reservation-intent
// resolution after a crash, and snapshot catch-up of a site whose
// durable state was wiped.  All run with -race in CI.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
)

// newSeqRepEngine builds a durable Sequencer-mode engine whose order
// service is a replicated ensemble co-hosted with every site.
func newSeqRepEngine(t *testing.T, sites int) *Engine {
	t.Helper()
	e, err := New(Config{
		Core: core.Config{
			Sites:       sites,
			Net:         network.Config{Seed: 1},
			Dir:         t.TempDir(),
			SeqReplicas: sites,
		},
		Ordering:  Sequencer,
		Heartbeat: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// waitConverged polls until every listed site's store holds want for
// obj.  Used while some site is crashed and Quiesce cannot apply
// (outbound queues toward the dead site legitimately stay non-empty).
func waitConverged(t *testing.T, e *Engine, sites []clock.SiteID, obj string, want op.Value) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, id := range sites {
			if got := e.Cluster().Site(id).Store.Get(obj); !got.Equal(want) {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			for _, id := range sites {
				t.Logf("site %v: %s = %v", id, obj, e.Cluster().Site(id).Store.Get(obj))
			}
			t.Fatalf("sites %v never converged to %s = %v", sites, obj, want)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// checkUniqueSeqs restarts the site and inspects its recovered WAL
// records: no two distinct ETs may claim the same sequence number.
// Heartbeats (floorSeq sentinel) occupy no sequence slot and are
// excluded.
func checkUniqueSeqs(t *testing.T, e *Engine, id clock.SiteID) {
	t.Helper()
	if err := e.CrashSite(id); err != nil {
		t.Fatalf("CrashSite(%v): %v", id, err)
	}
	err := e.Cluster().RestartSite(id, func(_ *replica.Site, records []et.MSet) error {
		type shardSeq struct {
			shard int
			seq   uint64
		}
		bySeq := make(map[shardSeq]et.ID, len(records))
		for _, m := range records {
			if m.Seq == floorSeq {
				continue
			}
			key := shardSeq{m.Shard, m.Seq}
			if prev, ok := bySeq[key]; ok && prev != m.ET {
				return fmt.Errorf("site %v applied two ETs at shard %d seq %d: %v and %v",
					id, m.Shard, m.Seq, prev, m.ET)
			}
			bySeq[key] = m.ET
		}
		recoverSiteStates(e.states[id], records)
		return nil
	})
	if err != nil {
		t.Fatalf("RestartSite(%v): %v", id, err)
	}
}

// wipeSiteState deletes the site's write-ahead log and inbound journal
// while it is crashed, simulating durable-state loss past the
// redelivery horizon.
func wipeSiteState(t *testing.T, e *Engine, id clock.SiteID) {
	t.Helper()
	dir := e.Cluster().Config().Dir
	for _, name := range []string{
		fmt.Sprintf("site-%d.wal", id),
		fmt.Sprintf("in-%d.journal", id),
	} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatalf("wipe %s: %v", name, err)
		}
	}
}

// TestSeqRepLeaderCrashMidBurst kills the site co-hosting the sequencer
// leader while other sites are mid-burst.  The ensemble must elect a
// new leader, every surviving burst must land exactly once, and no
// sequence number may ever be issued twice.
func TestSeqRepLeaderCrashMidBurst(t *testing.T) {
	e := newSeqRepEngine(t, 3)
	// Seed one update from every site so each origin has advertised a
	// floor before the fault.
	for s := clock.SiteID(1); s <= 3; s++ {
		if _, err := e.Update(s, []op.Op{op.IncOp("x", 1)}); err != nil {
			t.Fatalf("seed update from %v: %v", s, err)
		}
	}
	const perWorker = 20
	var wg sync.WaitGroup
	for _, origin := range []clock.SiteID{2, 3} {
		wg.Add(1)
		go func(origin clock.SiteID) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, err := e.UpdateBurst(origin, [][]op.Op{
					{op.IncOp("x", 1)},
					{op.IncOp("x", 1)},
				})
				if err != nil {
					t.Errorf("UpdateBurst from %v: %v", origin, err)
					return
				}
			}
		}(origin)
	}
	// Let the workers engage the leader, then kill the site hosting
	// replica 1 — the ensemble member that campaigns first and is
	// therefore the incumbent leader.
	time.Sleep(2 * time.Millisecond)
	if err := e.CrashSite(1); err != nil {
		t.Fatalf("CrashSite(1): %v", err)
	}
	wg.Wait()
	if err := e.RestartSite(1); err != nil {
		t.Fatalf("RestartSite(1): %v", err)
	}
	quiesce(t, e)
	want := op.NumValue(3 + 2*perWorker*2)
	waitConverged(t, e, e.Cluster().SiteIDs(), "x", want)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Errorf("stores diverge on %q", obj)
	}
	for _, id := range e.Cluster().SiteIDs() {
		checkUniqueSeqs(t, e, id)
	}
	quiesce(t, e)
}

// TestFloorsSkipOrphanedRange covers the documented permitted gap: a
// reserved-but-never-broadcast run.  Once every origin's advertised
// floor passes the orphaned numbers, sites skip them without any
// restart.  Origins 1 and 3 stay idle after their updates, so the
// floors that close the gap can only come from the stall-triggered
// watermark heartbeats.
func TestFloorsSkipOrphanedRange(t *testing.T) {
	e := newSeqRepEngine(t, 3)
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	quiesce(t, e)
	// Orphan sequence numbers 2..4: reserved straight from the cluster,
	// never attached to an MSet — the in-process stand-in for a client
	// that dies between reservation and broadcast.
	if _, err := e.Cluster().NextSeqN(2, 3); err != nil {
		t.Fatalf("NextSeqN: %v", err)
	}
	// This update lands at sequence 5; every site must hold it until
	// floor evidence retires 2..4.
	if _, err := e.Update(3, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	waitConverged(t, e, e.Cluster().SiteIDs(), "x", op.NumValue(2))
	quiesce(t, e)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Errorf("stores diverge on %q", obj)
	}
}

// TestRestartResolvesAbandonedReservation crashes an origin between
// reserving a run and broadcasting it.  While the origin is down, its
// stale floor must keep every site from skipping the run (the origin
// might still own durable MSets with those numbers); after restart, the
// reservation-intent journal retires the run with gap MSets and the
// cluster drains.
func TestRestartResolvesAbandonedReservation(t *testing.T) {
	e := newSeqRepEngine(t, 3)
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	quiesce(t, e)
	if _, err := e.Cluster().NextSeqN(1, 3); err != nil {
		t.Fatalf("NextSeqN: %v", err)
	}
	if err := e.CrashSite(1); err != nil {
		t.Fatalf("CrashSite: %v", err)
	}
	// Sequence 5, from a surviving origin.  Sites 2 and 3 must hold it:
	// origin 1's floor is stuck at 1, and skipping 2..4 while the owner
	// could still re-broadcast them would diverge from the owner.
	if _, err := e.Update(2, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("Update from 2: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	for _, id := range []clock.SiteID{2, 3} {
		if got := e.Cluster().Site(id).Store.Get("x"); !got.Equal(op.NumValue(1)) {
			t.Errorf("site %v applied past the unresolved run: x = %v", id, got)
		}
	}
	if err := e.RestartSite(1); err != nil {
		t.Fatalf("RestartSite: %v", err)
	}
	quiesce(t, e)
	waitConverged(t, e, e.Cluster().SiteIDs(), "x", op.NumValue(2))
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Errorf("stores diverge on %q", obj)
	}
}

// TestSnapshotCodec round-trips a catch-up snapshot blob and requires
// every truncation of it to fail to decode.
func TestSnapshotCodec(t *testing.T) {
	nexts := []uint64{1, 300, 1 << 40}
	ops := []op.Op{op.WriteOp("x", 7), op.AppendOp("log", "a")}
	blob, err := encodeSnapshot(nexts, ops)
	if err != nil {
		t.Fatal(err)
	}
	gotNexts, gotOps, err := decodeSnapshot(blob)
	if err != nil || !reflect.DeepEqual(gotNexts, nexts) || !reflect.DeepEqual(gotOps, ops) {
		t.Fatalf("decodeSnapshot = %v, %v, %v; want %v, %v", gotNexts, gotOps, err, nexts, ops)
	}
	for i := range blob {
		if _, _, err := decodeSnapshot(blob[:i]); err == nil {
			t.Errorf("snapshot truncated to %d of %d bytes decoded", i, len(blob))
		}
	}
}

// TestCatchUpAfterWipe wipes a crashed site's write-ahead log and
// inbound journal — a stand-in for a site compacted or lost past the
// redelivery horizon — and verifies a snapshot transfer restores it,
// durably enough to survive a second crash without another transfer.
func TestCatchUpAfterWipe(t *testing.T) {
	e := newSeqRepEngine(t, 3)
	for i := 0; i < 5; i++ {
		if _, err := e.Update(1, []op.Op{op.IncOp("x", 1), op.AppendOp("log", fmt.Sprintf("e%d", i))}); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	quiesce(t, e)
	if err := e.CrashSite(2); err != nil {
		t.Fatalf("CrashSite: %v", err)
	}
	wipeSiteState(t, e, 2)
	// More updates while the site is gone: these stay queued on the
	// outbound links and replay after restart, landing above the
	// snapshot's watermark.
	for i := 0; i < 3; i++ {
		if _, err := e.Update(3, []op.Op{op.IncOp("x", 1)}); err != nil {
			t.Fatalf("Update from 3: %v", err)
		}
	}
	if err := e.RestartSite(2); err != nil {
		t.Fatalf("RestartSite: %v", err)
	}
	if err := e.CatchUpFrom(2, 1); err != nil {
		t.Fatalf("CatchUpFrom: %v", err)
	}
	quiesce(t, e)
	want := op.NumValue(8)
	waitConverged(t, e, e.Cluster().SiteIDs(), "x", want)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Errorf("stores diverge on %q", obj)
	}
	// The transferred state must be crash-durable at the receiver: a
	// second crash/restart cycle recovers from the local WAL alone.
	if err := e.CrashSite(2); err != nil {
		t.Fatalf("second CrashSite: %v", err)
	}
	if err := e.RestartSite(2); err != nil {
		t.Fatalf("second RestartSite: %v", err)
	}
	quiesce(t, e)
	if got := e.Cluster().Site(2).Store.Get("x"); !got.Equal(want) {
		t.Errorf("after second restart x = %v, want %v", got, want)
	}
	if got := e.Cluster().Site(2).Store.Get("log"); !got.Equal(e.Cluster().Site(1).Store.Get("log")) {
		t.Errorf("after second restart log = %v, want %v", got, e.Cluster().Site(1).Store.Get("log"))
	}
}
