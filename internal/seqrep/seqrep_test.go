package seqrep

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/network"
)

// fastConfig returns tight protocol timing so tests elect in tens of
// milliseconds.
func fastConfig(id clock.SiteID, n int, t network.Transport, dir string) Config {
	return Config{
		ID: id, Replicas: n, Transport: t, Dir: dir,
		ElectionTimeout: 20 * time.Millisecond,
		CommitTimeout:   time.Second,
	}
}

// startEnsemble builds n replicas over one simulated transport.
func startEnsemble(t *testing.T, n int, dir string) (*network.Sim, []*Replica) {
	t.Helper()
	tn, err := network.New(network.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	for i := 1; i <= n; i++ {
		r, err := New(fastConfig(clock.SiteID(i), n, tn, dir))
		if err != nil {
			t.Fatal(err)
		}
		reps[i-1] = r
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return tn, reps
}

// waitLeader blocks until exactly one live replica leads, returning it.
func waitLeader(t *testing.T, reps []*Replica) *Replica {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var leaders []*Replica
		for _, r := range reps {
			if r != nil && r.IsLeader() {
				leaders = append(leaders, r)
			}
		}
		if len(leaders) == 1 {
			return leaders[0]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no single leader elected within deadline")
	return nil
}

func TestElectsSingleLeader(t *testing.T) {
	_, reps := startEnsemble(t, 3, "")
	ld := waitLeader(t, reps)
	if ld.ID() != 1 {
		t.Errorf("initial leader = %v, want the staggered replica 1", ld.ID())
	}
}

// checkDisjoint fails the test if any two runs overlap.
func checkDisjoint(t *testing.T, runs map[uint64]uint64) {
	t.Helper()
	type run struct{ start, end uint64 }
	var all []run
	for s, e := range runs {
		all = append(all, run{s, e})
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.start <= b.end && b.start <= a.end {
				t.Fatalf("overlapping runs [%d,%d] and [%d,%d]", a.start, a.end, b.start, b.end)
			}
		}
	}
}

func TestConcurrentReservationsDisjoint(t *testing.T) {
	tn, reps := startEnsemble(t, 3, "")
	waitLeader(t, reps)
	cl := NewClient(tn, 3, 0)
	var mu sync.Mutex
	runs := make(map[uint64]uint64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n := uint64(1 + (g+i)%5)
				start, err := cl.Reserve(clock.SiteID(1+g%3), n)
				if err != nil {
					t.Errorf("reserve: %v", err)
					return
				}
				mu.Lock()
				runs[start] = start + n - 1
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	checkDisjoint(t, runs)
}

// TestFailoverNeverOverlaps is the in-process chaos core: reservations
// flow while the current leader's virtual site is repeatedly crashed
// and restarted via Transport.Crash.  No run handed to any client may
// ever overlap another, across every failover.
func TestFailoverNeverOverlaps(t *testing.T) {
	tn, reps := startEnsemble(t, 3, "")
	waitLeader(t, reps)
	cl := NewClient(tn, 3, 0)

	var mu sync.Mutex
	runs := make(map[uint64]uint64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start, err := cl.Reserve(clock.SiteID(1+g%3), 3)
				if err != nil {
					// ErrNoLeader can only happen if elections take
					// longer than the client deadline; with a majority
					// alive it should not.
					t.Errorf("reserve during failover: %v", err)
					return
				}
				mu.Lock()
				runs[start] = start + 2
				mu.Unlock()
			}
		}(g)
	}
	for round := 0; round < 4; round++ {
		ld := waitLeader(t, reps)
		tn.Crash(ReplicaSite(ld.ID()))
		// Let the survivors elect and serve for a while.
		time.Sleep(80 * time.Millisecond)
		tn.Restart(ReplicaSite(ld.ID()))
		time.Sleep(40 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if len(runs) == 0 {
		t.Fatal("no reservations completed")
	}
	checkDisjoint(t, runs)
}

// TestPersistenceSurvivesRestart stops the whole ensemble and rebuilds
// it from its state files; the new leader must resume past every run
// that was ever acknowledged.
func TestPersistenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	tn, reps := startEnsemble(t, 3, dir)
	waitLeader(t, reps)
	cl := NewClient(tn, 3, 0)
	var highest uint64
	for i := 0; i < 10; i++ {
		start, err := cl.Reserve(1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if end := start + 4; end > highest {
			highest = end
		}
	}
	for _, r := range reps {
		r.Stop()
	}
	// Rebuild on the same transport and state directory.
	reps2 := make([]*Replica, 3)
	for i := 1; i <= 3; i++ {
		r, err := New(fastConfig(clock.SiteID(i), 3, tn, dir))
		if err != nil {
			t.Fatal(err)
		}
		reps2[i-1] = r
	}
	defer func() {
		for _, r := range reps2 {
			r.Stop()
		}
	}()
	waitLeader(t, reps2)
	start, err := cl.Reserve(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if start <= highest {
		t.Fatalf("post-restart reserve start %d overlaps acknowledged watermark %d", start, highest)
	}
}

// TestMinorityCannotServe partitions the leader away with no majority;
// reservations against it must fail over to the majority side.
func TestMinorityCannotServe(t *testing.T) {
	tn, reps := startEnsemble(t, 3, "")
	ld := waitLeader(t, reps)
	// Isolate the leader (virtual site) alone; the other two replicas
	// plus all real sites stay in the majority group.
	tn.Partition([]clock.SiteID{ReplicaSite(ld.ID())})
	defer tn.Heal()
	cl := NewClient(tn, 3, 0)
	start, err := cl.Reserve(2, 4)
	if err != nil {
		t.Fatalf("majority side should elect and serve: %v", err)
	}
	if start == 0 {
		t.Fatal("zero start")
	}
	// The deposed leader must not still think it leads after its
	// appends fail and a higher term reaches it on heal.
	tn.Heal()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, r := range reps {
			if r.IsLeader() {
				n++
			}
		}
		if n == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("ensemble did not reconverge on one leader after heal")
}

func TestClientPermanentErrorNotRetried(t *testing.T) {
	tn, reps := startEnsemble(t, 3, "")
	waitLeader(t, reps)
	// A handler decode failure comes back as a permanent protocol error
	// through Sim (handler error), which the client must not spin on.
	tn.Register(ReplicaSite(2), func(from clock.SiteID, payload []byte) ([]byte, error) {
		return nil, errors.New("corrupt")
	})
	cl := NewClient(tn, 3, time.Second)
	cl.hint.Store(2) // force first attempt at the broken replica
	t0 := time.Now()
	_, err := cl.Reserve(1, 1)
	// Sim surfaces handler errors directly (permanent); the call must
	// return quickly either way — success via another replica would
	// also be acceptable if the transport retried, but no deadline-long
	// spin.
	if err == nil {
		t.Skip("transport retried around the broken replica")
	}
	if time.Since(t0) > 500*time.Millisecond {
		t.Fatalf("permanent error took %v (retried past deadline?): %v", time.Since(t0), err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	msgs := []message{
		{Kind: kindVoteReq, Term: 3, From: 2, Watermark: 41},
		{Kind: kindVoteResp, Term: 3, From: 1, Watermark: 99, Flags: flagOK},
		{Kind: kindAppend, Term: 7, From: 1, Watermark: 1 << 40},
		{Kind: kindReserve, From: 12, Count: 64},
		{Kind: kindReserveResp, Term: 9, From: 3, Watermark: 4242, Flags: flagNotLeader},
	}
	for _, m := range msgs {
		got, err := decode(m.encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
	if _, err := decode([]byte("short")); err == nil {
		t.Fatal("short frame decoded")
	}
	bad := message{Kind: kindReserveResp}.encode()
	bad[0] = 99
	if _, err := decode(bad); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestStateFileCompaction(t *testing.T) {
	dir := t.TempDir()
	sf, rec, err := openState(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec != (stateRec{}) {
		t.Fatalf("fresh state not zero: %+v", rec)
	}
	saveState(sf, stateRec{term: 1, votedFor: 1, watermark: 3})
	n := int(compactAt/sf.Size()) + 10 // one record's size on the log
	for i := 2; i <= n; i++ {
		saveState(sf, stateRec{term: uint64(i), votedFor: 1, watermark: uint64(i * 3)})
	}
	if sf.Size() > compactAt {
		t.Fatalf("state file size %d never compacted", sf.Size())
	}
	sf.Close()
	_, rec, err = openState(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.term != uint64(n) || rec.watermark != uint64(n*3) {
		t.Fatalf("reloaded %+v, want term %d wm %d", rec, n, n*3)
	}
}

func TestReplicaSiteRange(t *testing.T) {
	// The ensemble's virtual IDs must stay clear of real sites, the
	// legacy order server (1000) and esrnode's control range (2000+).
	for i := clock.SiteID(1); i <= 64; i++ {
		v := ReplicaSite(i)
		if v <= 1000 || v >= 2000 {
			t.Fatalf("ReplicaSite(%d) = %d collides with reserved ranges", i, v)
		}
	}
}

func ExampleClient_Reserve() {
	tn, _ := network.New(network.Config{})
	var reps []*Replica
	for i := 1; i <= 3; i++ {
		r, _ := New(Config{ID: clock.SiteID(i), Replicas: 3, Transport: tn,
			ElectionTimeout: 10 * time.Millisecond})
		reps = append(reps, r)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	cl := NewClient(tn, 3, 0)
	start, err := cl.Reserve(1, 8)
	if err != nil {
		fmt.Println("reserve failed:", err)
		return
	}
	fmt.Println(start == 1)
	// Output: true
}
