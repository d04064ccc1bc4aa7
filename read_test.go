package esr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"esr/internal/clock"
)

// readMk returns an update op suited to the method: RITU variants need
// timestamped writes (Thomas rule), the rest take commutative incs.
func readMk(m Method, obj string, n int64) Op {
	if m == RITU || m == RITUMultiVersion {
		return Write(obj, n)
	}
	return Inc(obj, n)
}

// TestReadLevelsEquivalence runs the same workload under every method
// and checks that, once delivery quiesces, all four consistency levels
// return the canonical converged value at every site — the acceptance
// criterion for the unified read path.
func TestReadLevelsEquivalence(t *testing.T) {
	for _, m := range []Method{COMMU, ORDUP, RITU, RITUMultiVersion} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			t.Parallel()
			c := open(t, Config{Replicas: 3, Method: m, Seed: 21})
			for i := 1; i <= 5; i++ {
				if _, err := c.Update(1+(i%3), readMk(m, "x", int64(i*10))); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			for site := 1; site <= 3; site++ {
				want := c.Value(site, "x")
				if m == RITUMultiVersion {
					// ritu-mv state lives only in the version chains;
					// the chain head is the converged last-writer value.
					if v, _, ok := c.Engine().Cluster().Site(clock.SiteID(site)).MV.ReadLatest("x"); ok {
						want = v.Val
					}
				}
				for _, lv := range []Level{LevelEventual, LevelSession, LevelBounded, LevelStrong} {
					res, err := c.ReadLevel(site, lv, "x")
					if err != nil {
						t.Fatalf("ReadLevel(%d, %v): %v", site, lv, err)
					}
					if got := res.Value("x"); got.Num != want.Num {
						t.Errorf("site %d level %v: x = %v, want %v", site, lv, got, want)
					}
					if res.Level != lv {
						t.Errorf("site %d: result level = %v, want %v", site, res.Level, lv)
					}
				}
			}
		})
	}
}

// TestReadStrongMatchesCanonical checks the strong level against the
// canonical store dump while updates race with reads: every strong read
// must return a value the serial order has produced (never torn, never
// ahead of what the site applied).
func TestReadStrongMatchesCanonical(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: COMMU, Seed: 22})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Update(1, Inc("acct", 1)); err != nil {
				return
			}
		}
	}()
	var last int64 = -1
	for i := 0; i < 50; i++ {
		res, err := c.ReadLevel(2, LevelStrong, "acct")
		if err != nil {
			t.Fatalf("strong read: %v", err)
		}
		got := res.Value("acct").Num
		if got < last {
			t.Fatalf("strong reads went backwards at one site: %d after %d", got, last)
		}
		last = got
	}
	close(stop)
	wg.Wait()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := c.Value(2, "acct")
	res, err := c.ReadLevel(2, LevelStrong, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value("acct"); got.Num != want.Num {
		t.Errorf("strong read after quiescence = %v, want canonical %v", got, want)
	}
}

// TestReadBoundedStaleness checks the bounded level's contract: the
// result's observed staleness never exceeds the configured Δt, and the
// snapshot value is a real committed state.
func TestReadBoundedStaleness(t *testing.T) {
	const dt = 250 * time.Millisecond
	c := open(t, Config{Replicas: 3, Method: COMMU, Seed: 23, MaxStaleness: dt})
	for i := 0; i < 10; i++ {
		if _, err := c.Update(1, Inc("x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		res, err := c.ReadWith(2, []string{"x"}, ReadOptions{Level: LevelBounded, Epsilon: Unlimited, MaxStaleness: dt})
		if err != nil {
			t.Fatalf("bounded read: %v", err)
		}
		if res.Staleness > dt {
			t.Errorf("bounded read staleness %v exceeds Δt %v", res.Staleness, dt)
		}
		if got := res.Value("x").Num; got < 0 || got > 10 {
			t.Errorf("bounded read saw impossible value %d", got)
		}
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(2, "x") // Config default is eventual unless set
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value("x").Num; got != 10 {
		t.Errorf("post-quiesce read = %d, want 10", got)
	}
}

// TestReadDefaultLevelFromConfig checks that Config.Consistency selects
// the level Cluster.Read serves, and that an unknown spelling fails
// Open.
func TestReadDefaultLevelFromConfig(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 24, Consistency: "bounded-staleness"})
	if _, err := c.Update(1, Inc("x", 7)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != LevelBounded {
		t.Errorf("default-level read served %v, want %v", res.Level, LevelBounded)
	}
	if _, err := Open(Config{Replicas: 2, Method: COMMU, Consistency: "read-committed"}); err == nil {
		t.Errorf("unknown consistency level must fail Open")
	}
}

// TestReadSessionLevel checks read-your-writes through the session
// facade: a session write is visible to the session's own reads at
// every site, immediately after Update returns.
func TestReadSessionLevel(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: COMMU, Seed: 25})
	s, err := c.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := s.Update(1, Inc("y", int64(i))); err != nil {
			t.Fatal(err)
		}
		want := int64(i * (i + 1) / 2)
		for site := 1; site <= 3; site++ {
			res, err := s.Read(site, "y")
			if err != nil {
				t.Fatalf("session read at %d: %v", site, err)
			}
			if got := res.Value("y").Num; got != want {
				t.Errorf("session read at %d after write %d = %d, want %d", site, i, got, want)
			}
			if res.Level != LevelSession {
				t.Errorf("session read level = %v", res.Level)
			}
		}
	}
}

// TestReadSnapshotSurvivesGC checks the pin contract end to end at the
// facade: version GC with the full history prunable still leaves every
// level returning the canonical value, and a pinned long-running reader
// is never pruned from under (the MVStore-level test covers the race;
// this covers the GCVersions horizon wiring).
func TestReadSnapshotSurvivesGC(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: RITUMultiVersion, Seed: 26})
	for i := 1; i <= 8; i++ {
		if _, err := c.Update(1, Write("z", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	collected := c.GCVersions()
	if collected == 0 {
		t.Errorf("GCVersions collected nothing after 8 writes at 3 sites")
	}
	for _, lv := range []Level{LevelEventual, LevelSession, LevelBounded, LevelStrong} {
		res, err := c.ReadLevel(2, lv, "z")
		if err != nil {
			t.Fatalf("ReadLevel(%v) after GC: %v", lv, err)
		}
		if got := res.Value("z").Num; got != 8 {
			t.Errorf("level %v after GC: z = %d, want 8", lv, got)
		}
	}
}

// TestReadWatermarks sanity-checks the facade watermark accessors: after
// quiescence SAFETIME and the applied watermark agree and are non-zero,
// and staleness reads zero.
func TestReadWatermarks(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 27})
	if _, err := c.Update(1, Inc("w", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for site := 1; site <= 2; site++ {
		st, wm := c.SafeTime(site), c.Watermark(site)
		if wm.IsZero() {
			t.Errorf("site %d watermark zero after update", site)
		}
		if st.Less(wm) {
			t.Errorf("site %d SAFETIME %v below watermark %v at quiescence", site, st, wm)
		}
		if d := c.Staleness(site); d != 0 {
			t.Errorf("site %d staleness %v at quiescence, want 0", site, d)
		}
	}
	if st := c.SafeTime(99); !st.IsZero() {
		t.Errorf("unknown site SafeTime = %v", st)
	}
}

// TestSessionReadAcrossFailover is the read-your-writes failover check:
// a session keeps its guarantee when the site it wrote through crashes
// and restarts, and when it reads at a replica that was down while the
// write committed.
func TestSessionReadAcrossFailover(t *testing.T) {
	for _, m := range []Method{COMMU, ORDUP} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			t.Parallel()
			c := open(t, Config{Replicas: 3, Method: m, Seed: 28, JournalDir: t.TempDir()})
			s, err := c.NewSession()
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			if _, err := s.Update(1, Inc("bal", 100)); err != nil {
				t.Fatal(err)
			}
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			// Crash a replica, commit a session write while it is down,
			// then restart: the session's next read at the recovered site
			// must still see its own write.
			if err := c.CrashSite(3); err != nil {
				t.Fatalf("CrashSite: %v", err)
			}
			if _, err := s.Update(1, Inc("bal", 23)); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartSite(3); err != nil {
				t.Fatalf("RestartSite: %v", err)
			}
			res, err := s.Read(3, "bal")
			if err != nil {
				t.Fatalf("session read at recovered site: %v", err)
			}
			if got := res.Value("bal").Num; got != 123 {
				t.Errorf("read-your-writes after failover = %d, want 123", got)
			}
			// Crash and restart the origin itself; the session keeps
			// working through it.
			if err := c.CrashSite(1); err != nil {
				t.Fatalf("CrashSite origin: %v", err)
			}
			if err := c.RestartSite(1); err != nil {
				t.Fatalf("RestartSite origin: %v", err)
			}
			if _, err := s.Update(2, Inc("bal", 1)); err != nil {
				t.Fatal(err)
			}
			res, err = s.Read(1, "bal")
			if err != nil {
				t.Fatalf("session read at restarted origin: %v", err)
			}
			if got := res.Value("bal").Num; got != 124 {
				t.Errorf("read at restarted origin = %d, want 124", got)
			}
		})
	}
}

// TestReadManyObjectsAllLevels fuzzes the read path with a wider
// keyspace so snapshot reads cover objects with and without version
// chains (coherency fallback path).
func TestReadManyObjectsAllLevels(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 29})
	objs := make([]string, 6)
	for i := range objs {
		objs[i] = fmt.Sprintf("k%d", i)
		if _, err := c.Update(1, Inc(objs[i], int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, lv := range []Level{LevelEventual, LevelSession, LevelBounded, LevelStrong} {
		res, err := c.ReadLevel(2, lv, objs...)
		if err != nil {
			t.Fatalf("ReadLevel(%v): %v", lv, err)
		}
		for i, obj := range objs {
			if got := res.Value(obj).Num; got != int64(i+1) {
				t.Errorf("level %v: %s = %d, want %d", lv, obj, got, i+1)
			}
		}
	}
}
