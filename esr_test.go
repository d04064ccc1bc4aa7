package esr

import (
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func open(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Replicas: 2}); err == nil {
		t.Errorf("missing method must fail")
	}
	if _, err := Open(Config{Replicas: 0, Method: COMMU}); err == nil {
		t.Errorf("zero replicas must fail")
	}
	if _, err := Open(Config{Replicas: 2, Method: "nope"}); err == nil {
		t.Errorf("unknown method must fail")
	}
}

func TestQuickstartFlow(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: COMMU, Seed: 1})
	if got := c.Method(); got != COMMU {
		t.Errorf("Method() = %v", got)
	}
	if got := c.Sites(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Sites() = %v", got)
	}
	if _, err := c.Update(1, Inc("balance", 100)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	res, err := c.Query(2, []string{"balance"}, Epsilon(0))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Value("balance").Num != 100 {
		t.Errorf("balance = %v", res.Value("balance"))
	}
	if ok, obj := c.Converged(); !ok {
		t.Errorf("diverged on %q", obj)
	}
	if got := c.Value(3, "balance"); got.Num != 100 {
		t.Errorf("Value(3) = %v", got)
	}
	if got := c.Value(99, "balance"); got.Num != 0 {
		t.Errorf("Value(unknown site) = %v, want zero", got)
	}
}

func TestEveryMethodOpens(t *testing.T) {
	for _, m := range []Method{ORDUP, ORDUPLamport, COMMU, RITU, RITUMultiVersion, COMPE, COMPEGeneral, TwoPC, Quorum} {
		c := open(t, Config{Replicas: 2, Method: m, Seed: 1})
		var o Op
		switch m {
		case RITU, RITUMultiVersion:
			o = Write("x", 5)
		default:
			o = Inc("x", 5)
		}
		if _, err := c.Update(1, o); err != nil {
			t.Errorf("%v: Update: %v", m, err)
		}
		if err := c.Quiesce(5 * time.Second); err != nil {
			t.Errorf("%v: Quiesce: %v", m, err)
		}
	}
}

func TestSagaInterface(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMPE, Seed: 1})
	id, err := c.Begin(1, Inc("x", 10))
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	id2, err := c.Begin(1, Inc("x", 5))
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := c.Commit(id); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := c.Abort(id2); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if got := c.Value(2, "x"); got.Num != 10 {
		t.Errorf("x = %v, want 10", got)
	}
}

func TestSagaRequiresCOMPE(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 1})
	if _, err := c.Begin(1, Inc("x", 1)); !errors.Is(err, ErrNotCompensating) {
		t.Errorf("Begin on COMMU = %v", err)
	}
	if err := c.Commit(1); !errors.Is(err, ErrNotCompensating) {
		t.Errorf("Commit on COMMU = %v", err)
	}
	if err := c.Abort(1); !errors.Is(err, ErrNotCompensating) {
		t.Errorf("Abort on COMMU = %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: COMMU, Seed: 2})
	c.Partition([]int{1, 2}, []int{3})
	if _, err := c.Update(1, Inc("x", 1)); err != nil {
		t.Fatalf("Update during partition: %v", err)
	}
	if err := c.Quiesce(50 * time.Millisecond); err == nil {
		t.Errorf("Quiesce during partition should time out")
	}
	c.Heal()
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after heal: %v", err)
	}
	if got := c.Value(3, "x"); got.Num != 1 {
		t.Errorf("isolated site after heal: %v", got)
	}
}

// TestRITUMultiVersionValueAndConverged checks that a multi-version
// RITU site's value is its chain head and that Converged sees a site
// missing a write: both read the one store every method writes.
func TestRITUMultiVersionValueAndConverged(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: RITUMultiVersion, Seed: 2})
	if _, err := c.Update(1, Write("x", 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for site := 1; site <= 3; site++ {
		if got := c.Value(site, "x"); got.Num != 5 {
			t.Errorf("site %d x = %v after quiescence, want 5", site, got)
		}
	}
	c.Partition([]int{1, 2}, []int{3})
	if _, err := c.Update(1, Write("x", 7)); err != nil {
		t.Fatalf("Update during partition: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if res, err := c.ReadLevel(2, LevelEventual, "x"); err == nil && res.Value("x").Num == 7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Value(2, "x"); got.Num != 7 {
		t.Errorf("site 2 x = %v once the write landed, want 7", got)
	}
	if ok, _ := c.Converged(); ok {
		t.Errorf("Converged() = true while site 3 is partitioned and missing a write")
	}
	c.Heal()
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce after heal: %v", err)
	}
	if got := c.Value(3, "x"); got.Num != 7 {
		t.Errorf("site 3 x = %v after heal, want 7", got)
	}
	if ok, obj := c.Converged(); !ok {
		t.Errorf("diverged on %q after heal", obj)
	}
}

func TestEpsilonBoundsRespected(t *testing.T) {
	c := open(t, Config{
		Replicas: 3, Method: ORDUP, Seed: 3,
		MinLatency: 100 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			c.Update(1, Inc("a", 1), Inc("b", 1))
		}
	}()
	for i := 0; i < 30; i++ {
		res, err := c.Query(2, []string{"a", "b"}, Epsilon(2))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if res.Inconsistency > 2 {
			t.Fatalf("inconsistency %d > ε=2", res.Inconsistency)
		}
	}
	<-done
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
}

func TestJournalBackedQueues(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "queues")
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 4, JournalDir: dir})
	if _, err := c.Update(1, Inc("x", 9)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if got := c.Value(2, "x"); got.Num != 9 {
		t.Errorf("x = %v", got)
	}
	// The journals must exist on disk.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
	if len(matches) == 0 {
		t.Errorf("no journal files created under %s", dir)
	}
}

func TestLossyNetworkStillConverges(t *testing.T) {
	c := open(t, Config{
		Replicas: 3, Method: COMMU, Seed: 5,
		MinLatency: 10 * time.Microsecond, MaxLatency: 100 * time.Microsecond,
		LossRate: 0.3,
	})
	for i := 0; i < 20; i++ {
		if _, err := c.Update(i%3+1, Inc("x", 1)); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	for _, s := range c.Sites() {
		if got := c.Value(s, "x"); got.Num != 20 {
			t.Errorf("site %d: x = %v, want 20 despite 30%% loss", s, got)
		}
	}
}

func TestQuerySpecPerObjectBudgets(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 9})
	c.Partition([]int{1}, []int{2})
	// Strand one update per object in transit to site 2.
	if _, err := c.Update(1, Inc("critical", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(1, Inc("loose", 1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	res, err := c.QuerySpec(2, []string{"critical", "loose"}, Spec{
		Default:   Unlimited,
		PerObject: map[string]Limit{"critical": 0},
	})
	if err != nil {
		t.Fatalf("QuerySpec: %v", err)
	}
	// loose pays 1 unit; critical takes the conservative path at 0.
	if res.Inconsistency != 1 {
		t.Errorf("Inconsistency = %d, want 1", res.Inconsistency)
	}
	c.Heal()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySpecUnsupported(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: RITU, Seed: 1})
	if _, err := c.QuerySpec(1, []string{"x"}, Spec{}); !errors.Is(err, ErrSpecUnsupported) {
		t.Errorf("QuerySpec on RITU = %v", err)
	}
}

func TestQueryNumericFacade(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 10})
	if _, err := c.Update(1, Inc("x", 50)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryNumeric(2, []string{"x"}, 100)
	if err != nil {
		t.Fatalf("QueryNumeric: %v", err)
	}
	if res.Values["x"].Num != 50 || res.Drift != 0 {
		t.Errorf("numeric query = %+v", res)
	}
	c2 := open(t, Config{Replicas: 2, Method: ORDUP, Seed: 1})
	if _, err := c2.QueryNumeric(1, []string{"x"}, 1); !errors.Is(err, ErrNumericUnsupported) {
		t.Errorf("QueryNumeric on ORDUP = %v", err)
	}
}

func TestSiteCrashRecovery(t *testing.T) {
	for _, m := range []Method{COMMU, ORDUP, RITU, RITUMultiVersion} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			t.Parallel()
			c := open(t, Config{Replicas: 3, Method: m, Seed: 11, JournalDir: t.TempDir()})
			mk := func(n int64) Op {
				if m == RITU || m == RITUMultiVersion {
					return Write("x", n)
				}
				return Inc("x", n)
			}
			if _, err := c.Update(1, mk(10)); err != nil {
				t.Fatal(err)
			}
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.CrashSite(3); err != nil {
				t.Fatalf("CrashSite: %v", err)
			}
			// Updates keep committing while the site is down; they queue
			// durably toward it.
			if _, err := c.Update(1, mk(20)); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartSite(3); err != nil {
				t.Fatalf("RestartSite: %v", err)
			}
			if err := c.Quiesce(30 * time.Second); err != nil {
				t.Fatalf("Quiesce after restart: %v", err)
			}
			want := int64(30)
			if m == RITU || m == RITUMultiVersion {
				want = 20 // last write wins
			}
			if got := c.Value(3, "x"); got.Num != want {
				t.Errorf("site 3 x = %v after recovery, want %d", got, want)
			}
			if ok, obj := c.Converged(); !ok {
				t.Errorf("diverged on %q", obj)
			}
			if m == RITUMultiVersion {
				if got := len(c.Engine().Cluster().Site(3).Store.Versions("x")); got != 2 {
					t.Errorf("site 3 has %d versions after recovery, want 2", got)
				}
			}
		})
	}
}

func TestCrashUnsupportedMethods(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMPE, Seed: 1, JournalDir: t.TempDir()})
	if err := c.CrashSite(1); !errors.Is(err, ErrRestartUnsupported) {
		t.Errorf("CrashSite on COMPE = %v", err)
	}
	if err := c.RestartSite(1); !errors.Is(err, ErrRestartUnsupported) {
		t.Errorf("RestartSite on COMPE = %v", err)
	}
}

func TestTracing(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: COMMU, Seed: 12, TraceCapacity: 256})
	if _, err := c.Update(1, Inc("x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Query(2, []string{"x"}, Epsilon(0))
	events := c.Trace()
	if len(events) == 0 {
		t.Fatalf("no trace events recorded")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[string(e.Kind)] = true
	}
	for _, want := range []string{"commit", "enqueue", "receive", "apply"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events: have %v", want, kinds)
		}
	}
	var sb strings.Builder
	c.DumpTrace(&sb)
	if !strings.Contains(sb.String(), "commit") {
		t.Errorf("DumpTrace output: %s", sb.String())
	}
	// Tracing disabled: empty results, no panics.
	c2 := open(t, Config{Replicas: 2, Method: COMMU, Seed: 13})
	c2.Update(1, Inc("x", 1))
	if got := c2.Trace(); len(got) != 0 {
		t.Errorf("untraced cluster returned %d events", len(got))
	}
}

func TestSessionFacade(t *testing.T) {
	c := open(t, Config{
		Replicas: 3, Method: COMMU, Seed: 14,
		MinLatency: 2 * time.Millisecond, MaxLatency: 6 * time.Millisecond,
	})
	s, err := c.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Update(1, Inc("x", 9)); err != nil {
		t.Fatalf("session Update: %v", err)
	}
	res, err := s.Query(3, []string{"x"}, Unlimited)
	if err != nil {
		t.Fatalf("session Query: %v", err)
	}
	if res.Value("x").Num != 9 {
		t.Errorf("session read %v before its own write", res.Value("x"))
	}
	// Unsupported engine.
	c2 := open(t, Config{Replicas: 2, Method: TwoPC, Seed: 1})
	if _, err := c2.NewSession(); err == nil {
		t.Errorf("NewSession on 2PC should fail")
	}
}

func TestQueryAtFacade(t *testing.T) {
	c := open(t, Config{Replicas: 2, Method: RITUMultiVersion, Seed: 15})
	if _, err := c.Update(1, Write("doc", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	vs := c.Engine().Cluster().Site(2).Store.Versions("doc")
	firstTS := vs[0].TS
	if _, err := c.Update(1, Write("doc", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryAt(2, []string{"doc"}, firstTS)
	if err != nil {
		t.Fatalf("QueryAt: %v", err)
	}
	if res.Value("doc").Num != 1 {
		t.Errorf("historical read = %v, want 1", res.Value("doc"))
	}
	c2 := open(t, Config{Replicas: 2, Method: COMMU, Seed: 1})
	if _, err := c2.QueryAt(1, []string{"doc"}, Timestamp{}); !errors.Is(err, ErrHistoricalUnsupported) {
		t.Errorf("QueryAt on COMMU = %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	c := open(t, Config{Replicas: 3, Method: COMMU, Seed: 7,
		MetricsAddr: "127.0.0.1:0", TraceCapacity: 128})
	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr() empty with MetricsAddr configured")
	}
	if c.Metrics() == nil {
		t.Fatal("Metrics() nil with MetricsAddr configured")
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Update(1, Inc("x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(2, []string{"x"}, Epsilon(1)); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}
	text := get("/metrics")
	for _, want := range []string{
		`esr_propagation_lag_seconds_count{method="commu",shard="0",site="2"}`,
		`esr_queue_depth{method="commu",queue="in",shard="0",site="3"}`,
		`esr_epsilon_budget{method="commu",site="2"}`,
		`esr_commits_total{method="commu",site="1"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if tr := get("/trace?since=0"); !strings.Contains(tr, "commit") {
		t.Errorf("/trace missing commit events:\n%s", tr)
	}

	// No endpoint configured: accessors degrade to zero values.
	c2 := open(t, Config{Replicas: 2, Method: COMMU, Seed: 1})
	if got := c2.MetricsAddr(); got != "" {
		t.Errorf("MetricsAddr() without config = %q", got)
	}
	if c2.Metrics() != nil {
		t.Error("Metrics() without config must be nil")
	}
}
