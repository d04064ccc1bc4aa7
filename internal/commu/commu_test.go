package commu

import (
	"errors"
	"sync"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/history"
	"esr/internal/network"
	"esr/internal/op"
)

func newEngine(t *testing.T, sites int, net network.Config, counterLimit int) *Engine {
	t.Helper()
	e, err := New(Config{
		Core:            core.Config{Sites: sites, Net: net},
		CounterLimit:    counterLimit,
		ThrottleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func quiesce(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Cluster().Quiesce(10 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
}

func TestTraitsMatchPaperTable1(t *testing.T) {
	e := newEngine(t, 1, network.Config{Seed: 1}, 0)
	tr := e.Traits()
	if tr.Name != "COMMU" || tr.Restriction != "operation semantics" ||
		tr.Applicability != "Forwards" || tr.AsyncPropagation != "Query & Update" ||
		tr.SortingTime != "doesn't matter" {
		t.Errorf("Traits = %+v does not match Table 1", tr)
	}
}

func TestCommutativeUpdatesConvergeAnyOrder(t *testing.T) {
	// Concurrent increments/decrements from every site, delivered with
	// reordering latencies, must converge without any ordering protocol.
	e := newEngine(t, 4, network.Config{Seed: 11, MinLatency: 50 * time.Microsecond, MaxLatency: 2 * time.Millisecond}, 0)
	var wg sync.WaitGroup
	for site := 1; site <= 4; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var o op.Op
				if i%2 == 0 {
					o = op.IncOp("x", int64(site))
				} else {
					o = op.DecOp("x", 1)
				}
				if _, err := e.Update(clock.SiteID(site), []op.Op{o}); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
			}
		}(site)
	}
	wg.Wait()
	quiesce(t, e)
	ok, obj := e.Cluster().Converged()
	if !ok {
		t.Fatalf("replicas diverged on %q", obj)
	}
	// 25 rounds: 13 incs of `site` + 12 decs of 1 per site.
	want := int64(13*(1+2+3+4) - 12*4)
	if got := e.Cluster().Site(1).Store.Get("x"); !got.Equal(op.NumValue(want)) {
		t.Errorf("x = %v, want %d", got, want)
	}
}

func TestUnorderedAppendConverges(t *testing.T) {
	e := newEngine(t, 3, network.Config{Seed: 2, MinLatency: 10 * time.Microsecond, MaxLatency: 500 * time.Microsecond}, 0)
	var wg sync.WaitGroup
	for site := 1; site <= 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Update(clock.SiteID(site), []op.Op{op.UAppendOp("set", string(rune('a'+site*10+i)))}); err != nil {
					t.Errorf("Update: %v", err)
				}
			}
		}(site)
	}
	wg.Wait()
	quiesce(t, e)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Fatalf("diverged on %q", obj)
	}
	if got := len(e.Cluster().Site(2).Store.Get("set").List); got != 30 {
		t.Errorf("set has %d elements, want 30", got)
	}
}

func TestRejectsNonCommutativeOperations(t *testing.T) {
	e := newEngine(t, 2, network.Config{Seed: 1}, 0)
	if _, err := e.Update(1, []op.Op{op.WriteOp("x", 1)}); !errors.Is(err, ErrNotCommutative) {
		t.Errorf("Write = %v, want ErrNotCommutative", err)
	}
	if _, err := e.Update(1, []op.Op{op.AppendOp("x", "a")}); !errors.Is(err, ErrNotCommutative) {
		t.Errorf("ordered Append = %v, want ErrNotCommutative", err)
	}
	if _, err := e.Update(1, []op.Op{op.ReadOp("x")}); !errors.Is(err, ErrNotUpdate) {
		t.Errorf("read-only = %v, want ErrNotUpdate", err)
	}
}

func TestRejectsFamilyConflicts(t *testing.T) {
	e := newEngine(t, 2, network.Config{Seed: 1}, 0)
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("Inc: %v", err)
	}
	// Multiply does not commute with the established additive family.
	if _, err := e.Update(1, []op.Op{op.MulOp("x", 2)}); !errors.Is(err, ErrNotCommutative) {
		t.Errorf("Mul after Inc = %v, want ErrNotCommutative", err)
	}
	// A different object may use multiplication.
	if _, err := e.Update(1, []op.Op{op.MulOp("y", 2)}); err != nil {
		t.Errorf("Mul on fresh object = %v", err)
	}
	// A rejected mixed ET must leave no partial reservations.
	if _, err := e.Update(1, []op.Op{op.IncOp("z", 1), op.MulOp("z", 2)}); !errors.Is(err, ErrNotCommutative) {
		t.Errorf("mixed-family ET = %v, want ErrNotCommutative", err)
	}
	if _, err := e.Update(1, []op.Op{op.MulOp("z", 2)}); err != nil {
		t.Errorf("z family must remain unreserved after rejection: %v", err)
	}
	// So must a rejected burst, for the ETs before the one that failed.
	if _, err := e.UpdateBurst(1, [][]op.Op{{op.IncOp("w", 1)}, {op.IncOp("u", 1), op.MulOp("u", 2)}}); !errors.Is(err, ErrNotCommutative) {
		t.Errorf("burst with a mixed-family ET = %v, want ErrNotCommutative", err)
	}
	if _, err := e.Update(1, []op.Op{op.MulOp("w", 2)}); err != nil {
		t.Errorf("w family must remain unreserved after the burst's rejection: %v", err)
	}
}

func TestQueryBoundedByEpsilon(t *testing.T) {
	e := newEngine(t, 3, network.Config{Seed: 5, MinLatency: 50 * time.Microsecond, MaxLatency: 500 * time.Microsecond}, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Update(1, []op.Op{op.IncOp("x", 1), op.IncOp("y", 1)})
		}
	}()
	for _, eps := range []divergence.Limit{0, 1, 4} {
		for i := 0; i < 25; i++ {
			res, err := e.Query(3, []string{"x", "y"}, eps)
			if err != nil {
				t.Fatalf("Query(ε=%v): %v", eps, err)
			}
			if !eps.Allows(res.Inconsistency) {
				t.Fatalf("imported %d units under ε=%v", res.Inconsistency, eps)
			}
			if eps == 0 {
				x, y := res.Value("x").Num, res.Value("y").Num
				if x != y {
					t.Fatalf("ε=0 query saw torn state x=%d y=%d", x, y)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	quiesce(t, e)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Errorf("diverged on %q", obj)
	}
}

func TestCounterLimitThrottlesUpdates(t *testing.T) {
	// With a very slow link, a low counter limit must make later updates
	// wait for earlier ones to drain.
	e := newEngine(t, 2, network.Config{Seed: 1, MinLatency: 5 * time.Millisecond, MaxLatency: 10 * time.Millisecond}, 2)
	start := time.Now()
	for i := 0; i < 6; i++ {
		if _, err := e.Update(1, []op.Op{op.IncOp("hot", 1)}); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// Six updates through a limit-2 window over a ≥5ms link must take at
	// least two extra link delays.
	if elapsed < 10*time.Millisecond {
		t.Errorf("updates completed in %v; throttling appears inactive", elapsed)
	}
	quiesce(t, e)
	if got := e.Cluster().Site(2).Store.Get("hot"); !got.Equal(op.NumValue(6)) {
		t.Errorf("hot = %v, want 6", got)
	}
}

func TestThrottleTimeout(t *testing.T) {
	e, err := New(Config{
		Core:            core.Config{Sites: 2, Net: network.Config{Seed: 1}},
		CounterLimit:    1,
		ThrottleTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	// Partition the peer so its queue never drains, pinning the
	// lock-counter at 1.
	e.Cluster().Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("first update: %v", err)
	}
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); !errors.Is(err, ErrThrottled) {
		t.Errorf("second update = %v, want ErrThrottled", err)
	}
	e.Cluster().Net.Heal()
	quiesce(t, e)
}

func TestHistoryEpsilonSerial(t *testing.T) {
	e := newEngine(t, 2, network.Config{Seed: 3}, 0)
	for i := 0; i < 15; i++ {
		if _, err := e.Update(clock.SiteID(i%2+1), []op.Op{op.IncOp("x", 1)}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if i%4 == 0 {
			if _, err := e.Query(2, []string{"x"}, divergence.Limit(3)); err != nil {
				t.Fatalf("Query: %v", err)
			}
		}
	}
	quiesce(t, e)
	if !history.IsEpsilonSerial(e.Cluster().Hist.Events()) {
		t.Errorf("history is not ε-serial")
	}
}

func TestQueriesDuringPartitionStayAvailable(t *testing.T) {
	e := newEngine(t, 3, network.Config{Seed: 1}, 0)
	c := e.Cluster()
	e.Update(1, []op.Op{op.IncOp("x", 10)})
	quiesce(t, e)
	c.Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2, 3})
	// Both sides keep serving updates and queries.
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Errorf("majority update: %v", err)
	}
	if _, err := e.Update(2, []op.Op{op.IncOp("x", 5)}); err != nil {
		t.Errorf("minority update: %v", err)
	}
	res, err := e.Query(3, []string{"x"}, divergence.Unlimited)
	if err != nil {
		t.Fatalf("minority query: %v", err)
	}
	if res.Value("x").Num < 10 {
		t.Errorf("minority read lost the pre-partition state: %v", res.Value("x"))
	}
	c.Net.Heal()
	quiesce(t, e)
	if got := c.Site(3).Store.Get("x"); !got.Equal(op.NumValue(16)) {
		t.Errorf("after heal x = %v, want 16 (both sides' updates merged)", got)
	}
	if ok, obj := c.Converged(); !ok {
		t.Errorf("diverged on %q", obj)
	}
}

func TestCounterValue(t *testing.T) {
	e := newEngine(t, 2, network.Config{Seed: 1}, 0)
	if got := e.CounterValue("x"); got != 0 {
		t.Errorf("idle CounterValue = %d", got)
	}
	e.Cluster().Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	e.Update(1, []op.Op{op.IncOp("x", 1)})
	e.Update(1, []op.Op{op.IncOp("x", 1)})
	// Site 2 cannot apply; its pending count is the lock-counter.
	deadline := time.Now().Add(time.Second)
	for e.CounterValue("x") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.CounterValue("x"); got != 2 {
		t.Errorf("CounterValue during partition = %d, want 2", got)
	}
	e.Cluster().Net.Heal()
	quiesce(t, e)
	if got := e.CounterValue("x"); got != 0 {
		t.Errorf("CounterValue after drain = %d", got)
	}
}

func TestQueryNumericDriftBound(t *testing.T) {
	e := newEngine(t, 2, network.Config{Seed: 1}, 0)
	c := e.Cluster()
	// Seed a propagated value, then strand a big update in transit.
	e.Update(1, []op.Op{op.IncOp("x", 100)})
	quiesce(t, e)
	c.Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	e.Update(1, []op.Op{op.IncOp("x", 40)}) // invisible at site 2

	deadline := time.Now().Add(time.Second)
	for e.invisibleDriftAt(2, "x") < 40 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// A 50-unit budget covers the missing 40: cheap read allowed, drift
	// reported.
	res, err := e.QueryNumeric(2, []string{"x"}, 50)
	if err != nil {
		t.Fatalf("QueryNumeric: %v", err)
	}
	if res.Drift != 40 {
		t.Errorf("Drift = %d, want 40", res.Drift)
	}
	if res.Values["x"].Num != 100 {
		t.Errorf("read %v, want the local 100", res.Values["x"])
	}
	// A 10-unit budget cannot cover it: conservative path, drift 0
	// charged (the read is serializable-in-the-past).
	strict, err := e.QueryNumeric(2, []string{"x"}, 10)
	if err != nil {
		t.Fatalf("strict QueryNumeric: %v", err)
	}
	if strict.Drift != 0 {
		t.Errorf("strict Drift = %d, want 0", strict.Drift)
	}
	c.Net.Heal()
	quiesce(t, e)
	// After drain, no drift is pending at all.
	after, _ := e.QueryNumeric(2, []string{"x"}, 0)
	if after.Drift != 0 || after.Values["x"].Num != 140 {
		t.Errorf("after heal: %+v", after)
	}
}

func TestQueryNumericBudgetSharedAcrossObjects(t *testing.T) {
	e := newEngine(t, 2, network.Config{Seed: 2}, 0)
	c := e.Cluster()
	c.Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	e.Update(1, []op.Op{op.IncOp("a", 30)})
	e.Update(1, []op.Op{op.IncOp("b", 30)})
	deadline := time.Now().Add(time.Second)
	for (e.invisibleDriftAt(2, "a") < 30 || e.invisibleDriftAt(2, "b") < 30) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res, err := e.QueryNumeric(2, []string{"a", "b"}, 45)
	if err != nil {
		t.Fatalf("QueryNumeric: %v", err)
	}
	// Only one of the two 30-unit drifts fits in a 45-unit budget.
	if res.Drift != 30 {
		t.Errorf("Drift = %d, want 30 (one object charged, one conservative)", res.Drift)
	}
	c.Net.Heal()
	quiesce(t, e)
}

func TestQueryNumericUnknownSite(t *testing.T) {
	e := newEngine(t, 1, network.Config{Seed: 1}, 0)
	if _, err := e.QueryNumeric(9, []string{"x"}, 10); err == nil {
		t.Errorf("unknown site must fail")
	}
}
