package ritu

import (
	"errors"
	"sync"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/network"
	"esr/internal/op"
)

func newEngine(t *testing.T, sites int, mode Mode, net network.Config) *Engine {
	t.Helper()
	e, err := New(Config{Core: core.Config{Sites: sites, Net: net}, Mode: mode})
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
	e := newEngine(t, 1, SingleVersion, network.Config{Seed: 1})
	tr := e.Traits()
	if tr.Name != "RITU" || tr.Restriction != "operation semantics" ||
		tr.Applicability != "Forwards" || tr.AsyncPropagation != "Query & Update" ||
		tr.SortingTime != "at read" {
		t.Errorf("Traits = %+v does not match Table 1", tr)
	}
	if SingleVersion.String() != "single-version" || MultiVersion.String() != "multi-version" {
		t.Errorf("Mode strings wrong")
	}
}

func TestRejectsReadDependentOps(t *testing.T) {
	e := newEngine(t, 2, SingleVersion, network.Config{Seed: 1})
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); !errors.Is(err, ErrNotReadIndependent) {
		t.Errorf("Inc = %v, want ErrNotReadIndependent", err)
	}
	if _, err := e.Update(1, []op.Op{op.ReadOp("x")}); !errors.Is(err, ErrNotUpdate) {
		t.Errorf("read-only = %v, want ErrNotUpdate", err)
	}
}

// TestSingleVersionLastWriterWins: blind writes delivered in any order
// converge on the newest timestamp's value at every site.
func TestSingleVersionLastWriterWins(t *testing.T) {
	e := newEngine(t, 4, SingleVersion, network.Config{Seed: 13, MinLatency: 50 * time.Microsecond, MaxLatency: 2 * time.Millisecond})
	var wg sync.WaitGroup
	for site := 1; site <= 4; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := e.Update(clock.SiteID(site), []op.Op{op.WriteOp("x", int64(site*100+i))}); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
			}
		}(site)
	}
	wg.Wait()
	quiesce(t, e)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Fatalf("diverged on %q", obj)
	}
	// The surviving value must carry the globally newest write timestamp.
	ref := e.Cluster().Site(1)
	head, _ := ref.Store.ReadAt("x", clock.Latest)
	wts := head.TS
	for _, id := range e.Cluster().SiteIDs() {
		if got, _ := e.Cluster().Site(id).Store.ReadAt("x", clock.Latest); got.TS != wts {
			t.Errorf("site %v write TS %v != %v", id, got.TS, wts)
		}
	}
}

func TestMultiVersionInstallsAndConverges(t *testing.T) {
	e := newEngine(t, 3, MultiVersion, network.Config{Seed: 3, MinLatency: 10 * time.Microsecond, MaxLatency: 1 * time.Millisecond})
	var wg sync.WaitGroup
	for site := 1; site <= 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Update(clock.SiteID(site), []op.Op{op.WriteOp("doc", int64(site*1000+i))}); err != nil {
					t.Errorf("Update: %v", err)
					return
				}
			}
		}(site)
	}
	wg.Wait()
	quiesce(t, e)
	// All sites hold identical version chains.
	ref := e.Cluster().Site(1).Store.Versions("doc")
	if len(ref) != 30 {
		t.Fatalf("site 1 has %d versions, want 30", len(ref))
	}
	for _, id := range e.Cluster().SiteIDs()[1:] {
		vs := e.Cluster().Site(id).Store.Versions("doc")
		if len(vs) != len(ref) {
			t.Fatalf("site %v has %d versions, want %d", id, len(vs), len(ref))
		}
		for i := range vs {
			if vs[i].TS != ref[i].TS || !vs[i].Val.Equal(ref[i].Val) {
				t.Fatalf("site %v version %d = %v/%v, want %v/%v", id, i, vs[i].TS, vs[i].Val, ref[i].TS, ref[i].Val)
			}
		}
	}
}

// TestVTNCAdvancesToStability: after quiescence the VTNC covers every
// installed version, so queries become SR at zero cost.
func TestVTNCAdvancesToStability(t *testing.T) {
	e := newEngine(t, 3, MultiVersion, network.Config{Seed: 5})
	for i := 0; i < 10; i++ {
		if _, err := e.Update(clock.SiteID(i%3+1), []op.Op{op.WriteOp("x", int64(i))}); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	quiesce(t, e)
	res, err := e.Query(2, []string{"x"}, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Inconsistency != 0 {
		t.Errorf("quiescent ε=0 query paid %d units", res.Inconsistency)
	}
	if res.Value("x").Kind != op.Numeric {
		t.Errorf("query read nothing: %v", res.Value("x"))
	}
	// The VTNC must cover the newest version everywhere.
	for _, id := range e.Cluster().SiteIDs() {
		s := e.Cluster().Site(id)
		s.Store.SetVTNC(e.VTNC())
		if _, beyond, ok := s.Store.ReadLatest("x"); !ok || beyond {
			t.Errorf("site %v: latest version beyond VTNC after quiescence", id)
		}
	}
}

// TestEpsilonGatesFreshReads: while an update is stuck in transit (via
// partition), ε=0 queries must refuse the unstable version and ε≥1
// queries may read it.
func TestEpsilonGatesFreshReads(t *testing.T) {
	e := newEngine(t, 2, MultiVersion, network.Config{Seed: 1})
	c := e.Cluster()
	// Baseline version, fully propagated.
	if _, err := e.Update(1, []op.Op{op.WriteOp("x", 1)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	quiesce(t, e)
	// Partition site 2 away, then write a new version at site 1: it
	// cannot stabilize, so the VTNC stays below it.
	c.Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	if _, err := e.Update(1, []op.Op{op.WriteOp("x", 2)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// Give site 1's processor a moment to install locally.
	deadline := time.Now().Add(time.Second)
	for len(c.Site(1).Store.Versions("x")) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	strict, err := e.Query(1, []string{"x"}, 0)
	if err != nil {
		t.Fatalf("Query(0): %v", err)
	}
	if !strict.Value("x").Equal(op.NumValue(1)) {
		t.Errorf("ε=0 read %v, want stable version 1", strict.Value("x"))
	}
	if strict.Inconsistency != 0 {
		t.Errorf("ε=0 inconsistency = %d", strict.Inconsistency)
	}

	fresh, err := e.Query(1, []string{"x"}, 1)
	if err != nil {
		t.Fatalf("Query(1): %v", err)
	}
	if !fresh.Value("x").Equal(op.NumValue(2)) {
		t.Errorf("ε=1 read %v, want fresh version 2", fresh.Value("x"))
	}
	if fresh.Inconsistency != 1 {
		t.Errorf("ε=1 inconsistency = %d, want 1", fresh.Inconsistency)
	}

	c.Net.Heal()
	quiesce(t, e)
	after, _ := e.Query(2, []string{"x"}, 0)
	if !after.Value("x").Equal(op.NumValue(2)) {
		t.Errorf("after heal ε=0 read %v, want 2", after.Value("x"))
	}
}

func TestQueryBudgetSharedAcrossObjects(t *testing.T) {
	e := newEngine(t, 2, MultiVersion, network.Config{Seed: 1})
	c := e.Cluster()
	e.Update(1, []op.Op{op.WriteOp("a", 1), op.WriteOp("b", 1)})
	quiesce(t, e)
	c.Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	e.Update(1, []op.Op{op.WriteOp("a", 2), op.WriteOp("b", 2)})
	deadline := time.Now().Add(time.Second)
	for len(c.Site(1).Store.Versions("b")) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res, err := e.Query(1, []string{"a", "b"}, 1)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	fresh := 0
	for _, obj := range []string{"a", "b"} {
		if res.Value(obj).Equal(op.NumValue(2)) {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("ε=1 took %d fresh reads, want exactly 1", fresh)
	}
	if res.Inconsistency != 1 {
		t.Errorf("inconsistency = %d, want 1", res.Inconsistency)
	}
	c.Net.Heal()
	quiesce(t, e)
}

// TestQueryChargesInSortedOrder: which object an exhausted budget
// refuses must not depend on the caller's argument order.
func TestQueryChargesInSortedOrder(t *testing.T) {
	e := newEngine(t, 2, MultiVersion, network.Config{Seed: 1})
	c := e.Cluster()
	e.Update(1, []op.Op{op.WriteOp("a", 1), op.WriteOp("b", 1)})
	quiesce(t, e)
	c.Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{2})
	e.Update(1, []op.Op{op.WriteOp("a", 2), op.WriteOp("b", 2)})
	deadline := time.Now().Add(time.Second)
	for len(c.Site(1).Store.Versions("b")) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, objs := range [][]string{{"a", "b"}, {"b", "a"}} {
		res, err := e.Query(1, objs, 1)
		if err != nil {
			t.Fatalf("Query(%v): %v", objs, err)
		}
		if !res.Value("a").Equal(op.NumValue(2)) || !res.Value("b").Equal(op.NumValue(1)) {
			t.Errorf("Query(%v) = %v, want the fresh a and the stable b", objs, res.Values)
		}
	}
	c.Net.Heal()
	quiesce(t, e)
}

func TestGC(t *testing.T) {
	e := newEngine(t, 2, MultiVersion, network.Config{Seed: 1})
	for i := 0; i < 5; i++ {
		if _, err := e.Update(1, []op.Op{op.WriteOp("x", int64(i))}); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	quiesce(t, e)
	// Let the VTNC settle, then GC: 4 obsolete versions per site.
	if n := e.GC(); n != 8 {
		t.Errorf("GC collected %d versions, want 8", n)
	}
	res, _ := e.Query(2, []string{"x"}, 0)
	if !res.Value("x").Equal(op.NumValue(4)) {
		t.Errorf("post-GC read %v, want 4", res.Value("x"))
	}
}

func TestSingleVersionQueryIsPlainRead(t *testing.T) {
	e := newEngine(t, 2, SingleVersion, network.Config{Seed: 1})
	e.Update(1, []op.Op{op.WriteOp("x", 9)})
	quiesce(t, e)
	res, err := e.Query(2, []string{"x"}, 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Value("x").Equal(op.NumValue(9)) || res.Inconsistency != 0 {
		t.Errorf("SV query = %v (inc %d)", res.Value("x"), res.Inconsistency)
	}
}

func TestUnknownSites(t *testing.T) {
	e := newEngine(t, 1, MultiVersion, network.Config{Seed: 1})
	if _, err := e.Update(5, []op.Op{op.WriteOp("x", 1)}); err == nil {
		t.Errorf("Update at unknown site must fail")
	}
	if _, err := e.Query(5, []string{"x"}, 0); err == nil {
		t.Errorf("Query at unknown site must fail")
	}
}

// TestVTNCMonotone hammers updates from all sites and samples the VTNC,
// asserting it never regresses and no version is ever installed at or
// below a previously observed VTNC.
func TestVTNCMonotone(t *testing.T) {
	e := newEngine(t, 3, MultiVersion, network.Config{Seed: 21, MinLatency: 10 * time.Microsecond, MaxLatency: 300 * time.Microsecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for site := 1; site <= 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Update(clock.SiteID(site), []op.Op{op.WriteOp("x", int64(i))})
				// Pace production to what the simulated links can drain.
				time.Sleep(200 * time.Microsecond)
			}
		}(site)
	}
	var prev clock.Timestamp
	for i := 0; i < 200; i++ {
		cur := e.VTNC()
		if cur.Less(prev) {
			t.Fatalf("VTNC regressed: %v after %v", cur, prev)
		}
		prev = cur
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	quiesce(t, e)
	// Every version must be above the VTNC observed before it existed;
	// verify the final chain is strictly ordered as a sanity check.
	vs := e.Cluster().Site(1).Store.Versions("x")
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].TS.Less(vs[i].TS) {
			t.Fatalf("version chain out of order at %d", i)
		}
	}
}

func TestQueryAtHistoricalSnapshot(t *testing.T) {
	e := newEngine(t, 2, MultiVersion, network.Config{Seed: 9})
	var stamps []clock.Timestamp
	for i := int64(1); i <= 3; i++ {
		if _, err := e.Update(1, []op.Op{op.WriteOp("x", i*100)}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		quiesce(t, e)
		vs := e.Cluster().Site(1).Store.Versions("x")
		stamps = append(stamps, vs[len(vs)-1].TS)
	}
	for i, ts := range stamps {
		res, err := e.QueryAt(2, []string{"x"}, ts)
		if err != nil {
			t.Fatalf("QueryAt: %v", err)
		}
		want := int64(i+1) * 100
		if res.Value("x").Num != want {
			t.Errorf("QueryAt(%v) = %v, want %d", ts, res.Value("x"), want)
		}
	}
	// Before the first version: zero value.
	res, err := e.QueryAt(2, []string{"x"}, clock.Timestamp{Time: 0})
	if err != nil {
		t.Fatalf("QueryAt: %v", err)
	}
	if res.Value("x").Num != 0 {
		t.Errorf("pre-history read = %v", res.Value("x"))
	}
}

func TestQueryAtRequiresMultiVersion(t *testing.T) {
	e := newEngine(t, 1, SingleVersion, network.Config{Seed: 1})
	if _, err := e.QueryAt(1, []string{"x"}, clock.Timestamp{Time: 1}); err == nil {
		t.Errorf("QueryAt under single-version must fail")
	}
}
