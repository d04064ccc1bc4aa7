package compe

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
	e, err := New(Config{Core: core.Config{Sites: sites, Net: net}, Mode: mode, AutoCommit: false})
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
	e := newEngine(t, 1, Commutative, network.Config{Seed: 1})
	tr := e.Traits()
	if tr.Name != "COMPE" || tr.Restriction != `"operation value"` ||
		tr.Applicability != "Backwards" || tr.AsyncPropagation != "Query & Update" ||
		tr.SortingTime != "N/A" {
		t.Errorf("Traits = %+v does not match Table 1", tr)
	}
	if Commutative.String() != "commutative" || General.String() != "general" {
		t.Errorf("Mode strings wrong")
	}
}

func TestBeginCommitPropagates(t *testing.T) {
	e := newEngine(t, 3, Commutative, network.Config{Seed: 1})
	id, err := e.Begin(1, []op.Op{op.IncOp("x", 10)})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e.Commit(id); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	quiesce(t, e)
	for _, sid := range e.Cluster().SiteIDs() {
		if got := e.Cluster().Site(sid).Store.Get("x"); !got.Equal(op.NumValue(10)) {
			t.Errorf("site %v: x = %v, want 10", sid, got)
		}
	}
	st := e.Stats()
	if st.Commits != 1 || st.Aborts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAbortCompensatesEverywhere(t *testing.T) {
	e := newEngine(t, 3, Commutative, network.Config{Seed: 2, MinLatency: 10 * time.Microsecond, MaxLatency: 300 * time.Microsecond})
	keep, err := e.Begin(1, []op.Op{op.IncOp("x", 100)})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	doomed, err := e.Begin(2, []op.Op{op.IncOp("x", 7)})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e.Commit(keep); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := e.Abort(doomed); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	quiesce(t, e)
	if ok, obj := e.Cluster().Converged(); !ok {
		t.Fatalf("diverged on %q", obj)
	}
	if got := e.Cluster().Site(3).Store.Get("x"); !got.Equal(op.NumValue(100)) {
		t.Errorf("x = %v, want 100 (aborted +7 compensated)", got)
	}
	st := e.Stats()
	if st.Aborts != 1 || st.OpsUndon == 0 {
		t.Errorf("stats = %+v, want 1 abort with undo work", st)
	}
}

// TestPaperIncMulRollback reproduces §4.1 end-to-end: an Inc is aborted
// after a non-commuting Mul ran on top of it; the naive Dec would be
// wrong, so the site must roll back the Mul, compensate, and replay.
func TestPaperIncMulRollback(t *testing.T) {
	e := newEngine(t, 2, General, network.Config{Seed: 1})
	// Start x at 1 (committed).
	base, err := e.Begin(1, []op.Op{op.WriteOp("x", 1)})
	if err != nil {
		t.Fatalf("Begin base: %v", err)
	}
	e.Commit(base)
	inc, err := e.Begin(1, []op.Op{op.IncOp("x", 10)})
	if err != nil {
		t.Fatalf("Begin inc: %v", err)
	}
	mul, err := e.Begin(1, []op.Op{op.MulOp("x", 2)})
	if err != nil {
		t.Fatalf("Begin mul: %v", err)
	}
	quiesce(t, e)
	// x = (1+10)*2 = 22 everywhere.
	if got := e.Cluster().Site(2).Store.Get("x"); !got.Equal(op.NumValue(22)) {
		t.Fatalf("pre-abort x = %v, want 22", got)
	}
	if err := e.Abort(inc); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	e.Commit(mul)
	quiesce(t, e)
	// Correct compensation yields Mul alone: 1*2 = 2 (NOT the naive
	// 22-10 = 12).
	for _, sid := range e.Cluster().SiteIDs() {
		if got := e.Cluster().Site(sid).Store.Get("x"); !got.Equal(op.NumValue(2)) {
			t.Errorf("site %v: x = %v, want 2", sid, got)
		}
	}
	st := e.Stats()
	if st.OpsRedon == 0 {
		t.Errorf("expected replay work for non-commutative rollback, stats = %+v", st)
	}
}

func TestCommutativeAbortIsCheap(t *testing.T) {
	e := newEngine(t, 2, Commutative, network.Config{Seed: 1})
	var ids []interface{ String() string }
	_ = ids
	doomed, _ := e.Begin(1, []op.Op{op.IncOp("x", 5)})
	// Pile more commutative work on top.
	for i := 0; i < 10; i++ {
		id, err := e.Begin(1, []op.Op{op.IncOp("x", 1)})
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		e.Commit(id)
	}
	quiesce(t, e)
	if err := e.Abort(doomed); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	quiesce(t, e)
	if got := e.Cluster().Site(2).Store.Get("x"); !got.Equal(op.NumValue(10)) {
		t.Errorf("x = %v, want 10", got)
	}
	st := e.Stats()
	// Direct compensation: one op undone per site, nothing redone.
	if st.OpsRedon != 0 {
		t.Errorf("commutative abort redid %d ops, want 0", st.OpsRedon)
	}
	if st.OpsUndon != 2 {
		t.Errorf("commutative abort undid %d ops, want 2 (one per site)", st.OpsUndon)
	}
}

func TestUAppendAbort(t *testing.T) {
	e := newEngine(t, 2, Commutative, network.Config{Seed: 3})
	a, _ := e.Begin(1, []op.Op{op.UAppendOp("set", "keep")})
	b, _ := e.Begin(2, []op.Op{op.UAppendOp("set", "drop")})
	e.Commit(a)
	quiesce(t, e)
	e.Abort(b)
	quiesce(t, e)
	for _, sid := range e.Cluster().SiteIDs() {
		got := e.Cluster().Site(sid).Store.Get("set")
		if !got.EqualUnordered(op.ListValue("keep")) {
			t.Errorf("site %v: set = %v, want [keep]", sid, got)
		}
	}
}

func TestValidation(t *testing.T) {
	e := newEngine(t, 1, Commutative, network.Config{Seed: 1})
	if _, err := e.Begin(1, []op.Op{op.ReadOp("x")}); !errors.Is(err, ErrNotUpdate) {
		t.Errorf("read-only = %v", err)
	}
	if _, err := e.Begin(1, []op.Op{op.WriteOp("x", 1)}); !errors.Is(err, ErrNotCompensatable) {
		t.Errorf("Write under Commutative = %v", err)
	}
	if _, err := e.Begin(1, []op.Op{op.MulOp("x", 0)}); !errors.Is(err, ErrNotCompensatable) {
		t.Errorf("Mul(0) = %v", err)
	}
	g := newEngine(t, 1, General, network.Config{Seed: 1})
	if _, err := g.Begin(1, []op.Op{op.WriteOp("x", 1)}); err != nil {
		t.Errorf("Write under General = %v", err)
	}
	if _, err := g.Begin(1, []op.Op{op.MulOp("x", 0)}); !errors.Is(err, ErrNotCompensatable) {
		t.Errorf("Mul(0) under General = %v", err)
	}
}

func TestFamilyConflictRejected(t *testing.T) {
	e := newEngine(t, 1, Commutative, network.Config{Seed: 1})
	if _, err := e.Begin(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatalf("Inc: %v", err)
	}
	if _, err := e.Begin(1, []op.Op{op.UAppendOp("x", "a")}); !errors.Is(err, ErrNotCompensatable) {
		t.Errorf("UAppend on additive object = %v", err)
	}
	// A rejected burst must leave no family pinned.
	if _, err := e.BeginBurst(1, [][]op.Op{{op.IncOp("w", 1)}, {op.MulOp("z", 2)}}); !errors.Is(err, ErrNotCompensatable) {
		t.Errorf("burst with a Mul under Commutative = %v", err)
	}
	if _, err := e.Begin(1, []op.Op{op.UAppendOp("w", "a")}); err != nil {
		t.Errorf("w family must remain unreserved after the burst's rejection: %v", err)
	}
}

func TestDoubleResolveRejected(t *testing.T) {
	e := newEngine(t, 1, Commutative, network.Config{Seed: 1})
	id, _ := e.Begin(1, []op.Op{op.IncOp("x", 1)})
	if err := e.Commit(id); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := e.Commit(id); !errors.Is(err, ErrAlreadyResolved) {
		t.Errorf("second Commit = %v", err)
	}
	if err := e.Abort(id); !errors.Is(err, ErrAlreadyResolved) {
		t.Errorf("Abort after Commit = %v", err)
	}
	if err := e.Commit(42); !errors.Is(err, ErrUnknownET) {
		t.Errorf("Commit(unknown) = %v", err)
	}
}

func TestLogTruncation(t *testing.T) {
	e := newEngine(t, 2, Commutative, network.Config{Seed: 1})
	// Committed work truncates away; a tentative entry pins the log.
	pin, _ := e.Begin(1, []op.Op{op.IncOp("x", 1)})
	var ids []interface{}
	_ = ids
	for i := 0; i < 5; i++ {
		id, _ := e.Begin(1, []op.Op{op.IncOp("x", 1)})
		e.Commit(id)
	}
	quiesce(t, e)
	if got := e.LogLen(1); got != 6 {
		t.Errorf("log pinned by tentative entry: len=%d, want 6", got)
	}
	e.Commit(pin)
	quiesce(t, e)
	if got := e.LogLen(1); got != 0 {
		t.Errorf("log after all commits: len=%d, want 0", got)
	}
}

func TestRiskAccountingAndQueryCost(t *testing.T) {
	e := newEngine(t, 2, Commutative, network.Config{Seed: 1})
	id, _ := e.Begin(1, []op.Op{op.IncOp("x", 1)})
	quiesce(t, e)
	if got := e.RiskAt(2, "x"); got != 1 {
		t.Errorf("RiskAt = %d, want 1 while tentative", got)
	}
	// An ε=0 query at a risky object must avoid importing the tentative
	// state — it serializes via RU locks and still reads the applied
	// value, but reports zero imported inconsistency only if it could
	// not be charged.  With risk 1 the cost is 1, so ε=0 forces the
	// conservative path; ε=1 accepts it.
	res, err := e.Query(2, []string{"x"}, 1)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Inconsistency != 1 {
		t.Errorf("tentative-read inconsistency = %d, want 1", res.Inconsistency)
	}
	e.Commit(id)
	quiesce(t, e)
	if got := e.RiskAt(2, "x"); got != 0 {
		t.Errorf("RiskAt after commit = %d, want 0", got)
	}
	res2, _ := e.Query(2, []string{"x"}, 0)
	if res2.Inconsistency != 0 {
		t.Errorf("post-commit query inconsistency = %d", res2.Inconsistency)
	}
}

// TestGeneralModeConvergesUnderConcurrency: sequenced forward MSets with
// scattered aborts still converge across sites.
func TestGeneralModeConvergesUnderConcurrency(t *testing.T) {
	e := newEngine(t, 3, General, network.Config{Seed: 17, MinLatency: 20 * time.Microsecond, MaxLatency: 800 * time.Microsecond})
	var mu sync.Mutex
	var doomed []interface{ Origin() clock.SiteID }
	_ = doomed
	type pair struct {
		id    interface{}
		abort bool
	}
	_ = pair{}
	var wg sync.WaitGroup
	var abortIDs []int
	_ = abortIDs
	for site := 1; site <= 3; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				var o op.Op
				if i%3 == 0 {
					o = op.MulOp("x", 2)
				} else {
					o = op.IncOp("x", int64(site))
				}
				id, err := e.Begin(clock.SiteID(site), []op.Op{o})
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				if i%4 == 3 {
					if err := e.Abort(id); err != nil {
						t.Errorf("Abort: %v", err)
					}
				} else {
					if err := e.Commit(id); err != nil {
						t.Errorf("Commit: %v", err)
					}
				}
			}
		}(site)
	}
	wg.Wait()
	mu.Lock()
	mu.Unlock()
	quiesce(t, e)
	if ok, obj := e.Cluster().Converged(); !ok {
		vals := []op.Value{}
		for _, sid := range e.Cluster().SiteIDs() {
			vals = append(vals, e.Cluster().Site(sid).Store.Get(obj))
		}
		t.Fatalf("diverged on %q: %v", obj, vals)
	}
}

func TestUpdateAutoCommit(t *testing.T) {
	e, err := New(Config{Core: core.Config{Sites: 2, Net: network.Config{Seed: 1}}, Mode: Commutative, AutoCommit: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer e.Close()
	if _, err := e.Update(1, []op.Op{op.IncOp("x", 3)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := e.Cluster().Quiesce(5 * time.Second); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	if got := e.Stats().Commits; got != 1 {
		t.Errorf("auto-commit count = %d", got)
	}
	if got := e.LogLen(2); got != 0 {
		t.Errorf("log not truncated after auto-commit: %d", got)
	}
}
