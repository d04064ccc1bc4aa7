package sim

import (
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/commu"
	"esr/internal/compe"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/ritu"
)

// TestQueryGolden pins what every method's ε-query returns on a 3-site
// cluster whose reading site (3) holds or misses updates: free reads (y),
// charged reads (x while an update on it is held, stranded or tentative)
// and refused reads (x at ε = 0, which drains before reading).  Values,
// Inconsistency and Epsilon are compared against literals, so any change
// in how a method prices, budgets or re-reads shows up here.
func TestQueryGolden(t *testing.T) {
	type want struct {
		vals map[string]int64
		inc  int
		eps  divergence.Limit
	}
	check := func(t *testing.T, label string, res et.QueryResult, err error, w want) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(res.Values) != len(w.vals) {
			t.Errorf("%s: values %v, want %v", label, res.Values, w.vals)
		}
		for obj, n := range w.vals {
			if got := res.Values[obj]; !got.Equal(op.NumValue(n)) {
				t.Errorf("%s: %s = %v, want %d", label, obj, got, n)
			}
		}
		if res.Inconsistency != w.inc || res.Epsilon != w.eps {
			t.Errorf("%s: inconsistency %d under ε %v, want %d under ε %v",
				label, res.Inconsistency, res.Epsilon, w.inc, w.eps)
		}
	}
	spec := divergence.Spec{PerObject: map[string]divergence.Limit{"x": 1}} // y strict, x loose
	seq := core.SequencerSite

	for _, tc := range []struct {
		kind EngineKind
		// pre is x at site 3 while the first x update is stranded; post is
		// x once a refused ε = 0 read has drained (-1: no heal, it reads pre).
		pre, post int64
	}{
		{ORDUPSeq, 0, 11},
		{ORDUPLamport, 0, 11},
		{COMMU, 10, -1},
		{COMPE, 10, -1},
		{RITUSV, 10, -1},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			e, err := NewEngine(tc.kind, 3, network.Config{Seed: 1}, Options{})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			t.Cleanup(func() { e.Close() })
			c := e.Cluster()
			s3 := c.Site(3)
			upd := func(origin clock.SiteID, obj string, n int64) {
				t.Helper()
				o := op.IncOp(obj, n)
				if tc.kind == RITUSV {
					o = op.WriteOp(obj, n)
				}
				var err error
				if ce, ok := e.(*compe.Engine); ok && origin == 2 {
					_, err = ce.Begin(origin, []op.Op{o}) // left tentative: risk at every site
				} else {
					_, err = e.Update(origin, []op.Op{o})
				}
				if err != nil {
					t.Fatalf("update %s at %v: %v", obj, origin, err)
				}
			}
			waitFor := func(what string, cond func() bool) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for !cond() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
					time.Sleep(time.Millisecond)
				}
			}

			upd(1, "y", 5)
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			// x+1 from site 1 is stranded on its way to site 3.
			c.Net.Partition([]clock.SiteID{1, 2, seq}, []clock.SiteID{3})
			upd(1, "x", 1)
			waitFor("site 2 to receive x+1", func() bool {
				return c.Site(2).Store.Get("x").Num == 1 || c.Site(2).Pending("x") == 1
			})
			// x+10 from site 2 reaches site 3: ORDUP holds it behind the
			// stranded x+1; the other methods apply it.
			c.Net.Partition([]clock.SiteID{1}, []clock.SiteID{2, 3, seq})
			upd(2, "x", 10)
			if tc.kind == ORDUPSeq || tc.kind == ORDUPLamport {
				waitFor("site 3 to hold x+10", func() bool { return s3.Pending("x") == 1 })
			} else {
				waitFor("site 3 to apply x+10", func() bool {
					return s3.Store.Get("x").Num == 10 && s3.Pending("x") == 0
				})
			}
			if ce, ok := e.(*compe.Engine); ok {
				waitFor("site 3 to hold compensation risk on x", func() bool { return ce.RiskAt(3, "x") == 1 })
			}

			charge := 1
			if tc.kind == RITUSV {
				charge = 0 // RITU-SV reads are eventual: "no divergence"
			}
			res, err := e.Query(3, []string{"x"}, divergence.Unlimited)
			check(t, "ε=∞", res, err, want{map[string]int64{"x": tc.pre}, charge, divergence.Unlimited})
			res, err = e.Query(3, []string{"y", "x"}, 2)
			check(t, "ε=2", res, err, want{map[string]int64{"x": tc.pre, "y": 5}, charge, 2})

			if sq, ok := e.(interface {
				QuerySpec(clock.SiteID, []string, divergence.Spec) (et.QueryResult, error)
			}); ok {
				res, err = sq.QuerySpec(3, []string{"x", "y"}, spec)
				check(t, "spec", res, err, want{map[string]int64{"x": tc.pre, "y": 5}, 1, 1})
			}
			if ce, ok := e.(*commu.Engine); ok {
				for _, nc := range []struct {
					maxDrift, drift int64
					objs            []string
				}{{10, 1, []string{"x", "y"}}, {0, 0, []string{"x"}}, {-1, 0, []string{"x", "y"}}} {
					nr, err := ce.QueryNumeric(3, nc.objs, nc.maxDrift)
					if err != nil {
						t.Fatalf("QueryNumeric(%d): %v", nc.maxDrift, err)
					}
					if nr.Drift != nc.drift || nr.MaxDrift != nc.maxDrift || nr.Site != 3 ||
						!nr.Values["x"].Equal(op.NumValue(10)) || len(nr.Values) != len(nc.objs) {
						t.Errorf("QueryNumeric(%d) = %+v, want drift %d over %v with x = 10",
							nc.maxDrift, nr, nc.drift, nc.objs)
					}
				}
			}

			post := tc.pre
			if tc.post >= 0 {
				// Heal while the refused read drains: it must wait out both
				// x updates and read their sum.
				post = tc.post
				heal := time.AfterFunc(20*time.Millisecond, c.Net.Heal)
				defer heal.Stop()
			}
			res, err = e.Query(3, []string{"x"}, 0)
			check(t, "ε=0", res, err, want{map[string]int64{"x": post}, 0, 0})
		})
	}

	t.Run("ritu-mv/QueryAt", func(t *testing.T) {
		eng, err := NewEngine(RITUMV, 3, network.Config{Seed: 1}, Options{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		t.Cleanup(func() { eng.Close() })
		e := eng.(*ritu.Engine)
		if _, err := e.Update(1, []op.Op{op.WriteOp("x", 5)}); err != nil {
			t.Fatalf("Update: %v", err)
		}
		if err := e.Cluster().Quiesce(10 * time.Second); err != nil {
			t.Fatalf("Quiesce: %v", err)
		}
		first := e.Cluster().Site(3).MV.Versions("x")[0].TS
		for _, ts := range []clock.Timestamp{{}, {Time: first.Time - 1, Site: first.Site}} {
			res, err := e.QueryAt(3, []string{"x", "y"}, ts)
			check(t, "QueryAt "+ts.String(), res, err, want{map[string]int64{"x": 0, "y": 0}, 0, 0})
		}
		res, err := e.QueryAt(3, []string{"x"}, first)
		check(t, "QueryAt first", res, err, want{map[string]int64{"x": 5}, 0, 0})
	})
}
