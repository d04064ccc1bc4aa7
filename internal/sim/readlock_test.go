package sim

import (
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/commu"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/lock"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/ordup"
	"esr/internal/ritu"
	"esr/internal/session"
)

// TestReadsTakeNoLocks: query ETs are lock-free snapshot reads.  The
// unified read path serves every level from snapshots gated by SAFETIME
// watermarks; a read that reaches the lock manager has fallen back onto
// the update path's 2PL machinery.  For each engine the test quiesces
// the cluster, so no apply is in flight at the reading site, then runs
// every read entry point and requires the site's lock-acquire count not
// to move.
func TestReadsTakeNoLocks(t *testing.T) {
	const site = clock.SiteID(3)
	objs := []string{"x", "y"}
	cases := []struct {
		name string
		make func(reg *metrics.Registry) (core.Engine, error)
	}{
		{"ordup", kindEngine(ORDUPSeq)},
		{"ordup-lamport", kindEngine(ORDUPLamport)},
		{"ordup-to", func(reg *metrics.Registry) (core.Engine, error) {
			return ordup.New(ordup.Config{
				Core:      core.Config{Sites: 3, Net: network.Config{Seed: 1}, Metrics: reg, Method: "ordup"},
				Ordering:  ordup.Sequencer,
				Scheduler: ordup.TimestampOrdering,
			})
		}},
		{"commu", kindEngine(COMMU)},
		{"ritu", kindEngine(RITUSV)},
		{"ritu-mv", kindEngine(RITUMV)},
		{"compe", kindEngine(COMPE)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			e, err := tc.make(reg)
			if err != nil {
				t.Fatalf("new engine: %v", err)
			}
			t.Cleanup(func() { e.Close() })
			c := e.Cluster()
			blind := tc.name == "ritu" || tc.name == "ritu-mv"
			for i := 1; i <= 6; i++ {
				o := op.IncOp(objs[i%2], int64(i))
				if blind {
					o = op.WriteOp(objs[i%2], int64(i))
				}
				if _, err := e.Update(clock.SiteID(1+i%3), []op.Op{o}); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}

			acquires := reg.Counter("esr_lock_acquires_total", "", "site").With("3")
			before := acquires.Value()
			read := func(label string, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
				if n := acquires.Value(); n != before {
					t.Errorf("%s acquired %d lock(s) at site %v", label, n-before, site)
					before = n
				}
			}
			for _, lv := range []consistency.Level{consistency.Eventual, consistency.Session, consistency.Bounded, consistency.Strong} {
				_, err := core.ReadAtSite(c, site, objs, core.ReadOptions{Level: lv, Epsilon: divergence.Unlimited})
				read("ReadAtSite "+lv.String(), err)
			}
			// Every object priced past ε = 0: the conservative fallback
			// drains and re-reads each one, at the latest state and at a
			// snapshot.
			overBudget := func(string, uint64) int { return 1 }
			for label, at := range map[string]clock.Timestamp{"latest": clock.Latest, "snapshot": {}} {
				_, err := core.ReadAtSite(c, site, objs, core.ReadOptions{Level: consistency.Bounded, Epsilon: 0, Price: overBudget, At: at})
				read("ReadAtSite fallback "+label, err)
			}
			for _, eps := range []divergence.Limit{0, 1, divergence.Unlimited} {
				_, err := e.Query(site, objs, eps)
				read("Query", err)
			}
			spec := divergence.Spec{PerObject: map[string]divergence.Limit{"x": 1}}
			switch eng := e.(type) {
			case *ordup.Engine:
				_, err := eng.QuerySpec(site, objs, spec)
				read("QuerySpec", err)
			case *commu.Engine:
				_, err := eng.QuerySpec(site, objs, spec)
				read("QuerySpec", err)
				_, err = eng.QueryNumeric(site, objs, 5)
				read("QueryNumeric", err)
			case *ritu.Engine:
				if tc.name == "ritu-mv" {
					_, err := eng.QueryAt(site, objs, clock.Latest)
					read("QueryAt", err)
				}
			}
			if tc.name != "compe" { // COMPE does not track per-site application
				sess, err := session.New(e)
				if err != nil {
					t.Fatalf("session: %v", err)
				}
				_, err = sess.Read(site, objs)
				read("session Read", err)
			}

			// Control: the counter does see a lock the site takes.
			s := c.Site(site)
			if err := s.Locks.TryAcquire(lock.TxID(1<<62), lock.WU, op.WriteOp("x", 1)); err != nil {
				t.Fatalf("control TryAcquire: %v", err)
			}
			s.Locks.ReleaseAll(lock.TxID(1 << 62))
			if acquires.Value() != before+1 {
				t.Fatalf("lock-acquire counter did not see the control acquisition")
			}
		})
	}
}

// kindEngine builds a 3-site engine of the given kind reporting into reg.
func kindEngine(kind EngineKind) func(reg *metrics.Registry) (core.Engine, error) {
	return func(reg *metrics.Registry) (core.Engine, error) {
		return NewEngine(kind, 3, network.Config{Seed: 1}, Options{Metrics: reg})
	}
}
