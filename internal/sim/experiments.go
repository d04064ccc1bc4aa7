package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/commu"
	"esr/internal/compe"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/history"
	"esr/internal/lock"
	"esr/internal/merge"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/ordup"
	"esr/internal/ritu"
	"esr/internal/stopwatch"
	"esr/internal/tabular"
)

// Experiment is one reproducible table or figure from the experiment
// index in DESIGN.md.
type Experiment struct {
	// ID is the experiment identifier (T1–T3 for the paper's literal
	// tables, E1–E14 for the claim-driven quantitative experiments).
	ID string
	// Title is a one-line description.
	Title string
	// Claim quotes or paraphrases the paper statement under test.
	Claim string
	// Run produces the experiment's table.  quick shrinks workloads for
	// CI-speed runs; the full size is used by cmd/esrbench -full.
	Run func(quick bool) (*tabular.Table, error)
}

// Experiments returns every experiment in index order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "T1", Title: "Table 1: replica-control method characteristics",
			Claim: "Table 1 of the paper, regenerated from method metadata",
			Run:   runT1},
		{ID: "T2", Title: "Table 2: 2PL compatibility for ORDUP ETs",
			Claim: "Table 2 of the paper, regenerated from the lock manager",
			Run: func(bool) (*tabular.Table, error) {
				return compatTable("Table 2: 2PL Compatibility for ORDUP ETs", lock.ORDUP), nil
			}},
		{ID: "T3", Title: "Table 3: 2PL compatibility for COMMU ETs",
			Claim: "Table 3 of the paper, regenerated from the lock manager",
			Run: func(bool) (*tabular.Table, error) {
				return compatTable("Table 3: 2PL Compatibility for COMMU ETs", lock.COMMU), nil
			}},
		{ID: "E1", Title: "Throughput and latency vs replication degree",
			Claim: "§1: synchronous methods decrease availability and throughput as the size of the system increases",
			Run:   runE1},
		{ID: "E2", Title: "ε sweep: query cost vs permitted inconsistency",
			Claim: "§2.2: replica control may allow zero inconsistency, producing SR queries, or let a query ET's error grow",
			Run:   runE2},
		{ID: "E3", Title: "Observed staleness bounded by the inconsistency counter",
			Claim: "§2.1: the overlap is an upper bound of error on the inconsistency a query ET may accumulate",
			Run:   runE3},
		{ID: "E4", Title: "Convergence at quiescence vs link latency",
			Claim: "§2.2: replicas converge to the same 1SR value when queued MSets are processed and the system reaches a quiescent state",
			Run:   runE4},
		{ID: "E5", Title: "Availability under a network partition",
			Claim: "§2.2: replica control is robust in face of very slow links, network partitions, and site failures",
			Run:   runE5},
		{ID: "E6", Title: "COMMU lock-counter limit: update throttling vs query inconsistency",
			Claim: "§3.2: if the lock-counter exceeds a limit, the update must wait or abort; query ETs then have a better chance of completion",
			Run:   runE6},
		{ID: "E7", Title: "RITU multi-version: fresh reads beyond the VTNC vs ε",
			Claim: "§3.3: query ETs may read versions newer than VTNC at one inconsistency unit each, refused past the limit",
			Run:   runE7},
		{ID: "E8", Title: "Compensation cost: commutative vs general logs",
			Claim: "§4.2: commutative logs compensate directly; otherwise the entire log is rolled back and replayed",
			Run:   runE8},
		{ID: "E9", Title: "ORDUP ordering source: sequencer vs Lamport delivery delay",
			Claim: "§3.1: ordering is easy with a centralized order server; distributed timestamps must wait for delivery evidence",
			Run:   runE9},
		{ID: "E10", Title: "The paper's example log (1): ε-serial but not SR",
			Claim: "§2.1: deletion of Q3 results in the log being an SRlog, so log (1) qualifies as an ε-serial log",
			Run:   runE10},
		{ID: "E11", Title: "Partition repair: on-line ESR reconciliation vs off-line log merge",
			Claim: "§5.3: instead of processing logs at reconnection time, our methods control divergence dynamically",
			Run:   runE11},
		{ID: "E12", Title: "Skewed access: hot-object inconsistency and per-object ε",
			Claim: "§5.1 (spatial consistency): different objects may tolerate different asynchronous inconsistency",
			Run:   runE12},
		{ID: "E13", Title: "ORDUP divergence-control ablation: overlap pricing vs basic timestamps",
			Claim: "§3.1: the detection of out-of-order execution depends on the particular divergence control method — 2PL (Table 2) or basic timestamps",
			Run:   runE13},
		{ID: "E14", Title: "Message loss: stable-queue retry masks unreliable links",
			Claim: "§2.2: stable queues persistently retry message delivery until successful; replica control is robust to message losses",
			Run:   runE14},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, ex := range Experiments() {
		if ex.ID == id {
			return ex, true
		}
	}
	return Experiment{}, false
}

// --- T1 ---

func runT1(bool) (*tabular.Table, error) {
	kinds := []EngineKind{ORDUPSeq, COMMU, RITUSV, COMPE}
	traits := make([]core.Traits, 0, len(kinds))
	for _, k := range kinds {
		e, err := NewEngine(k, 1, network.Config{Seed: 1}, Options{})
		if err != nil {
			return nil, err
		}
		traits = append(traits, e.Traits())
		e.Close()
	}
	t := tabular.New("Table 1: Replica-Control Methods",
		"", "ORDUP", "COMMU", "RITU", "COMPENSATION")
	row := func(label string, get func(core.Traits) string) {
		cells := []string{label}
		for _, tr := range traits {
			cells = append(cells, get(tr))
		}
		t.AddRow(cells...)
	}
	row("Kind of Restriction", func(tr core.Traits) string { return tr.Restriction })
	row("Applicability", func(tr core.Traits) string { return tr.Applicability })
	row("Asynchronous Propagation", func(tr core.Traits) string { return tr.AsyncPropagation })
	row("Sorting Time", func(tr core.Traits) string { return tr.SortingTime })
	return t, nil
}

func compatTable(title string, table lock.Table) *tabular.Table {
	t := tabular.New(title, "", "RU", "WU", "RQ")
	for _, held := range lock.Modes {
		cells := []string{held.String()}
		for _, req := range lock.Modes {
			cells = append(cells, table.Compatibility(held, req).String())
		}
		t.AddRow(cells...)
	}
	return t
}

// --- E1 ---

func runE1(quick bool) (*tabular.Table, error) {
	sizes := []int{1, 2, 4, 8}
	opsPerClient := 30
	if quick {
		sizes = []int{1, 2, 4}
		opsPerClient = 10
	}
	kinds := []EngineKind{COMMU, ORDUPSeq, TwoPC, QuorumMaj}
	t := tabular.New("E1: throughput and update latency vs replicas (2ms links, 80/20 update/query)",
		"method", "replicas", "updates/s", "upd mean", "upd p95", "errors")
	for _, kind := range kinds {
		for _, n := range sizes {
			e, err := NewEngine(kind, n, network.Config{
				Seed: 42, MinLatency: 1 * time.Millisecond, MaxLatency: 3 * time.Millisecond,
			}, Options{})
			if err != nil {
				return nil, err
			}
			res, err := Run(e, Workload{
				Seed: 7, Clients: 8, OpsPerClient: opsPerClient,
				Objects: 16, QueryFraction: 0.2, OpsPerUpdate: 2, ObjectsPerQuery: 2,
				Epsilon: divergence.Unlimited, Pace: 2 * time.Millisecond,
			})
			e.Close()
			if err != nil {
				return nil, fmt.Errorf("E1 %s/%d: %w", kind, n, err)
			}
			t.AddRowf(string(kind), n,
				fmt.Sprintf("%.0f", res.UpdateThroughput()),
				res.UpdateLatency.Mean.Round(10*time.Microsecond),
				res.UpdateLatency.P95.Round(10*time.Microsecond),
				res.UpdateErrors)
		}
	}
	return t, nil
}

// --- E2 ---

func runE2(quick bool) (*tabular.Table, error) {
	ops := 40
	if quick {
		ops = 15
	}
	epsilons := []divergence.Limit{0, 1, 2, 4, 8, divergence.Unlimited}
	t := tabular.New("E2: ORDUP query behaviour vs ε (3 replicas, 0.5–2ms links, 50/50 mix)",
		"ε", "queries", "qry mean", "qry p95", "inc mean", "inc max")
	for _, eps := range epsilons {
		e, err := NewEngine(ORDUPSeq, 3, network.Config{
			Seed: 11, MinLatency: 500 * time.Microsecond, MaxLatency: 2 * time.Millisecond,
		}, Options{})
		if err != nil {
			return nil, err
		}
		res, err := Run(e, Workload{
			Seed: 3, Clients: 6, OpsPerClient: ops,
			Objects: 4, QueryFraction: 0.5, OpsPerUpdate: 2, ObjectsPerQuery: 2,
			Epsilon: eps, Pace: time.Millisecond,
		})
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("E2 ε=%v: %w", eps, err)
		}
		t.AddRowf(eps, res.Queries,
			res.QueryLatency.Mean.Round(10*time.Microsecond),
			res.QueryLatency.P95.Round(10*time.Microsecond),
			fmt.Sprintf("%.2f", res.Inconsistency.Mean),
			res.Inconsistency.Max)
	}
	return t, nil
}

// --- E3 ---

// runE3 validates the divergence bound on a pair of objects that are
// always updated together (Inc(x,1)+Inc(y,1) in one ET).  Any torn state
// a query sees — |x−y| — is inconsistency it imported, and must be
// covered by its reported inconsistency counter (plus the updates that
// committed while the query was running).  Staleness of x behind the
// committed count is reported separately: a read of an older consistent
// prefix is serializable, not inconsistent (§2.1's overlap bounds error,
// and the conservative path trades freshness for consistency).
func runE3(quick bool) (*tabular.Table, error) {
	queries := 150
	if quick {
		queries = 50
	}
	t := tabular.New("E3: torn state bounded by the inconsistency counter (COMMU, 3 replicas, x and y updated together)",
		"ε", "queries", "|x−y| mean", "|x−y| max", "reported mean", "staleness mean", "violations")
	for _, eps := range []divergence.Limit{0, 2, 8, divergence.Unlimited} {
		e, err := NewEngine(COMMU, 3, network.Config{
			Seed: 5, MinLatency: 200 * time.Microsecond, MaxLatency: 1 * time.Millisecond,
		}, Options{})
		if err != nil {
			return nil, err
		}
		var committed atomic.Int64
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
				if _, err := e.Update(1, []op.Op{op.IncOp("x", 1), op.IncOp("y", 1)}); err == nil {
					committed.Add(1)
				}
				time.Sleep(300 * time.Microsecond)
			}
		}()
		var tornSum, tornMax, repSum, lagSum, violations int
		for i := 0; i < queries; i++ {
			before := committed.Load()
			res, err := e.Query(3, []string{"x", "y"}, eps)
			after := committed.Load()
			if err != nil {
				continue
			}
			torn := int(res.Value("x").Num - res.Value("y").Num)
			if torn < 0 {
				torn = -torn
			}
			tornSum += torn
			if torn > tornMax {
				tornMax = torn
			}
			repSum += res.Inconsistency
			if lag := int(before) - int(res.Value("x").Num); lag > 0 {
				lagSum += lag
			}
			// The reported counter plus the updates that committed while
			// the query ran bounds the torn state it may exhibit.
			if torn > res.Inconsistency+int(after-before) {
				violations++
			}
			time.Sleep(500 * time.Microsecond)
		}
		close(stop)
		wg.Wait()
		quiesceErr := e.Cluster().Quiesce(30 * time.Second)
		e.Close()
		if quiesceErr != nil {
			return nil, quiesceErr
		}
		t.AddRowf(eps, queries,
			fmt.Sprintf("%.2f", float64(tornSum)/float64(queries)),
			tornMax,
			fmt.Sprintf("%.2f", float64(repSum)/float64(queries)),
			fmt.Sprintf("%.2f", float64(lagSum)/float64(queries)),
			violations)
	}
	return t, nil
}

// --- E4 ---

func runE4(quick bool) (*tabular.Table, error) {
	updates := 40
	if quick {
		updates = 15
	}
	latencies := []time.Duration{200 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond}
	t := tabular.New("E4: convergence lag after last update vs link latency (4 replicas)",
		"method", "latency", "updates", "converged", "converge in")
	for _, kind := range AllMethods {
		build := AdditiveOps
		if kind == RITUSV {
			build = BlindWriteOps
		}
		for _, lat := range latencies {
			e, err := NewEngine(kind, 4, network.Config{Seed: 9, MinLatency: lat / 2, MaxLatency: lat}, Options{})
			if err != nil {
				return nil, err
			}
			res, err := Run(e, Workload{
				Seed: 1, Clients: 4, OpsPerClient: updates / 4,
				Objects: 4, QueryFraction: 0, OpsPerUpdate: 1,
				Build: build, Pace: lat / 2,
			})
			e.Close()
			if err != nil {
				return nil, fmt.Errorf("E4 %s/%v: %w", kind, lat, err)
			}
			t.AddRowf(string(kind), lat, res.Updates, res.Converged,
				res.ConvergeIn.Round(100*time.Microsecond))
		}
	}
	return t, nil
}

// --- E5 ---

func runE5(quick bool) (*tabular.Table, error) {
	window := 150 * time.Millisecond
	if quick {
		window = 60 * time.Millisecond
	}
	t := tabular.New("E5: operations completed during a 2|2 partition (4 replicas)",
		"method", "majority upd ok", "minority upd ok", "upd failed", "queries ok", "healed+converged in")
	for _, kind := range []EngineKind{COMMU, ORDUPSeq, TwoPC, QuorumMaj} {
		e, err := NewEngine(kind, 4, network.Config{Seed: 33, MinLatency: 100 * time.Microsecond, MaxLatency: 500 * time.Microsecond}, Options{})
		if err != nil {
			return nil, err
		}
		c := e.Cluster()
		c.Net.Partition([]clock.SiteID{1, 2, core.SequencerSite}, []clock.SiteID{3, 4})
		var majOK, minOK, updFail, qryOK atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for site := 1; site <= 4; site++ {
			wg.Add(1)
			go func(site int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := e.Update(clock.SiteID(site), []op.Op{op.IncOp("x", 1)}); err != nil {
						updFail.Add(1)
					} else if site <= 2 {
						majOK.Add(1)
					} else {
						minOK.Add(1)
					}
					if _, err := e.Query(clock.SiteID(site), []string{"x"}, divergence.Unlimited); err == nil {
						qryOK.Add(1)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}(site)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		c.Net.Heal()
		t0 := stopwatch.Start()
		healErr := c.Quiesce(30 * time.Second)
		healIn := t0.Elapsed()
		conv, _ := c.Converged()
		e.Close()
		if healErr != nil {
			return nil, fmt.Errorf("E5 %s heal: %w", kind, healErr)
		}
		if !conv {
			return nil, fmt.Errorf("E5 %s: replicas diverged after heal", kind)
		}
		t.AddRowf(string(kind), majOK.Load(), minOK.Load(), updFail.Load(), qryOK.Load(),
			healIn.Round(100*time.Microsecond))
	}
	return t, nil
}

// --- E6 ---

func runE6(quick bool) (*tabular.Table, error) {
	ops := 30
	if quick {
		ops = 12
	}
	t := tabular.New("E6: COMMU lock-counter limit sweep (3 replicas, 1–3ms links)",
		"limit", "updates", "upd mean", "upd errors", "inc mean", "inc max")
	for _, limit := range []int{0, 1, 2, 4, 8} {
		e, err := NewEngine(COMMU, 3, network.Config{
			Seed: 21, MinLatency: 1 * time.Millisecond, MaxLatency: 3 * time.Millisecond,
		}, Options{CounterLimit: limit})
		if err != nil {
			return nil, err
		}
		res, err := Run(e, Workload{
			Seed: 2, Clients: 6, OpsPerClient: ops,
			Objects: 2, QueryFraction: 0.4, OpsPerUpdate: 1, ObjectsPerQuery: 1,
			Epsilon: divergence.Unlimited, Pace: 500 * time.Microsecond,
		})
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("E6 limit=%d: %w", limit, err)
		}
		label := fmt.Sprint(limit)
		if limit == 0 {
			label = "∞"
		}
		t.AddRowf(label, res.Updates,
			res.UpdateLatency.Mean.Round(10*time.Microsecond),
			res.UpdateErrors,
			fmt.Sprintf("%.2f", res.Inconsistency.Mean),
			res.Inconsistency.Max)
	}
	return t, nil
}

// --- E7 ---

func runE7(quick bool) (*tabular.Table, error) {
	queries := 120
	if quick {
		queries = 40
	}
	t := tabular.New("E7: RITU multi-version reads vs ε (3 replicas, update stream on one object)",
		"ε", "stable reads", "fresh (paid) reads", "stale fallbacks", "inc mean")
	for _, eps := range []divergence.Limit{0, 1, 4, divergence.Unlimited} {
		eng, err := NewEngine(RITUMV, 3, network.Config{
			Seed: 8, MinLatency: 2 * time.Millisecond, MaxLatency: 8 * time.Millisecond,
		}, Options{})
		if err != nil {
			return nil, err
		}
		re := eng.(*ritu.Engine)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				re.Update(1, []op.Op{op.WriteOp("x", i)})
				time.Sleep(150 * time.Microsecond)
			}
		}()
		var stable, fresh, stale int
		var incSum int
		for i := 0; i < queries; i++ {
			// Query at the origin site, where new versions appear before
			// they stabilize across the cluster.
			res, err := re.Query(1, []string{"x"}, eps)
			if err != nil {
				continue
			}
			incSum += res.Inconsistency
			s := re.Cluster().Site(1)
			latest, beyond, ok := s.Store.ReadLatest("x")
			switch {
			case res.Inconsistency > 0:
				fresh++
			case ok && beyond && !res.Value("x").Equal(latest.Val):
				stale++
			default:
				stable++
			}
			time.Sleep(300 * time.Microsecond)
		}
		close(stop)
		wg.Wait()
		qerr := re.Cluster().Quiesce(30 * time.Second)
		re.Close()
		if qerr != nil {
			return nil, qerr
		}
		t.AddRowf(eps, stable, fresh, stale,
			fmt.Sprintf("%.2f", float64(incSum)/float64(queries)))
	}
	return t, nil
}

// --- E8 ---

func runE8(quick bool) (*tabular.Table, error) {
	batch := 40
	if quick {
		batch = 16
	}
	t := tabular.New("E8: compensation cost per abort (2 replicas, 25% aborts)",
		"mode", "commits", "aborts", "ops undone/abort", "ops redone/abort")
	for _, mode := range []compe.Mode{compe.Commutative, compe.General} {
		e, err := compe.New(compe.Config{
			Core: core.Config{Sites: 2, Net: network.Config{Seed: 3}},
			Mode: mode,
		})
		if err != nil {
			return nil, err
		}
		build := func(i int) op.Op {
			if mode == compe.General && i%2 == 0 {
				return op.MulOp("x", 2) // non-commutative mix forces full rollback
			}
			return op.IncOp("x", 1)
		}
		var pending []et.ID
		for i := 0; i < batch; i++ {
			id, err := e.Begin(clock.SiteID(i%2+1), []op.Op{build(i)})
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("E8 begin: %w", err)
			}
			pending = append(pending, id)
			// Let the forward MSets land before resolving, so an abort's
			// rollback crosses the later entries already applied on top.
			time.Sleep(2 * time.Millisecond)
			// Resolve an earlier ET: every 4th aborts, giving rollbacks
			// a suffix of later entries to cross.
			if len(pending) >= 3 {
				victim := pending[0]
				pending = pending[1:]
				if i%4 == 3 {
					if err := e.Abort(victim); err != nil {
						e.Close()
						return nil, fmt.Errorf("E8 abort: %w", err)
					}
				} else if err := e.Commit(victim); err != nil {
					e.Close()
					return nil, fmt.Errorf("E8 commit: %w", err)
				}
			}
		}
		for _, id := range pending {
			if err := e.Commit(id); err != nil {
				e.Close()
				return nil, fmt.Errorf("E8 drain commit: %w", err)
			}
		}
		if err := e.Cluster().Quiesce(30 * time.Second); err != nil {
			e.Close()
			return nil, err
		}
		st := e.Stats()
		conv, obj := e.Cluster().Converged()
		e.Close()
		if !conv {
			return nil, fmt.Errorf("E8 %v: diverged on %q", mode, obj)
		}
		perAbort := func(n uint64) string {
			if st.Aborts == 0 {
				return "0"
			}
			return fmt.Sprintf("%.1f", float64(n)/float64(st.Aborts))
		}
		t.AddRowf(mode, st.Commits, st.Aborts, perAbort(st.OpsUndon), perAbort(st.OpsRedon))
	}
	return t, nil
}

// --- E9 ---

func runE9(quick bool) (*tabular.Table, error) {
	rounds := 25
	if quick {
		rounds = 10
	}
	t := tabular.New("E9: ORDUP apply-everywhere delay by ordering source (3 replicas, 0.2–1ms links)",
		"ordering", "heartbeat", "visibility mean", "visibility p95")
	configs := []struct {
		kind EngineKind
		hb   time.Duration
	}{
		{ORDUPSeq, 0},
		{ORDUPLamport, 500 * time.Microsecond},
		{ORDUPLamport, 2 * time.Millisecond},
	}
	for _, cfg := range configs {
		eng, err := NewEngine(cfg.kind, 3, network.Config{
			Seed: 4, MinLatency: 200 * time.Microsecond, MaxLatency: 1 * time.Millisecond,
		}, Options{Heartbeat: cfg.hb})
		if err != nil {
			return nil, err
		}
		oe := eng.(*ordup.Engine)
		var delays []time.Duration
		for i := 0; i < rounds; i++ {
			t0 := stopwatch.Start()
			if _, err := oe.Update(clock.SiteID(i%3+1), []op.Op{op.IncOp("x", 1)}); err != nil {
				oe.Close()
				return nil, fmt.Errorf("E9 update: %w", err)
			}
			for oe.Outstanding() > 0 {
				time.Sleep(50 * time.Microsecond)
			}
			delays = append(delays, t0.Elapsed())
		}
		qerr := oe.Cluster().Quiesce(30 * time.Second)
		oe.Close()
		if qerr != nil {
			return nil, qerr
		}
		st := summarizeLatency(delays)
		hb := "n/a"
		if cfg.kind == ORDUPLamport {
			hb = cfg.hb.String()
		}
		name := "sequencer"
		if cfg.kind == ORDUPLamport {
			name = "lamport"
		}
		t.AddRowf(name, hb,
			st.Mean.Round(10*time.Microsecond), st.P95.Round(10*time.Microsecond))
	}
	return t, nil
}

// --- E10 ---

func runE10(bool) (*tabular.Table, error) {
	mk := func(class history.Class, et uint64, kind op.Kind, object string) history.Event {
		return history.Event{ET: et, Class: class, Op: op.Op{Kind: kind, Object: object, Arg: 1}}
	}
	events := []history.Event{
		mk(history.Update, 1, op.Read, "a"),
		mk(history.Update, 1, op.Write, "b"),
		mk(history.Update, 2, op.Write, "b"),
		mk(history.Query, 3, op.Read, "a"),
		mk(history.Update, 2, op.Write, "a"),
		mk(history.Query, 3, op.Read, "b"),
	}
	var l history.Log
	for _, e := range events {
		l.Append(e)
	}
	t := tabular.New("E10: the paper's example log (1)", "property", "value")
	t.AddRow("log", l.String())
	t.AddRowf("serializable (SR)", history.IsSerializable(events))
	t.AddRowf("epsilon-serial (ESR)", history.IsEpsilonSerial(events))
	order, _ := history.SerialOrder(history.DeleteQueries(events))
	t.AddRowf("serial order of update ETs", order)
	t.AddRowf("overlap of Q3", history.Overlap(events, 3))
	return t, nil
}

// --- E11 ---

// runE11 contrasts the two partition-repair philosophies of §5.3: the
// on-line path (COMMU keeps committing on both sides; stable queues
// drain at heal) against the off-line path (each side logs its updates
// and a repair tool merges the logs at reconnection).  Both must reach
// the identical state; the table reports what each pays.
func runE11(quick bool) (*tabular.Table, error) {
	perSide := 60
	if quick {
		perSide = 25
	}
	eng, err := NewEngine(COMMU, 4, network.Config{
		Seed: 77, MinLatency: 50 * time.Microsecond, MaxLatency: 400 * time.Microsecond,
	}, Options{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	c := eng.Cluster()
	c.Net.Partition([]clock.SiteID{1, 2, core.SequencerSite}, []clock.SiteID{3, 4})

	// Run the same update stream on both sides, logging each update as a
	// merge.Entry so the off-line path sees identical inputs.
	rng := rand.New(rand.NewSource(7))
	var logA, logB []merge.Entry
	record := func(side clock.SiteID, id et.ID, ts clock.Timestamp, ops []op.Op) {
		e := merge.Entry{ET: id, TS: ts, Ops: ops}
		if side <= 2 {
			logA = append(logA, e)
		} else {
			logB = append(logB, e)
		}
	}
	for i := 0; i < perSide; i++ {
		for _, side := range []clock.SiteID{1, 3} {
			obj := objName(rng.Intn(3))
			ops := []op.Op{op.IncOp(obj, int64(1+rng.Intn(5)))}
			id, err := eng.Update(side, ops)
			if err != nil {
				return nil, fmt.Errorf("E11 update: %w", err)
			}
			record(side, id, c.Site(side).Clock.Now(), ops)
		}
	}

	// On-line repair: heal and let the queues drain.
	c.Net.Heal()
	t0 := stopwatch.Start()
	if err := c.Quiesce(60 * time.Second); err != nil {
		return nil, fmt.Errorf("E11 heal quiesce: %w", err)
	}
	onlineRepair := t0.Elapsed()
	if ok, obj := c.Converged(); !ok {
		return nil, fmt.Errorf("E11: diverged on %q", obj)
	}
	onlineState := c.Site(1).Store.Snapshot()

	// Off-line repair: merge the two logs.
	t0 = stopwatch.Start()
	res := merge.Merge(logA, logB)
	offlineRepair := t0.Elapsed()

	match := true
	for obj, v := range onlineState {
		if !v.EqualUnordered(res.State[obj]) {
			match = false
		}
	}

	t := tabular.New("E11: partition repair, on-line ESR vs off-line log merge (2|2 partition)",
		"approach", "updates", "repair work", "repair time", "state matches")
	t.AddRowf("on-line (COMMU queues drain)", 2*perSide,
		"none at reconnect (continuous)", onlineRepair.Round(100*time.Microsecond), "—")
	t.AddRowf("off-line (log transformation)", 2*perSide,
		fmt.Sprintf("%d entries replayed, %d cross pairs checked, %d conflicts",
			res.Replayed, res.FreeMerges+res.Conflicts, res.Conflicts),
		offlineRepair.Round(time.Microsecond), match)
	return t, nil
}

// --- E12 ---

// runE12 studies contention skew: under a Zipf workload the hot object
// accumulates far more query-visible inconsistency than the tail, and a
// per-object ε specification (divergence.Spec) pins the hot object to
// serializable reads without penalizing reads of cold objects — the
// spatial-consistency dimension of the §5.1 taxonomy.
func runE12(quick bool) (*tabular.Table, error) {
	ops := 40
	if quick {
		ops = 15
	}
	t := tabular.New("E12: Zipf skew and per-object ε (COMMU, 3 replicas, obj-0 hottest)",
		"workload", "policy", "queries", "inc mean", "inc max", "qry mean")
	type cfg struct {
		label string
		skew  float64
		spec  divergence.Spec
	}
	hotStrict := divergence.Spec{
		Default:   divergence.Unlimited,
		PerObject: map[string]divergence.Limit{objName(0): 0},
	}
	for _, cc := range []cfg{
		{"uniform", 0, divergence.Uniform(divergence.Unlimited)},
		{"zipf s=1.5", 1.5, divergence.Uniform(divergence.Unlimited)},
		{"zipf s=1.5", 1.5, hotStrict},
	} {
		eng, err := NewEngine(COMMU, 3, network.Config{
			Seed: 14, MinLatency: 500 * time.Microsecond, MaxLatency: 2 * time.Millisecond,
		}, Options{})
		if err != nil {
			return nil, err
		}
		ce := eng.(*commu.Engine)
		// Background skewed update stream.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(3))
			var zipf *rand.Zipf
			if cc.skew > 1 {
				zipf = rand.NewZipf(rng, cc.skew, 1, 7)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(8)
				if zipf != nil {
					k = int(zipf.Uint64())
				}
				ce.Update(1, []op.Op{op.IncOp(objName(k), 1)})
				time.Sleep(300 * time.Microsecond)
			}
		}()
		var incSum, incMax, n int
		var latSum time.Duration
		rng := rand.New(rand.NewSource(9))
		var zipf *rand.Zipf
		if cc.skew > 1 {
			zipf = rand.NewZipf(rng, cc.skew, 1, 7)
		}
		for i := 0; i < ops*3; i++ {
			objs := pickObjects(rng, zipf, 8, 2)
			t0 := stopwatch.Start()
			res, err := ce.QuerySpec(2, objs, cc.spec)
			if err != nil {
				continue
			}
			latSum += t0.Elapsed()
			incSum += res.Inconsistency
			if res.Inconsistency > incMax {
				incMax = res.Inconsistency
			}
			n++
			time.Sleep(500 * time.Microsecond)
		}
		close(stop)
		wg.Wait()
		qerr := ce.Cluster().Quiesce(30 * time.Second)
		ce.Close()
		if qerr != nil {
			return nil, qerr
		}
		policy := "ε=∞ everywhere"
		if len(cc.spec.PerObject) > 0 {
			policy = "ε=0 on hot obj-0, ∞ elsewhere"
		}
		t.AddRowf(cc.label, policy, n,
			fmt.Sprintf("%.2f", float64(incSum)/float64(n)),
			incMax,
			(latSum / time.Duration(n)).Round(10*time.Microsecond))
	}
	return t, nil
}

// --- E13 ---

// runE13 ablates ORDUP's local divergence control: the same workload
// runs once under overlap pricing and once under basic timestamp
// ordering.  Both must keep the ε bound; they differ in how reads are
// priced (overlap pricing counts overlapping update ETs; TO counts
// out-of-order object observations) and in mechanism cost.  Neither
// takes a lock: queries are snapshot reads.
func runE13(quick bool) (*tabular.Table, error) {
	ops := 40
	if quick {
		ops = 15
	}
	t := tabular.New("E13: ORDUP scheduler ablation (3 replicas, 0.5–2ms links, ε=2)",
		"scheduler", "queries", "qry mean", "inc mean", "inc max", "TO decisions (acc/chg)")
	for _, sched := range []ordup.Scheduler{ordup.TwoPhaseLocking, ordup.TimestampOrdering} {
		e, err := ordup.New(ordup.Config{
			Core: core.Config{Sites: 3, Net: network.Config{
				Seed: 19, MinLatency: 500 * time.Microsecond, MaxLatency: 2 * time.Millisecond,
			}},
			Ordering:  ordup.Sequencer,
			Scheduler: sched,
		})
		if err != nil {
			return nil, err
		}
		res, err := Run(e, Workload{
			Seed: 4, Clients: 6, OpsPerClient: ops,
			Objects: 4, QueryFraction: 0.5, OpsPerUpdate: 2, ObjectsPerQuery: 2,
			Epsilon: 2, Pace: time.Millisecond,
		})
		var decisions string
		if sched == ordup.TimestampOrdering {
			var acc, chg uint64
			for _, id := range e.Cluster().SiteIDs() {
				st := e.SchedulerStats(id)
				acc += st.Accepted
				chg += st.Charged
			}
			decisions = fmt.Sprintf("%d/%d", acc, chg)
		} else {
			decisions = "n/a"
		}
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("E13 %v: %w", sched, err)
		}
		t.AddRowf(sched, res.Queries,
			res.QueryLatency.Mean.Round(10*time.Microsecond),
			fmt.Sprintf("%.2f", res.Inconsistency.Mean),
			res.Inconsistency.Max,
			decisions)
	}
	return t, nil
}

// --- E14 ---

// runE14 sweeps the link loss rate: exactly-once application must hold
// at every rate (no lost or doubled updates), with convergence lag as
// the only casualty — the price of the delivery agent's retry/backoff.
func runE14(quick bool) (*tabular.Table, error) {
	updates := 40
	if quick {
		updates = 20
	}
	t := tabular.New("E14: loss-rate sweep (COMMU, 3 replicas, 0.1–0.5ms links)",
		"loss rate", "updates", "exactly once", "messages lost", "converge in")
	for _, loss := range []float64{0, 0.1, 0.3, 0.5} {
		eng, err := NewEngine(COMMU, 3, network.Config{
			Seed: 31, MinLatency: 100 * time.Microsecond, MaxLatency: 500 * time.Microsecond,
			LossRate: loss,
		}, Options{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < updates; i++ {
			if _, err := eng.Update(clock.SiteID(i%3+1), []op.Op{op.IncOp("x", 1)}); err != nil {
				eng.Close()
				return nil, fmt.Errorf("E14 update: %w", err)
			}
		}
		t0 := stopwatch.Start()
		if err := eng.Cluster().Quiesce(60 * time.Second); err != nil {
			eng.Close()
			return nil, fmt.Errorf("E14 loss=%.1f: %w", loss, err)
		}
		convergeIn := t0.Elapsed()
		exact := true
		for _, sid := range eng.Cluster().SiteIDs() {
			if eng.Cluster().Site(sid).Store.Get("x").Num != int64(updates) {
				exact = false
			}
		}
		lost := eng.Cluster().Net.Stats().Lost
		eng.Close()
		t.AddRowf(fmt.Sprintf("%.0f%%", loss*100), updates, exact, lost,
			convergeIn.Round(100*time.Microsecond))
	}
	return t, nil
}
