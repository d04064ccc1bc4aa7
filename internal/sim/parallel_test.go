package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
)

// Parallel-apply equivalence: the worker pool may only exploit
// commutativity, never change outcomes.  Each method runs the same
// seeded update stream twice — serial apply and an 8-worker pool — and
// the converged result must be identical: per-site stores, per-site
// applied counts, and the epsilon accounting of a post-quiescence
// query.  In both runs every site's version chains must end where its
// store does.  A hot-key COMMU stream then checks that commuting applies
// to one object never interleave: the object's chain stays strictly
// increasing and ends at the store's value.  `make race` runs this test
// under the race detector.

const (
	peWorkers = 8
	peUpdates = 240
	peBurst   = 16
	pePool    = 13
)

// peStream builds the method's deterministic update stream: a seeded
// mix of commuting updates over a small object pool plus, where the
// method admits one with a deterministic converged state, a conflicting
// stream on a single hot object (so multi-item conflict groups form).
func peStream(kind EngineKind, seed int64) [][]op.Op {
	rng := rand.New(rand.NewSource(seed))
	stream := make([][]op.Op, peUpdates)
	for i := range stream {
		obj := fmt.Sprintf("obj-%03d", rng.Intn(pePool))
		switch kind {
		case RITUSV, RITUMV:
			// Blind writes: Thomas' write rule converges on the
			// max-timestamp write whatever the apply order.  Every third
			// write hits the hot object, so same-object non-commuting
			// writes share a conflict group.
			if i%3 == 0 {
				obj = "hot"
			}
			stream[i] = []op.Op{op.WriteOp(obj, int64(rng.Intn(1000)))}
		case ORDUPSeq, ORDUPLamport:
			// The global order makes even non-commuting blind writes
			// converge deterministically: the highest sequence wins.
			if i%3 == 0 {
				stream[i] = []op.Op{op.WriteOp("hot", int64(i))}
			} else {
				stream[i] = []op.Op{op.IncOp(obj, int64(1+rng.Intn(9)))}
			}
		default:
			// COMMU / COMPE admit only the commutative families; distinct
			// UnorderedAppend tokens keep the hot list deterministic as a
			// multiset.
			switch {
			case i%3 == 0:
				stream[i] = []op.Op{op.UAppendOp("hot-list", fmt.Sprintf("tok-%04d", i))}
			case rng.Intn(2) == 0:
				stream[i] = []op.Op{op.IncOp(obj, int64(1+rng.Intn(9)))}
			default:
				stream[i] = []op.Op{op.DecOp(obj, int64(1+rng.Intn(9)))}
			}
		}
	}
	return stream
}

type peOutcome struct {
	applied map[clock.SiteID]uint64
	state   map[clock.SiteID]map[string]op.Value
	query   map[string]op.Value
	units   int
}

// peRun drives one cluster through the stream and snapshots everything
// the two runs must agree on.
func peRun(t *testing.T, kind EngineKind, stream [][]op.Op, workers int) peOutcome {
	t.Helper()
	eng, err := NewEngine(kind, 3,
		network.Config{Seed: 77, MinLatency: 5 * time.Microsecond, MaxLatency: 100 * time.Microsecond},
		Options{ApplyWorkers: workers})
	if err != nil {
		t.Fatalf("NewEngine(%s, workers=%d): %v", kind, workers, err)
	}
	defer eng.Close()
	bu, ok := eng.(BurstUpdater)
	if !ok {
		t.Fatalf("%s does not support bursts", kind)
	}
	for done := 0; done < len(stream); done += peBurst {
		end := done + peBurst
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := bu.UpdateBurst(1, stream[done:end]); err != nil {
			t.Fatalf("%s workers=%d burst: %v", kind, workers, err)
		}
	}
	c := eng.Cluster()
	if err := c.Quiesce(60 * time.Second); err != nil {
		t.Fatalf("%s workers=%d quiesce: %v", kind, workers, err)
	}
	if ok, why := c.Converged(); !ok {
		t.Fatalf("%s workers=%d did not converge: %s", kind, workers, why)
	}
	peChainsMatchStore(t, fmt.Sprintf("%s workers=%d", kind, workers), c)
	out := peOutcome{
		applied: make(map[clock.SiteID]uint64),
		state:   make(map[clock.SiteID]map[string]op.Value),
	}
	for _, id := range c.SiteIDs() {
		s := c.Site(id)
		out.applied[id] = s.Stats().Applied
		out.state[id] = s.Store.Snapshot()
	}
	objs := []string{"hot", "hot-list"}
	for i := 0; i < pePool; i++ {
		objs = append(objs, fmt.Sprintf("obj-%03d", i))
	}
	res, err := eng.Query(2, objs, divergence.Limit(1<<20))
	if err != nil {
		t.Fatalf("%s workers=%d query: %v", kind, workers, err)
	}
	out.query = res.Values
	out.units = res.Inconsistency
	return out
}

// peEqualValues compares state maps: numeric values exactly, list
// values as multisets (the convergence predicate for UnorderedAppend).
func peEqualValues(t *testing.T, label string, a, b map[string]op.Value) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %d objects vs %d", label, len(a), len(b))
	}
	for obj, av := range a {
		bv, ok := b[obj]
		if !ok {
			t.Errorf("%s: object %q missing from parallel run", label, obj)
			continue
		}
		equal := av.Equal(bv)
		if av.Kind == op.List {
			equal = av.EqualUnordered(bv)
		}
		if !equal {
			t.Errorf("%s: object %q diverged: serial=%+v parallel=%+v", label, obj, av, bv)
		}
	}
}

// peChainsMatchStore checks that at every site each object's newest
// version is the store's value: snapshot reads read the chain, plain
// reads the store, and at quiescence the two must agree.
func peChainsMatchStore(t *testing.T, label string, c *core.Cluster) {
	t.Helper()
	for _, id := range c.SiteIDs() {
		s := c.Site(id)
		objs := map[string]bool{}
		for _, obj := range s.Store.Objects() {
			objs[obj] = true
		}
		for _, obj := range s.MV.Objects() {
			objs[obj] = true
		}
		for obj := range objs {
			v, _, ok := s.MV.ReadLatest(obj)
			if want := s.Store.Get(obj); !ok || !v.Val.Equal(want) {
				t.Errorf("%s: site %d object %q: chain latest %v (ok=%v), store %v", label, id, obj, v.Val, ok, want)
			}
		}
	}
}

// Hot-key stream: every origin increments one object in bursts, so each
// window holds many commuting MSets that name it.
const (
	hkObject  = "x"
	hkRounds  = 5
	hkBursts  = 40
	hkWorkers = 4
)

// peHotKey runs the hot-key stream on COMMU and checks every site's
// chain for the object while each round runs and after it quiesces.
func peHotKey(t *testing.T) {
	eng, err := NewEngine(COMMU, 3,
		network.Config{Seed: 77, MinLatency: 5 * time.Microsecond, MaxLatency: 100 * time.Microsecond},
		Options{ApplyWorkers: hkWorkers})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	bu := eng.(BurstUpdater)
	c := eng.Cluster()
	burst := make([][]op.Op, peBurst)
	for i := range burst {
		burst[i] = []op.Op{op.IncOp(hkObject, 1)}
	}
	for round := 1; round <= hkRounds; round++ {
		// Every version is a past state of the store, so the chain
		// increases at every instant, not only at quiescence; a later
		// install may hide a crossed pair, so watch while applies run.
		done := make(chan struct{})
		watched := make(chan string, 1)
		go func() {
			defer close(watched)
			for {
				for _, id := range c.SiteIDs() {
					if bad := hkDecrease(c.Site(id)); bad != "" {
						watched <- fmt.Sprintf("site %d: %s", id, bad)
						return
					}
				}
				select {
				case <-done:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		var wg sync.WaitGroup
		errs := make(chan error, len(c.SiteIDs()))
		for _, origin := range c.SiteIDs() {
			wg.Add(1)
			go func(origin clock.SiteID) {
				defer wg.Done()
				for b := 0; b < hkBursts; b++ {
					if _, err := bu.UpdateBurst(origin, burst); err != nil {
						errs <- err
						return
					}
				}
			}(origin)
		}
		wg.Wait()
		close(errs)
		qerr := c.Quiesce(60 * time.Second)
		close(done)
		if bad, ok := <-watched; ok {
			t.Errorf("round %d, while applying: chain not strictly increasing at %s", round, bad)
		}
		for err := range errs {
			t.Fatalf("round %d burst: %v", round, err)
		}
		if qerr != nil {
			t.Fatalf("round %d quiesce: %v", round, qerr)
		}
		want := int64(round * hkBursts * peBurst * len(c.SiteIDs()))
		for _, id := range c.SiteIDs() {
			s := c.Site(id)
			if got := s.Store.Get(hkObject); got.Num != want {
				t.Errorf("round %d site %d: store %v, want %d", round, id, got, want)
			}
			if bad := hkDecrease(s); bad != "" {
				t.Errorf("round %d site %d: chain not strictly increasing: %s", round, id, bad)
			}
		}
		peChainsMatchStore(t, fmt.Sprintf("hot key round %d", round), c)
		if t.Failed() {
			return
		}
	}
}

// hkDecrease describes the first version of the site's hot-object chain
// that does not exceed its predecessor, or returns "".
func hkDecrease(s *replica.Site) string {
	chain := s.MV.Versions(hkObject)
	for i := 1; i < len(chain); i++ {
		if chain[i].Val.Num <= chain[i-1].Val.Num {
			return fmt.Sprintf("%v at %v after %v at %v", chain[i].Val, chain[i].TS, chain[i-1].Val, chain[i-1].TS)
		}
	}
	return ""
}

func TestParallelApplyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence runs full clusters")
	}
	// The hot-key stream runs alone, before the parallel subtests.
	t.Run("commu-hot-key", peHotKey)
	for _, kind := range AllMethods {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			stream := peStream(kind, 41)
			serial := peRun(t, kind, stream, 1)
			parallel := peRun(t, kind, stream, peWorkers)
			for id, want := range serial.applied {
				if got := parallel.applied[id]; got != want {
					t.Errorf("site %d applied %d MSets with %d workers, %d serially", id, got, peWorkers, want)
				}
			}
			for id, want := range serial.state {
				peEqualValues(t, fmt.Sprintf("site %d store", id), want, parallel.state[id])
			}
			peEqualValues(t, "query values", serial.query, parallel.query)
			if serial.units != parallel.units {
				t.Errorf("query imported %d inconsistency units with %d workers, %d serially",
					parallel.units, peWorkers, serial.units)
			}
		})
	}
}
