// Benchmarks mirroring the experiment index in DESIGN.md: one bench
// family per paper table (T1–T3) and per quantitative experiment
// (E1–E14), the testing.B view of the tables the esrbench binary
// prints.  They are for measuring while working; the repository's
// performance figures come from benchmark/ (bash benchmark/run.sh).
package esr

import (
	"fmt"
	"testing"
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
	"esr/internal/sim"
)

// --- T1: method traits (Table 1) ---

func BenchmarkT1Traits(b *testing.B) {
	e, err := sim.NewEngine(sim.COMMU, 1, network.Config{Seed: 1}, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Traits().Name == "" {
			b.Fatal("empty traits")
		}
	}
}

// --- T2/T3: lock compatibility tables ---

func BenchmarkT2CompatibilityORDUP(b *testing.B) {
	benchCompat(b, lock.ORDUP)
}

func BenchmarkT3CompatibilityCOMMU(b *testing.B) {
	benchCompat(b, lock.COMMU)
}

func benchCompat(b *testing.B, table lock.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, h := range lock.Modes {
			for _, r := range lock.Modes {
				_ = table.Compatibility(h, r)
			}
		}
	}
}

// --- E1: update path, per method and replication degree ---

func BenchmarkE1Update(b *testing.B) {
	kinds := []sim.EngineKind{sim.COMMU, sim.ORDUPSeq, sim.TwoPC, sim.QuorumMaj}
	for _, kind := range kinds {
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/replicas=%d", kind, n), func(b *testing.B) {
				e, err := sim.NewEngine(kind, n, network.Config{Seed: 1}, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if err := e.Cluster().Quiesce(60 * time.Second); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// --- E2: query path per ε under concurrent updates ---

func BenchmarkE2Query(b *testing.B) {
	for _, eps := range []divergence.Limit{0, 2, divergence.Unlimited} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			e, err := sim.NewEngine(sim.ORDUPSeq, 3, network.Config{Seed: 1}, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			stop := make(chan struct{})
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					e.Update(1, []op.Op{op.IncOp("x", 1), op.IncOp("y", 1)})
					time.Sleep(200 * time.Microsecond)
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(2, []string{"x", "y"}, eps); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			if err := e.Cluster().Quiesce(60 * time.Second); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- E3: the priced (divergence-accounted) COMMU read ---

func BenchmarkE3AccountedRead(b *testing.B) {
	e, err := sim.NewEngine(sim.COMMU, 3, network.Config{Seed: 1}, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Update(1, []op.Op{op.IncOp("x", 1)})
	e.Cluster().Quiesce(10 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(2, []string{"x"}, divergence.Limit(4)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: propagate-and-converge cycle per method ---

func BenchmarkE4Convergence(b *testing.B) {
	for _, kind := range sim.AllMethods {
		b.Run(string(kind), func(b *testing.B) {
			e, err := sim.NewEngine(kind, 4, network.Config{Seed: 1}, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			mkOp := func(i int) op.Op {
				if kind == sim.RITUSV {
					return op.WriteOp("x", int64(i))
				}
				return op.IncOp("x", 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Update(1, []op.Op{mkOp(i)}); err != nil {
					b.Fatal(err)
				}
				if err := e.Cluster().Quiesce(60 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: partition/heal reconciliation cycle ---

func BenchmarkE5HealReconcile(b *testing.B) {
	e, err := sim.NewEngine(sim.COMMU, 4, network.Config{Seed: 1}, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	c := e.Cluster()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Net.Partition([]clock.SiteID{1, 2, core.SequencerSite}, []clock.SiteID{3, 4})
		e.Update(1, []op.Op{op.IncOp("x", 1)})
		e.Update(3, []op.Op{op.IncOp("x", 1)})
		c.Net.Heal()
		if err := c.Quiesce(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: throttled COMMU update ---

func BenchmarkE6ThrottledUpdate(b *testing.B) {
	for _, limit := range []int{0, 4} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			e, err := sim.NewEngine(sim.COMMU, 3, network.Config{Seed: 1}, sim.Options{CounterLimit: limit})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			e.Cluster().Quiesce(60 * time.Second)
		})
	}
}

// --- E7: RITU multi-version reads, stable vs ε-paid fresh ---

func BenchmarkE7MVRead(b *testing.B) {
	for _, eps := range []divergence.Limit{0, 1} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			e, err := sim.NewEngine(sim.RITUMV, 3, network.Config{Seed: 1}, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 10; i++ {
				e.Update(1, []op.Op{op.WriteOp("x", int64(i))})
			}
			e.Cluster().Quiesce(10 * time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(2, []string{"x"}, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: abort + compensation, commutative vs general discipline ---

func BenchmarkE8Compensation(b *testing.B) {
	for _, mode := range []compe.Mode{compe.Commutative, compe.General} {
		b.Run(mode.String(), func(b *testing.B) {
			e, err := compe.New(compe.Config{
				Core: core.Config{Sites: 2, Net: network.Config{Seed: 1}},
				Mode: mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := e.Begin(1, []op.Op{op.IncOp("x", 1)})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Abort(id); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := e.Cluster().Quiesce(60 * time.Second); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- E9: ORDUP apply-everywhere visibility per ordering source ---

func BenchmarkE9Visibility(b *testing.B) {
	configs := []struct {
		name string
		kind sim.EngineKind
	}{
		{"sequencer", sim.ORDUPSeq},
		{"lamport", sim.ORDUPLamport},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			e, err := sim.NewEngine(cfg.kind, 3, network.Config{Seed: 1}, sim.Options{Heartbeat: 200 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			oe := e.(*ordup.Engine)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oe.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
					b.Fatal(err)
				}
				for oe.Outstanding() > 0 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		})
	}
}

// --- E10: the correctness checkers themselves ---

func BenchmarkE10Checkers(b *testing.B) {
	events := []history.Event{
		{ET: 1, Class: history.Update, Op: op.ReadOp("a")},
		{ET: 1, Class: history.Update, Op: op.WriteOp("b", 1)},
		{ET: 2, Class: history.Update, Op: op.WriteOp("b", 1)},
		{ET: 3, Class: history.Query, Op: op.ReadOp("a")},
		{ET: 2, Class: history.Update, Op: op.WriteOp("a", 1)},
		{ET: 3, Class: history.Query, Op: op.ReadOp("b")},
	}
	b.Run("IsSerializable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if history.IsSerializable(events) {
				b.Fatal("paper log (1) must not be SR")
			}
		}
	})
	b.Run("IsEpsilonSerial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !history.IsEpsilonSerial(events) {
				b.Fatal("paper log (1) must be ε-serial")
			}
		}
	})
	b.Run("Overlap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(history.Overlap(events, 3)) != 1 {
				b.Fatal("overlap of Q3 must be {U2}")
			}
		}
	})
}

// --- E11: off-line log merge cost ---

func BenchmarkE11LogMerge(b *testing.B) {
	mkLog := func(side clock.SiteID, n int) []merge.Entry {
		out := make([]merge.Entry, n)
		for i := range out {
			out[i] = merge.Entry{
				ET:  et.MakeID(side, uint64(i+1)),
				TS:  clock.Timestamp{Time: uint64(i*2) + uint64(side), Site: side},
				Ops: []op.Op{op.IncOp("x", 1)},
			}
		}
		return out
	}
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			a, c := mkLog(1, n), mkLog(2, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := merge.Merge(a, c)
				if res.Replayed != 2*n {
					b.Fatal("merge replayed wrong count")
				}
			}
		})
	}
}

// --- E12: per-object spec query ---

func BenchmarkE12SpecQuery(b *testing.B) {
	e, err := sim.NewEngine(sim.COMMU, 3, network.Config{Seed: 1}, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ce := e.(*commu.Engine)
	ce.Update(1, []op.Op{op.IncOp("hot", 1), op.IncOp("cold", 1)})
	e.Cluster().Quiesce(10 * time.Second)
	spec := divergence.Spec{
		Default:   divergence.Unlimited,
		PerObject: map[string]divergence.Limit{"hot": 0},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ce.QuerySpec(2, []string{"hot", "cold"}, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: scheduler ablation, the TO query path ---

func BenchmarkE13TOQuery(b *testing.B) {
	e, err := ordup.New(ordup.Config{
		Core:      core.Config{Sites: 2, Net: network.Config{Seed: 1}},
		Ordering:  ordup.Sequencer,
		Scheduler: ordup.TimestampOrdering,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.Update(1, []op.Op{op.IncOp("x", 1)})
	e.Cluster().Quiesce(10 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(2, []string{"x"}, divergence.Limit(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: update round trip on a lossy link (retry/backoff cost) ---

func BenchmarkE14LossyDelivery(b *testing.B) {
	for _, loss := range []float64{0, 0.3} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			e, err := sim.NewEngine(sim.COMMU, 2, network.Config{Seed: 1, LossRate: loss}, sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := e.Cluster().Quiesce(60 * time.Second); err != nil {
				b.Fatal(err)
			}
		})
	}
}
