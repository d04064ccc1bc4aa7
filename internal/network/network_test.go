package network

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esr/internal/clock"
)

// mustSim builds a simulator transport or aborts the test.
func mustSim(tb testing.TB, cfg Config) *Sim {
	tb.Helper()
	tr, err := New(cfg)
	if err != nil {
		tb.Fatalf("New(%+v): %v", cfg, err)
	}
	return tr
}

func echoHandler(calls *atomic.Int64) Handler {
	return func(from clock.SiteID, payload []byte) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		return payload, nil
	}
}

func TestSendDelivers(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	var calls atomic.Int64
	tr.Register(2, echoHandler(&calls))
	if err := tr.Send(1, 2, []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("handler called %d times, want 1", calls.Load())
	}
	st := tr.Stats()
	if st.Delivered != 1 || st.Bytes != 5 {
		t.Errorf("stats = %+v, want Delivered=1 Bytes=5", st)
	}
}

func TestCallRoundTrip(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	tr.Register(2, func(from clock.SiteID, p []byte) ([]byte, error) {
		return append([]byte("re:"), p...), nil
	})
	resp, err := tr.Call(1, 2, []byte("q"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "re:q" {
		t.Errorf("Call response = %q, want %q", resp, "re:q")
	}
}

func TestUnknownSite(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	if err := tr.Send(1, 9, nil); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("Send to unknown site = %v, want ErrUnknownSite", err)
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	var calls atomic.Int64
	tr.Register(1, echoHandler(nil))
	tr.Register(2, echoHandler(&calls))
	tr.Register(3, echoHandler(&calls))

	tr.Partition([]clock.SiteID{1}, []clock.SiteID{2, 3})
	if err := tr.Send(1, 2, nil); !errors.Is(err, ErrPartitioned) {
		t.Errorf("cross-partition Send = %v, want ErrPartitioned", err)
	}
	if err := tr.Send(2, 1, nil); !errors.Is(err, ErrPartitioned) {
		t.Errorf("cross-partition Send the other way = %v, want ErrPartitioned", err)
	}
	if err := tr.Send(2, 3, nil); err != nil {
		t.Errorf("intra-partition Send = %v, want nil", err)
	}

	tr.Heal()
	if err := tr.Send(1, 2, nil); err != nil {
		t.Errorf("Send after Heal = %v, want nil", err)
	}
}

func TestCrashAndRestart(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	tr.Register(2, echoHandler(nil))
	tr.Crash(2)
	if err := tr.Send(1, 2, nil); !errors.Is(err, ErrSiteDown) {
		t.Errorf("Send to crashed site = %v, want ErrSiteDown", err)
	}
	if err := tr.Send(2, 1, nil); !errors.Is(err, ErrSiteDown) {
		t.Errorf("Send from crashed site = %v, want ErrSiteDown", err)
	}
	tr.Restart(2)
	if err := tr.Send(1, 2, nil); err != nil {
		t.Errorf("Send after Restart = %v, want nil", err)
	}
}

func TestLossRateDropsSome(t *testing.T) {
	tr := mustSim(t, Config{Seed: 7, LossRate: 0.5})
	tr.Register(2, echoHandler(nil))
	var lost, ok int
	for i := 0; i < 200; i++ {
		if err := tr.Send(1, 2, []byte{1}); errors.Is(err, ErrLost) {
			lost++
		} else if err == nil {
			ok++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if lost == 0 || ok == 0 {
		t.Errorf("with LossRate=0.5 expected both outcomes, got lost=%d ok=%d", lost, ok)
	}
	st := tr.Stats()
	if st.Lost != uint64(lost) || st.Delivered != uint64(ok) {
		t.Errorf("stats %+v disagree with observed lost=%d ok=%d", st, lost, ok)
	}
}

func TestLatencyApplied(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1, MinLatency: 5 * time.Millisecond, MaxLatency: 5 * time.Millisecond})
	tr.Register(2, echoHandler(nil))
	start := time.Now()
	if err := tr.Send(1, 2, nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("Send took %v, want >= 5ms one-way latency", d)
	}
	start = time.Now()
	if _, err := tr.Call(1, 2, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("Call took %v, want >= 10ms round trip", d)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	errBoom := errors.New("boom")
	tr.Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, errBoom })
	if err := tr.Send(1, 2, nil); !errors.Is(err, errBoom) {
		t.Errorf("Send = %v, want handler error", err)
	}
	st := tr.Stats()
	if st.Delivered != 0 {
		t.Errorf("failed handler must not count as delivered: %+v", st)
	}
}

func TestConcurrentSends(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1, MinLatency: time.Microsecond, MaxLatency: 100 * time.Microsecond})
	var calls atomic.Int64
	for s := clock.SiteID(1); s <= 4; s++ {
		tr.Register(s, echoHandler(&calls))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := clock.SiteID(g%4 + 1)
				to := clock.SiteID((g+1)%4 + 1)
				if err := tr.Send(from, to, []byte{byte(i)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if calls.Load() != 400 {
		t.Errorf("delivered %d, want 400", calls.Load())
	}
}

func TestDeterministicLatencySampling(t *testing.T) {
	sample := func() []time.Duration {
		tr := mustSim(t, Config{Seed: 99, MinLatency: time.Millisecond, MaxLatency: 10 * time.Millisecond})
		var out []time.Duration
		for i := 0; i < 20; i++ {
			tr.mu.Lock()
			out = append(out, tr.sampleLatencyLocked())
			tr.mu.Unlock()
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different latency sequences at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Millisecond || a[i] >= 10*time.Millisecond {
			t.Fatalf("latency %v out of configured range", a[i])
		}
	}
}

func TestPartitionUnmentionedSitesStayInGroupZero(t *testing.T) {
	tr := mustSim(t, Config{Seed: 1})
	for s := clock.SiteID(1); s <= 3; s++ {
		tr.Register(s, echoHandler(nil))
	}
	tr.Partition([]clock.SiteID{1}, []clock.SiteID{2}) // site 3 unmentioned → group 0 with site 1
	if err := tr.Send(1, 3, nil); err != nil {
		t.Errorf("unmentioned site should share group 0 with first group: Send = %v", err)
	}
	if err := tr.Send(2, 3, nil); !errors.Is(err, ErrPartitioned) {
		t.Errorf("site 2 is isolated from group 0: Send = %v, want ErrPartitioned", err)
	}
}
