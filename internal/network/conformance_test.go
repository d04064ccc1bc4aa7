package network

// The transport conformance suite: one table of behaviors every
// Transport implementation must exhibit, executed against both the
// in-process simulator and the TCP transport on loopback.  The suite is
// what lets the rest of the system (core, the replica chassis, the
// experiment harness) treat the two interchangeably: at-least-once
// delivery with implicit acks, all-or-nothing batch frames, sentinel
// errors that survive the wire, and fault hooks with identical
// semantics.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"esr/internal/clock"
	"esr/internal/trace"
)

// confMesh is one transport deployment under test: view(s) returns the
// Transport to use when acting as site s (the simulator is one shared
// instance; TCP is one instance per site wired into a full loopback
// mesh), all lists every instance (fault hooks apply everywhere, stats
// sum over instances), and close tears the mesh down.
type confMesh struct {
	view  func(s clock.SiteID) Transport
	all   []Transport
	close func()
}

// partition applies a partitioning to every instance's local view.
func (m *confMesh) partition(groups ...[]clock.SiteID) {
	for _, tr := range m.all {
		tr.Partition(groups...)
	}
}

func (m *confMesh) heal() {
	for _, tr := range m.all {
		tr.Heal()
	}
}

func (m *confMesh) crash(s clock.SiteID) {
	for _, tr := range m.all {
		tr.Crash(s)
	}
}

func (m *confMesh) restart(s clock.SiteID) {
	for _, tr := range m.all {
		tr.Restart(s)
	}
}

// stats sums the per-instance statistics.  Sent is counted on the
// sender and Delivered/Bytes/Frames on the receiver, so the sums are
// comparable across the single-instance simulator and the TCP mesh.
func (m *confMesh) stats() Stats {
	var sum Stats
	for _, tr := range m.all {
		st := tr.Stats()
		sum.Sent += st.Sent
		sum.Delivered += st.Delivered
		sum.Lost += st.Lost
		sum.Partitioned += st.Partitioned
		sum.Bytes += st.Bytes
		sum.Frames += st.Frames
		sum.Dials += st.Dials
	}
	return sum
}

// meshBuilders enumerates the implementations under conformance test.
var meshBuilders = []struct {
	name  string
	build func(t *testing.T, sites []clock.SiteID) *confMesh
}{
	{"Sim", buildSimMesh},
	{"TCP", buildTCPMesh},
}

func buildSimMesh(t *testing.T, sites []clock.SiteID) *confMesh {
	t.Helper()
	tr := mustSim(t, Config{Seed: 1})
	return &confMesh{
		view:  func(clock.SiteID) Transport { return tr },
		all:   []Transport{tr},
		close: func() { tr.Close() },
	}
}

func buildTCPMesh(t *testing.T, sites []clock.SiteID) *confMesh {
	t.Helper()
	instances := make(map[clock.SiteID]*TCP, len(sites))
	all := make([]Transport, 0, len(sites))
	for _, s := range sites {
		tr, err := NewTCP(TCPOptions{
			Listen: "127.0.0.1:0",
			Local:  []clock.SiteID{s},
			Seed:   int64(s),
		})
		if err != nil {
			t.Fatalf("NewTCP(site %v): %v", s, err)
		}
		instances[s] = tr
		all = append(all, tr)
	}
	for _, a := range sites {
		for _, b := range sites {
			if a != b {
				instances[a].AddPeer(b, instances[b].Addr())
			}
		}
	}
	return &confMesh{
		view: func(s clock.SiteID) Transport {
			tr, ok := instances[s]
			if !ok {
				t.Fatalf("no TCP instance for site %v", s)
			}
			return tr
		},
		all: all,
		close: func() {
			for _, tr := range all {
				tr.Close()
			}
		},
	}
}

// send delivers one message as a frame of one, the way every caller
// of a Transport sends.
func send(tr Transport, from, to clock.SiteID, p []byte) error {
	return tr.SendBatch(from, to, [][]byte{p})
}

// runConformance runs one behavior against every implementation.
func runConformance(t *testing.T, sites []clock.SiteID, fn func(t *testing.T, m *confMesh)) {
	t.Helper()
	for _, b := range meshBuilders {
		t.Run(b.name, func(t *testing.T) {
			m := b.build(t, sites)
			defer m.close()
			fn(t, m)
		})
	}
}

func TestConformanceDelivery(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		var got atomic.Int64
		m.view(2).Register(2, func(from clock.SiteID, p []byte) ([]byte, error) {
			if from != 1 || string(p) != "hello" {
				t.Errorf("handler got from=%v payload=%q", from, p)
			}
			got.Add(1)
			return nil, nil
		})
		if err := send(m.view(1), 1, 2, []byte("hello")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if got.Load() != 1 {
			t.Fatalf("handler ran %d times, want 1", got.Load())
		}
		st := m.stats()
		if st.Sent != 1 || st.Delivered != 1 || st.Bytes != 5 {
			t.Errorf("stats = %+v, want Sent=1 Delivered=1 Bytes=5", st)
		}
	})
}

func TestConformanceCall(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		m.view(2).Register(2, func(from clock.SiteID, p []byte) ([]byte, error) {
			return append([]byte("re:"), p...), nil
		})
		resp, err := m.view(1).Call(1, 2, []byte("q"))
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if string(resp) != "re:q" {
			t.Errorf("Call response = %q, want %q", resp, "re:q")
		}
	})
}

func TestConformanceBatchDelivery(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		var mu sync.Mutex
		var got [][]byte
		m.view(2).RegisterBatch(2, func(from clock.SiteID, payloads [][]byte) error {
			mu.Lock()
			defer mu.Unlock()
			for _, p := range payloads {
				got = append(got, append([]byte(nil), p...))
			}
			return nil
		})
		frame := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
		if err := m.view(1).SendBatch(1, 2, frame); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		if err := m.view(1).SendBatch(1, 2, nil); err != nil {
			t.Errorf("empty SendBatch: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(got) != 3 || string(got[2]) != "ccc" {
			t.Fatalf("delivered %d payloads (%q), want the 3 sent", len(got), got)
		}
		st := m.stats()
		if st.Frames != 1 || st.Delivered != 3 || st.Sent != 3 || st.Bytes != 6 {
			t.Errorf("stats = %+v, want Frames=1 Delivered=3 Sent=3 Bytes=6", st)
		}
	})
}

func TestConformanceBatchFallsBackToSingleHandler(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		var n atomic.Int64
		m.view(2).Register(2, func(from clock.SiteID, p []byte) ([]byte, error) {
			n.Add(1)
			return nil, nil
		})
		if err := m.view(1).SendBatch(1, 2, [][]byte{[]byte("a"), []byte("b")}); err != nil {
			t.Fatalf("SendBatch without batch handler: %v", err)
		}
		if n.Load() != 2 {
			t.Errorf("fallback delivered %d, want 2", n.Load())
		}
		if st := m.stats(); st.Frames != 1 {
			t.Errorf("Frames = %d, want 1 even via fallback", st.Frames)
		}
	})
}

func TestConformanceHandlerErrorFailsDelivery(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		m.view(2).Register(2, func(clock.SiteID, []byte) ([]byte, error) {
			return nil, errors.New("apply failed")
		})
		if err := send(m.view(1), 1, 2, []byte("x")); err == nil {
			t.Fatal("Send with failing handler returned nil, want error")
		}
		m.view(2).RegisterBatch(2, func(clock.SiteID, [][]byte) error {
			return errors.New("batch apply failed")
		})
		if err := m.view(1).SendBatch(1, 2, [][]byte{[]byte("x")}); err == nil {
			t.Fatal("SendBatch with failing handler returned nil, want error")
		}
		if st := m.stats(); st.Delivered != 0 || st.Frames != 0 {
			t.Errorf("failed deliveries counted as delivered: %+v", st)
		}
	})
}

func TestConformanceUnknownSite(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		if err := send(m.view(1), 1, 99, []byte("x")); !errors.Is(err, ErrUnknownSite) {
			t.Errorf("Send to unknown site = %v, want ErrUnknownSite", err)
		}
		if err := m.view(1).SendBatch(1, 99, [][]byte{[]byte("x")}); !errors.Is(err, ErrUnknownSite) {
			t.Errorf("SendBatch to unknown site = %v, want ErrUnknownSite", err)
		}
	})
}

func TestConformancePartitionAndHeal(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2, 3}, func(t *testing.T, m *confMesh) {
		var n atomic.Int64
		for _, s := range []clock.SiteID{1, 2, 3} {
			s := s
			m.view(s).Register(s, func(clock.SiteID, []byte) ([]byte, error) {
				n.Add(1)
				return nil, nil
			})
		}
		m.partition([]clock.SiteID{1}, []clock.SiteID{2, 3})
		if err := send(m.view(1), 1, 2, nil); !errors.Is(err, ErrPartitioned) {
			t.Errorf("cross-partition Send = %v, want ErrPartitioned", err)
		}
		if err := send(m.view(2), 2, 3, nil); err != nil {
			t.Errorf("intra-partition Send = %v, want nil", err)
		}
		if err := send(m.view(3), 3, 1, nil); !errors.Is(err, ErrPartitioned) {
			t.Errorf("cross-partition Send the other way = %v, want ErrPartitioned", err)
		}
		m.heal()
		if err := send(m.view(1), 1, 2, nil); err != nil {
			t.Errorf("Send after Heal = %v, want nil", err)
		}
	})
}

func TestConformanceCrashAndRestart(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		m.view(2).Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, nil })
		m.crash(2)
		if err := send(m.view(1), 1, 2, nil); !errors.Is(err, ErrSiteDown) {
			t.Errorf("Send to crashed site = %v, want ErrSiteDown", err)
		}
		if err := send(m.view(2), 2, 1, nil); !errors.Is(err, ErrSiteDown) {
			t.Errorf("Send from crashed site = %v, want ErrSiteDown", err)
		}
		m.restart(2)
		if err := send(m.view(1), 1, 2, nil); err != nil {
			t.Errorf("Send after Restart = %v, want nil", err)
		}
	})
}

// TestConformanceRetryAfterTransientFailure is the stable-queue
// delivery-agent loop in miniature: a send fails while the network is
// faulted, the sender retries the same message until it succeeds, and
// the implicit ack (nil error) arrives exactly when the handler ran.
func TestConformanceRetryAfterTransientFailure(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		var n atomic.Int64
		m.view(2).Register(2, func(clock.SiteID, []byte) ([]byte, error) {
			n.Add(1)
			return nil, nil
		})
		m.partition([]clock.SiteID{1}, []clock.SiteID{2})
		if err := send(m.view(1), 1, 2, []byte("m1")); err == nil {
			t.Fatal("Send across partition succeeded, want error")
		}
		if n.Load() != 0 {
			t.Fatalf("handler ran during the fault")
		}
		m.heal()
		if err := send(m.view(1), 1, 2, []byte("m1")); err != nil {
			t.Fatalf("retry after heal: %v", err)
		}
		if n.Load() != 1 {
			t.Fatalf("handler ran %d times after retry, want 1", n.Load())
		}
	})
}

// TestConformanceAtLeastOnceDedup documents the delivery contract's
// split of responsibilities: the transport may deliver a retried
// message twice, and the receiver's dedup (here a seen-set keyed like
// the replica layer's message IDs) makes the apply effectively-once.
func TestConformanceAtLeastOnceDedup(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		var mu sync.Mutex
		seen := make(map[string]bool)
		applies := 0
		deliveries := 0
		m.view(2).Register(2, func(_ clock.SiteID, p []byte) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			deliveries++
			if seen[string(p)] {
				return nil, nil // duplicate: acked, not applied
			}
			seen[string(p)] = true
			applies++
			return nil, nil
		})
		// The sender never saw the first ack (e.g. the connection died
		// after the handler ran), so it must retry the same message.
		for i := 0; i < 2; i++ {
			if err := send(m.view(1), 1, 2, []byte("mset-42")); err != nil {
				t.Fatalf("Send #%d: %v", i+1, err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if deliveries != 2 {
			t.Errorf("deliveries = %d, want 2 (at-least-once may repeat)", deliveries)
		}
		if applies != 1 {
			t.Errorf("applies = %d, want exactly 1 after dedup", applies)
		}
	})
}

func TestConformanceConcurrentSenders(t *testing.T) {
	sites := []clock.SiteID{1, 2, 3, 4}
	runConformance(t, sites, func(t *testing.T, m *confMesh) {
		var calls atomic.Int64
		for _, s := range sites {
			s := s
			m.view(s).Register(s, func(clock.SiteID, []byte) ([]byte, error) {
				calls.Add(1)
				return nil, nil
			})
		}
		const goroutines, per = 8, 50
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				from := clock.SiteID(g%4 + 1)
				to := clock.SiteID((g+1)%4 + 1)
				tr := m.view(from)
				for i := 0; i < per; i++ {
					if err := send(tr, from, to, []byte{byte(i)}); err != nil {
						t.Errorf("Send %v->%v: %v", from, to, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if calls.Load() != goroutines*per {
			t.Errorf("delivered %d, want %d", calls.Load(), goroutines*per)
		}
	})
}

func TestConformanceLargePayload(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		big := make([]byte, 1<<20)
		for i := range big {
			big[i] = byte(i)
		}
		m.view(2).Register(2, func(_ clock.SiteID, p []byte) ([]byte, error) {
			if len(p) != len(big) {
				return nil, fmt.Errorf("got %d bytes, want %d", len(p), len(big))
			}
			for i := 0; i < len(p); i += 4099 {
				if p[i] != byte(i) {
					return nil, fmt.Errorf("corrupt byte at %d", i)
				}
			}
			return p[:8], nil
		})
		resp, err := m.view(1).Call(1, 2, big)
		if err != nil {
			t.Fatalf("Call with 1MiB payload: %v", err)
		}
		if len(resp) != 8 {
			t.Errorf("response %d bytes, want 8", len(resp))
		}
	})
}

func TestConformanceCloseFailsFurtherSends(t *testing.T) {
	runConformance(t, []clock.SiteID{1, 2}, func(t *testing.T, m *confMesh) {
		m.view(2).Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, nil })
		tr := m.view(1)
		if _, ok := tr.(*Sim); ok {
			t.Skip("the simulator's Close is a documented no-op (no external resources)")
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := send(tr, 1, 2, []byte("late")); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after Close = %v, want ErrClosed", err)
		}
	})
}

// TestConformanceColocatedVirtualService covers the deployment shape
// the replicated sequencer and snapshot catch-up rely on: a process
// hosting replica site s also hosts virtual service sites (an ensemble
// member at 1100+s, a snapshot donor at 1500+s) behind the same
// address.  Both transports must route any site's call to a virtual
// site to the process co-hosting it, and a crashed virtual site must
// fail independently of its co-hosted replica site.
func TestConformanceColocatedVirtualService(t *testing.T) {
	sites := []clock.SiteID{1, 2, 3}
	virt := func(s clock.SiteID) clock.SiteID { return 1100 + s }
	register := func(tr Transport, s clock.SiteID) {
		tr.Register(virt(s), func(from clock.SiteID, p []byte) ([]byte, error) {
			return append([]byte{byte(s)}, p...), nil
		})
	}
	check := func(t *testing.T, tr Transport) {
		t.Helper()
		for _, from := range sites {
			for _, s := range sites {
				resp, err := tr.Call(from, virt(s), []byte{42})
				if err != nil {
					t.Fatalf("Call(%v -> %v): %v", from, virt(s), err)
				}
				if len(resp) != 2 || resp[0] != byte(s) || resp[1] != 42 {
					t.Fatalf("Call(%v -> %v) = %v, want [%d 42]", from, virt(s), resp, s)
				}
			}
		}
		// The virtual service fails independently of its replica site.
		tr.Crash(virt(2))
		if _, err := tr.Call(1, virt(2), []byte{1}); !errors.Is(err, ErrSiteDown) {
			t.Errorf("Call to crashed virtual site = %v, want ErrSiteDown", err)
		}
		if _, err := tr.Call(1, virt(3), []byte{1}); err != nil {
			t.Errorf("Call to sibling virtual site after crash: %v", err)
		}
		tr.Restart(virt(2))
		if _, err := tr.Call(1, virt(2), []byte{1}); err != nil {
			t.Errorf("Call after virtual-site restart: %v", err)
		}
	}
	t.Run("Sim", func(t *testing.T) {
		tr := mustSim(t, Config{Seed: 1})
		defer tr.Close()
		for _, s := range sites {
			register(tr, s)
		}
		check(t, tr)
	})
	t.Run("TCP", func(t *testing.T) {
		instances := make(map[clock.SiteID]*TCP, len(sites))
		all := make([]clock.SiteID, 0, len(sites))
		for _, s := range sites {
			tr, err := NewTCP(TCPOptions{
				Listen: "127.0.0.1:0",
				Local:  []clock.SiteID{s, virt(s)},
				Seed:   int64(s),
			})
			if err != nil {
				t.Fatalf("NewTCP(site %v): %v", s, err)
			}
			defer tr.Close()
			instances[s] = tr
			register(tr, s)
			all = append(all, s)
		}
		for _, a := range all {
			for _, b := range all {
				if a != b {
					instances[a].AddPeer(b, instances[b].Addr())
					instances[a].AddPeer(virt(b), instances[b].Addr())
				}
			}
		}
		// Drive the checks from instance 1's viewpoint, but apply fault
		// hooks everywhere (a crash is a property of the whole mesh).
		tr := &meshView{self: instances[1], all: instances}
		check(t, tr)
	})
}

// meshView adapts a multi-instance TCP mesh to the single-Transport
// check above: calls go through one instance, fault hooks fan out to
// every instance.
type meshView struct {
	self *TCP
	all  map[clock.SiteID]*TCP
}

func (v *meshView) SendBatch(from, to clock.SiteID, p [][]byte) error {
	return v.self.SendBatch(from, to, p)
}
func (v *meshView) Call(from, to clock.SiteID, p []byte) ([]byte, error) {
	return v.self.Call(from, to, p)
}
func (v *meshView) Register(site clock.SiteID, h Handler)           { v.self.Register(site, h) }
func (v *meshView) RegisterBatch(site clock.SiteID, h BatchHandler) { v.self.RegisterBatch(site, h) }
func (v *meshView) SetMetrics(m Metrics)                            { v.self.SetMetrics(m) }
func (v *meshView) Stats() Stats                                    { return v.self.Stats() }
func (v *meshView) SetTrace(r *trace.Ring)                          { v.self.SetTrace(r) }
func (v *meshView) Close() error                                    { return nil }
func (v *meshView) Partition(groups ...[]clock.SiteID) {
	for _, tr := range v.all {
		tr.Partition(groups...)
	}
}
func (v *meshView) Heal() {
	for _, tr := range v.all {
		tr.Heal()
	}
}
func (v *meshView) Crash(s clock.SiteID) {
	for _, tr := range v.all {
		tr.Crash(s)
	}
}
func (v *meshView) Restart(s clock.SiteID) {
	for _, tr := range v.all {
		tr.Restart(s)
	}
}
