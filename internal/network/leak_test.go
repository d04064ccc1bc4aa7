package network

// Goroutine hygiene: closing a transport must leave no goroutine of its
// own behind, including ones serving live connections.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esr/internal/clock"
)

// waitGoroutines polls until the goroutine count is back at baseline;
// the count can lag a shutdown briefly.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPCloseLeaksNoGoroutines closes both ends of a pair while a
// handler is still running on a live connection.  Close must wait for
// that handler (it runs on a serving goroutine) and then for every
// accept, serve and flush goroutine to exit.
func TestTCPCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a, err := NewTCP(TCPOptions{Listen: "127.0.0.1:0", Local: []clock.SiteID{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(TCPOptions{Listen: "127.0.0.1:0", Local: []clock.SiteID{2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	entered := make(chan struct{})
	var once sync.Once
	var finished atomic.Bool
	b.Register(2, func(from clock.SiteID, payload []byte) ([]byte, error) {
		if string(payload) == "slow" {
			once.Do(func() { close(entered) })
			time.Sleep(50 * time.Millisecond)
			finished.Store(true)
		}
		return nil, nil
	})
	for i := 0; i < 3; i++ {
		if err := a.Send(1, 2, []byte("warm")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(1, 2, []byte("slow")) }()
	<-entered
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("TCP.Close returned while a handler was still running on a live connection")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	<-sent // the slow send may succeed or fail; it must return
	waitGoroutines(t, baseline)
}

// TestSimCloseLeaksNoGoroutines: the simulator delivers on its callers'
// goroutines, so concurrent traffic followed by Close leaves nothing
// running.
func TestSimCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Config{MinLatency: time.Millisecond, MaxLatency: 2 * time.Millisecond, LossRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []clock.SiteID{1, 2} {
		s.Register(id, func(from clock.SiteID, payload []byte) ([]byte, error) { return payload, nil })
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := s.Call(1, 2, []byte("x")); err != nil && !errors.Is(err, ErrLost) {
					t.Errorf("call: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}
