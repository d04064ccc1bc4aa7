package queue

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeliveryStopLeaksNoGoroutines drives a journal-backed queue
// through a delivery agent whose send fails now and then, so the pump
// is in backoff as often as not, and checks that stopping the agent and
// closing the queue return the goroutine count to its baseline.
func TestDeliveryStopLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		q, err := OpenOptions(filepath.Join(t.TempDir(), "q.log"), Options{FlushWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var sends, delivered atomic.Int64
		d := NewDelivery(q, func(ms []Message) error {
			if sends.Add(1)%3 == 0 {
				return errors.New("transient")
			}
			delivered.Add(int64(len(ms)))
			return nil
		}, time.Millisecond, 5*time.Millisecond)
		d.SetWindow(4)
		d.Start()
		for i := 1; i <= 20; i++ {
			if err := q.Enqueue(Message{ID: uint64(i), Payload: []byte("m")}); err != nil {
				t.Fatal(err)
			}
			d.Kick()
		}
		for deadline := time.Now().Add(2 * time.Second); delivered.Load() < 5; {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: only %d messages delivered", cycle, delivered.Load())
			}
			time.Sleep(time.Millisecond)
		}
		d.Stop()
		d.Stop() // idempotent
		if err := q.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
	}
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
