package queue

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// queues returns one constructor per implementation so every behavioural
// test runs against both.
func queues(t *testing.T) map[string]func() Queue {
	t.Helper()
	dir := t.TempDir()
	var n int
	return map[string]func() Queue{
		"mem": func() Queue { return NewMem() },
		"file": func() Queue {
			n++
			q, err := Open(filepath.Join(dir, fmt.Sprintf("q%d.journal", n)))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return q
		},
	}
}

func TestFIFOOrder(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			defer q.Close()
			for i := uint64(1); i <= 5; i++ {
				if err := q.Enqueue(Message{ID: i, Payload: []byte{byte(i)}}); err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
			}
			for i := uint64(1); i <= 5; i++ {
				m, ok, err := q.Peek()
				if err != nil || !ok {
					t.Fatalf("Peek: ok=%v err=%v", ok, err)
				}
				if m.ID != i {
					t.Fatalf("Peek order: got %d, want %d", m.ID, i)
				}
				if err := q.Ack(m.ID); err != nil {
					t.Fatalf("Ack: %v", err)
				}
			}
			if _, ok, _ := q.Peek(); ok {
				t.Errorf("queue should be empty after acking everything")
			}
		})
	}
}

func TestDuplicateEnqueueSuppressed(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			defer q.Close()
			m := Message{ID: 7, Payload: []byte("x")}
			for i := 0; i < 3; i++ {
				if err := q.Enqueue(m); err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
			}
			if got := q.Len(); got != 1 {
				t.Errorf("Len = %d after duplicate enqueues, want 1", got)
			}
			// Even after acking, re-enqueue of a seen ID stays suppressed:
			// the sender's retry after a successful delivery must not
			// reintroduce the message.
			if err := q.Ack(7); err != nil {
				t.Fatalf("Ack: %v", err)
			}
			if err := q.Enqueue(m); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
			if got := q.Len(); got != 0 {
				t.Errorf("Len = %d after re-enqueue of acked ID, want 0", got)
			}
		})
	}
}

func TestAckUnknownIsNoop(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			defer q.Close()
			if err := q.Ack(99); err != nil {
				t.Errorf("Ack(unknown) = %v, want nil", err)
			}
		})
	}
}

func TestAckMiddleMessage(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			defer q.Close()
			for i := uint64(1); i <= 3; i++ {
				q.Enqueue(Message{ID: i})
			}
			if err := q.Ack(2); err != nil {
				t.Fatalf("Ack(2): %v", err)
			}
			m, _, _ := q.Peek()
			if m.ID != 1 {
				t.Errorf("head = %d, want 1", m.ID)
			}
			q.Ack(1)
			m, _, _ = q.Peek()
			if m.ID != 3 {
				t.Errorf("head = %d, want 3", m.ID)
			}
		})
	}
}

func TestAllSnapshot(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			defer q.Close()
			for i := uint64(1); i <= 3; i++ {
				q.Enqueue(Message{ID: i})
			}
			q.Ack(2)
			all, err := q.All()
			if err != nil {
				t.Fatalf("All: %v", err)
			}
			if len(all) != 2 || all[0].ID != 1 || all[1].ID != 3 {
				t.Errorf("All = %v, want IDs [1 3]", all)
			}
			// The snapshot must be independent of queue state.
			q.Ack(1)
			if len(all) != 2 {
				t.Errorf("snapshot mutated by later Ack")
			}
		})
	}
}

func TestClosedQueueErrors(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Close()
			if err := q.Enqueue(Message{ID: 1}); !errors.Is(err, ErrClosed) {
				t.Errorf("Enqueue after Close = %v, want ErrClosed", err)
			}
			if _, _, err := q.Peek(); !errors.Is(err, ErrClosed) {
				t.Errorf("Peek after Close = %v, want ErrClosed", err)
			}
			if _, err := q.All(); !errors.Is(err, ErrClosed) {
				t.Errorf("All after Close = %v, want ErrClosed", err)
			}
			if err := q.Ack(1); !errors.Is(err, ErrClosed) {
				t.Errorf("Ack after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestFileRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := q.Enqueue(Message{ID: i, Payload: []byte{byte(i), byte(i)}}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	q.Ack(1)
	q.Ack(3)
	q.Close() // crash point

	q2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	if got := q2.Len(); got != 2 {
		t.Fatalf("recovered Len = %d, want 2", got)
	}
	m, _, _ := q2.Peek()
	if m.ID != 2 || len(m.Payload) != 2 || m.Payload[0] != 2 {
		t.Errorf("recovered head = %+v, want ID 2 payload [2 2]", m)
	}
	// Dedup state must also survive: retry of a delivered message.
	q2.Enqueue(Message{ID: 1})
	if got := q2.Len(); got != 2 {
		t.Errorf("Len after re-enqueue of recovered-acked ID = %d, want 2", got)
	}
}

func TestFileTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	q.Enqueue(Message{ID: 1, Payload: []byte("first")})
	q.Enqueue(Message{ID: 2, Payload: []byte("second")})
	q.Close()

	// Simulate a crash mid-append by truncating the journal partway
	// through the final record.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	q2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	if got := q2.Len(); got != 1 {
		t.Fatalf("Len after torn tail = %d, want 1 (second record discarded)", got)
	}
	// The queue must remain writable after tail truncation.
	if err := q2.Enqueue(Message{ID: 3, Payload: []byte("third")}); err != nil {
		t.Fatalf("Enqueue after recovery: %v", err)
	}
	q2.Close()

	q3, err := Open(path)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer q3.Close()
	if got := q3.Len(); got != 2 {
		t.Errorf("Len after append-post-recovery = %d, want 2", got)
	}
}

func TestFileRecoveryProperty(t *testing.T) {
	// Random interleavings of enqueue/ack followed by reopen always
	// recover exactly the unacked messages in order.
	dir := t.TempDir()
	var fileN int
	f := func(ops []bool) bool {
		fileN++
		path := filepath.Join(dir, fmt.Sprintf("p%d.journal", fileN))
		q, err := Open(path)
		if err != nil {
			return false
		}
		var want []uint64
		var next uint64
		for _, enq := range ops {
			if enq || len(want) == 0 {
				next++
				q.Enqueue(Message{ID: next})
				want = append(want, next)
			} else {
				q.Ack(want[0])
				want = want[1:]
			}
		}
		q.Close()
		q2, err := Open(path)
		if err != nil {
			return false
		}
		defer q2.Close()
		if q2.Len() != len(want) {
			return false
		}
		for _, id := range want {
			m, ok, err := q2.Peek()
			if err != nil || !ok || m.ID != id {
				return false
			}
			q2.Ack(id)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeliveryRetriesUntilSuccess(t *testing.T) {
	q := NewMem()
	defer q.Close()
	var fails atomic.Int32
	fails.Store(3)
	var delivered atomic.Int32
	d := NewDelivery(q, func([]Message) error {
		if fails.Add(-1) >= 0 {
			return errors.New("link down")
		}
		delivered.Add(1)
		return nil
	}, time.Millisecond, 4*time.Millisecond)
	d.Start()
	defer d.Stop()

	q.Enqueue(Message{ID: 1})
	d.Kick()
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != 1 {
		t.Fatalf("message not delivered after retries")
	}
	if q.Len() != 0 {
		t.Errorf("delivered message not acked: Len = %d", q.Len())
	}
}

// TestDeliveryPreservesOrder drains 20 messages through a window of
// one while every third send fails: each frame carries one message, a
// failed frame is retried whole before anything behind it, and the
// deliveries come out in FIFO order.
func TestDeliveryPreservesOrder(t *testing.T) {
	q := NewMem()
	defer q.Close()
	type attempt struct {
		id uint64
		ok bool
	}
	var mu sync.Mutex
	var attempts []attempt
	d := NewDelivery(q, func(ms []Message) error {
		mu.Lock()
		defer mu.Unlock()
		if len(ms) != 1 {
			t.Errorf("window 1 sent a frame of %d messages", len(ms))
		}
		a := attempt{id: ms[0].ID, ok: (len(attempts)+1)%3 != 0}
		attempts = append(attempts, a)
		if !a.ok {
			return errors.New("link down")
		}
		return nil
	}, time.Millisecond, time.Millisecond)
	for i := uint64(1); i <= 20; i++ {
		q.Enqueue(Message{ID: i})
	}
	d.Start()
	d.Kick()
	deadline := time.Now().Add(2 * time.Second)
	for q.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	mu.Lock()
	defer mu.Unlock()
	var got []uint64
	for i, a := range attempts {
		if a.ok {
			got = append(got, a.id)
		} else if i+1 < len(attempts) && attempts[i+1].id != a.id {
			t.Fatalf("failed frame %d was followed by %d, want it retried first", a.id, attempts[i+1].id)
		}
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d messages, want 20", len(got))
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("delivery order violated at %d: got %d", i, id)
		}
	}
}

func TestDeliveryStopIsIdempotentAndPrompt(t *testing.T) {
	q := NewMem()
	defer q.Close()
	d := NewDelivery(q, func([]Message) error { return errors.New("always fails") }, time.Millisecond, time.Second)
	d.Start()
	q.Enqueue(Message{ID: 1})
	d.Kick()
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		d.Stop()
		d.Stop() // second Stop must not panic or hang
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Stop did not return promptly")
	}
}

func TestEnqueueBatchAndAckBatch(t *testing.T) {
	for name, mk := range queues(t) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			defer q.Close()
			batch := []Message{
				{ID: 1, Payload: []byte("a")},
				{ID: 2, Payload: []byte("b")},
				{ID: 1, Payload: []byte("dup")}, // duplicate inside the batch
				{ID: 3, Payload: []byte("c")},
			}
			if err := q.EnqueueBatch(batch); err != nil {
				t.Fatalf("EnqueueBatch: %v", err)
			}
			if got := q.Len(); got != 3 {
				t.Fatalf("Len = %d after batch with internal dup, want 3", got)
			}
			got, err := q.PeekN(2)
			if err != nil {
				t.Fatalf("PeekN: %v", err)
			}
			if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
				t.Fatalf("PeekN(2) = %v, want IDs [1 2]", got)
			}
			// PeekN beyond the queue length returns what exists.
			if got, _ := q.PeekN(10); len(got) != 3 {
				t.Fatalf("PeekN(10) returned %d messages, want 3", len(got))
			}
			// AckBatch with unknown IDs mixed in is a no-op for those.
			if err := q.AckBatch([]uint64{2, 99, 1}); err != nil {
				t.Fatalf("AckBatch: %v", err)
			}
			m, ok, _ := q.Peek()
			if !ok || m.ID != 3 {
				t.Fatalf("head after AckBatch = %v ok=%v, want ID 3", m, ok)
			}
		})
	}
}

func TestFileBatchSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueBatch([]Message{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := q.AckBatch([]uint64{1, 3}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	q2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	all, _ := q2.All()
	if len(all) != 2 || all[0].ID != 2 || all[1].ID != 4 {
		t.Fatalf("recovered %v, want IDs [2 4]", all)
	}
}

func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// A batch of 64 must cost far fewer fsyncs than 64 singles would.
	batch := make([]Message, 64)
	for i := range batch {
		batch[i] = Message{ID: uint64(i + 1)}
	}
	if err := q.EnqueueBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := q.Syncs(); got != 1 {
		t.Errorf("EnqueueBatch(64) cost %d fsyncs, want 1", got)
	}
	// Concurrent single enqueues group-commit: total fsyncs must come in
	// well under one per write.
	var wg sync.WaitGroup
	const writers, per = 8, 25
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				q.Enqueue(Message{ID: 1000 + base*per + i})
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := q.Len(); got != 64+writers*per {
		t.Fatalf("Len = %d, want %d", got, 64+writers*per)
	}
}

func TestDeliveryWindowBatchesSendsAndAcks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var mu sync.Mutex
	var frames [][]uint64
	d := NewDelivery(q, func(ms []Message) error {
		ids := make([]uint64, len(ms))
		for i, m := range ms {
			ids[i] = m.ID
		}
		mu.Lock()
		frames = append(frames, ids)
		mu.Unlock()
		return nil
	}, time.Millisecond, 4*time.Millisecond)
	d.SetWindow(8)
	batch := make([]Message, 32)
	for i := range batch {
		batch[i] = Message{ID: uint64(i + 1)}
	}
	if err := q.EnqueueBatch(batch); err != nil {
		t.Fatal(err)
	}
	enqSyncs := q.Syncs()
	d.Start()
	d.Kick()
	deadline := time.Now().Add(2 * time.Second)
	for q.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	mu.Lock()
	defer mu.Unlock()
	// 32 messages through a window of 8: exactly 4 frames, in FIFO order.
	var got []uint64
	for _, f := range frames {
		got = append(got, f...)
	}
	if len(got) != 32 {
		t.Fatalf("delivered %d messages, want 32", len(got))
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("order violated at %d: got %d", i, id)
		}
	}
	if len(frames) > 8 {
		t.Errorf("used %d frames for 32 messages with window 8, want ≤ 8", len(frames))
	}
	// Ack fsyncs are batched too: one per frame, not one per message.
	ackSyncs := q.Syncs() - enqSyncs
	if ackSyncs > uint64(len(frames))+1 {
		t.Errorf("acking cost %d fsyncs over %d frames", ackSyncs, len(frames))
	}
}

func TestDeliveryKickResetsBackoff(t *testing.T) {
	q := NewMem()
	defer q.Close()
	var gate atomic.Bool
	var delivered atomic.Int32
	d := NewDelivery(q, func([]Message) error {
		if !gate.Load() {
			return errors.New("link down")
		}
		delivered.Add(1)
		return nil
	}, time.Millisecond, 10*time.Second)
	d.Start()
	defer d.Stop()
	q.Enqueue(Message{ID: 1})
	d.Kick()
	// Let the backoff climb toward maxWait (1ms, 2ms, 4ms, …).
	time.Sleep(100 * time.Millisecond)
	// Heal the link and kick — delivery must happen promptly, not after
	// the stale multi-second penalty delay.
	gate.Store(true)
	d.Kick()
	deadline := time.Now().Add(500 * time.Millisecond)
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Fatalf("kick after heal did not deliver promptly; stale backoff penalty still applied")
	}
}

func TestConcurrentEnqueueAck(t *testing.T) {
	q := NewMem()
	defer q.Close()
	var wg sync.WaitGroup
	const n = 200
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				q.Enqueue(Message{ID: base*n + i + 1})
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := q.Len(); got != 4*n {
		t.Fatalf("Len = %d, want %d", got, 4*n)
	}
	for q.Len() > 0 {
		m, ok, err := q.Peek()
		if err != nil || !ok {
			t.Fatalf("Peek: ok=%v err=%v", ok, err)
		}
		q.Ack(m.ID)
	}
}
