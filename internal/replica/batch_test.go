package replica

import (
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/queue"
)

func TestReceiveBatchAppliesAll(t *testing.T) {
	var applied atomic.Int32
	s := newTestSite(t, func(m et.MSet) error {
		applied.Add(1)
		return nil
	})
	var msgs [][]byte
	for i := uint64(1); i <= 5; i++ {
		m := et.MSet{ET: et.MakeID(2, i), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
		msgs = append(msgs, encode(t, m))
	}
	if err := s.ReceiveBatch(msgs); err != nil {
		t.Fatalf("ReceiveBatch: %v", err)
	}
	if err := s.ReceiveBatch(nil); err != nil {
		t.Errorf("empty ReceiveBatch: %v", err)
	}
	waitFor(t, "batch applied", func() bool { return applied.Load() == 5 })
	if st := s.Stats(); st.Received != 5 || st.Applied != 5 {
		t.Errorf("stats = %+v", st)
	}
	// Redelivering the same frame is a no-op (dedup).
	if err := s.ReceiveBatch(msgs); err != nil {
		t.Fatalf("redelivered batch: %v", err)
	}
	waitFor(t, "queue drained", func() bool { return s.QueueLen() == 0 })
	if st := s.Stats(); st.Received != 5 {
		t.Errorf("redelivery inflated Received: %+v", st)
	}
}

func TestReceiveBatchRejectsMalformedFrameWhole(t *testing.T) {
	var applied atomic.Int32
	s := newTestSite(t, func(m et.MSet) error { applied.Add(1); return nil })
	good := et.MSet{ET: et.MakeID(2, 1), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
	err := s.ReceiveBatch([][]byte{encode(t, good), []byte("garbage")})
	if err == nil {
		t.Fatal("malformed frame must be rejected")
	}
	if s.QueueLen() != 0 {
		t.Errorf("rejected frame left %d messages enqueued", s.QueueLen())
	}
}

func TestReceiveBatchSingleJournalSync(t *testing.T) {
	q, err := queue.Open(filepath.Join(t.TempDir(), "in.journal"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(1, q, lock.ORDUP)
	s.SetApply(func(m et.MSet) error { return nil })
	var msgs [][]byte
	for i := uint64(1); i <= 16; i++ {
		m := et.MSet{ET: et.MakeID(2, i), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
		msgs = append(msgs, encode(t, m))
	}
	if err := s.ReceiveBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if got := q.Syncs(); got != 1 {
		t.Errorf("ReceiveBatch(16) cost %d fsyncs, want 1", got)
	}
	s.Start()
	waitFor(t, "drain", func() bool { return s.QueueLen() == 0 })
	s.Stop()
	// The whole pass acked in batches: far fewer fsyncs than messages.
	if got := q.Syncs(); got >= 1+16 {
		t.Errorf("draining 16 messages cost %d total fsyncs; acks not batched", got)
	}
	q.Close()
}

func TestSeenRetentionBoundsDedupMemory(t *testing.T) {
	s := newTestSite(t, func(m et.MSet) error { return nil })
	s.SetSeenRetention(8)
	for i := uint64(1); i <= 100; i++ {
		m := et.MSet{ET: et.MakeID(2, i), Origin: 2, Ops: []op.Op{op.IncOp("x", 1)}}
		if err := s.Receive(encode(t, m)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all applied", func() bool { return s.Stats().Applied == 100 })
	waitFor(t, "seen pruned", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.seen) <= 8
	})
}

// BenchmarkDrainBacklog times a standalone site taking one batch of W
// commuting four-op MSets through ReceiveDecodedBatch and draining it
// with a no-op ApplyFunc, reported per MSet: what is left is the receive
// side itself (indexing, the scheduling pass, SAFETIME and staleness
// upkeep, acks).  A per-MSet cost that grows with W means one of those
// steps is linear in the backlog.
func BenchmarkDrainBacklog(b *testing.B) {
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	for _, w := range []int{64, 1024, 8192} {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			msgs := make([]queue.Message, w)
			msets := make([]et.MSet, w)
			for i := range msets {
				m := et.MSet{ET: et.MakeID(1, uint64(i+1)), Origin: 1, TS: clock.Timestamp{Time: uint64(i + 1), Site: 1}}
				for j := 0; j < 4; j++ {
					m.Ops = append(m.Ops, op.IncOp(keys[(i*4+j)%len(keys)], 1))
				}
				msets[i], msgs[i] = m, queue.Message{ID: m.MsgID()}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				s := NewSite(1, queue.NewMem(), lock.COMMU)
				s.SetApply(func(et.MSet) error { return nil })
				s.Start()
				if err := s.ReceiveDecodedBatch(msgs, msets); err != nil {
					b.Fatal(err)
				}
				for s.QueueLen() != 0 {
					time.Sleep(50 * time.Microsecond)
				}
				s.Stop()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/mset")
		})
	}
}
