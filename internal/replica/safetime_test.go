package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/queue"
)

// modelStep is one action of TestIncrementalIndexesMatchScans: Op picks
// the action, K the message of a small fixed pool it acts on.
type modelStep struct {
	Op, K uint8
}

// modelRun is a random sequence of steps, long enough that dead entries
// pile up behind a pinned minimum.
type modelRun []modelStep

func (modelRun) Generate(r *rand.Rand, _ int) reflect.Value {
	run := make(modelRun, 100+r.Intn(400))
	for i := range run {
		run[i] = modelStep{Op: uint8(r.Intn(5)), K: uint8(r.Intn(256))}
	}
	return reflect.ValueOf(run)
}

// modelPool is the fixed set of MSets a run draws from, spread over two
// shards, so every redelivery carries the same (ID, TS) it had before.
func modelPool() ([]queue.Message, []et.MSet) {
	objs := []string{"a", "b", "c", "d"}
	r := rand.New(rand.NewSource(7))
	msgs := make([]queue.Message, 24)
	msets := make([]et.MSet, len(msgs))
	for i := range msets {
		m := et.MSet{
			ET:     et.MakeID(2, uint64(i+1)),
			Origin: 2,
			Shard:  i % 2,
			TS:     clock.Timestamp{Time: uint64(1 + r.Intn(20)), Site: clock.SiteID(1 + r.Intn(3))},
			Ops:    []op.Op{op.IncOp(objs[r.Intn(len(objs))], 1), op.IncOp(objs[r.Intn(len(objs))], 1)},
		}
		p, err := m.Encode()
		if err != nil {
			panic(err)
		}
		msets[i], msgs[i] = m, queue.Message{ID: m.MsgID(), Payload: p}
	}
	return msgs, msets
}

// scanSafeTime is SAFETIME as a linear scan over every pending
// timestamp, the way safeTimeLocked computed it before its heaps.
func scanSafeTime(s *Site) clock.Timestamp {
	var minPending clock.Timestamp
	havePending := false
	for _, byID := range s.pendingTS {
		for _, ts := range byID {
			if !havePending || ts.Less(minPending) {
				minPending, havePending = ts, true
			}
		}
	}
	if havePending {
		return prevTS(minPending)
	}
	var max clock.Timestamp
	for _, f := range s.frontier {
		if max.Less(f) {
			max = f
		}
	}
	return max
}

// scanOldestAccept is the oldest accept time as a linear scan over
// pendingAt, the way Staleness computed it before its FIFO.
func scanOldestAccept(s *Site) (time.Time, bool) {
	var oldest time.Time
	for _, at := range s.pendingAt {
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	return oldest, !oldest.IsZero()
}

// modelMismatch describes how the site's incremental indexes disagree
// with linear scans of the maps they index, or "" when they agree.
// Caller holds s.mu.
func modelMismatch(s *Site) string {
	if got, want := s.safeTimeLocked(), scanSafeTime(s); got != want {
		return fmt.Sprintf("SafeTime %v, linear scan %v", got, want)
	}
	at, ok := s.oldestAcceptLocked()
	if wantAt, wantOK := scanOldestAccept(s); ok != wantOK || at != wantAt {
		return fmt.Sprintf("oldest accept %v/%v, linear scan %v/%v", at, ok, wantAt, wantOK)
	}
	for obj, n := range s.pending {
		if n <= 0 {
			return fmt.Sprintf("pending keeps count %d for %q", n, obj)
		}
	}
	for sh, h := range s.tsHeap {
		if live := len(s.pendingTS[sh]); len(h) > 2*live+compactSlack {
			return fmt.Sprintf("shard %d SAFETIME heap holds %d entries for %d live", sh, len(h), live)
		}
	}
	if n, live := len(s.accepts)-s.acceptHead, len(s.pendingAt); n > 2*live+compactSlack {
		return fmt.Sprintf("staleness FIFO holds %d entries for %d live", n, live)
	}
	return ""
}

// TestIncrementalIndexesMatchScans drives a site's receive, apply and
// Reload paths through random sequences — plain index, apply, the
// apply-before-index leak shape (ROADMAP 0-A(c)), redelivery past the
// dedup horizon, and Reload of messages the site never indexed — and
// after every step checks the incremental SAFETIME heaps and staleness
// FIFO against linear scans of the maps they index, that no object keeps
// a zero pending count, and that neither structure grows past twice its
// live entries plus compactSlack.
func TestIncrementalIndexesMatchScans(t *testing.T) {
	msgs, msets := modelPool()
	check := func(run modelRun) bool {
		s := NewShardedSite(1, []queue.Queue{queue.NewMem(), queue.NewMem()})
		s.SetApply(func(et.MSet) error { return nil })
		s.SetSeenRetention(3) // a short horizon, so redeliveries re-index
		// apply runs one queued or unqueued message through the
		// processor's own bookkeeping: applyOne, then the batched ack.
		apply := func(k int) {
			sh := s.shardOf(msgs[k].ID)
			if ack, _ := s.applyOne(applyItem{msg: msgs[k], m: msets[k]}, nil); ack {
				if err := s.ins[sh].AckBatch([]uint64{msgs[k].ID}); err == nil {
					s.pruneSeen([]uint64{msgs[k].ID})
				}
			}
		}
		for i, st := range run {
			k := int(st.K) % len(msgs)
			sh := s.shardOf(msgs[k].ID)
			switch st.Op {
			case 0: // receive: enqueue, then index
				if err := s.ReceiveDecodedBatch(msgs[k:k+1], msets[k:k+1]); err != nil {
					t.Fatal(err)
				}
			case 1: // apply the k-th queued message of its shard, if any
				q, err := s.ins[sh].All()
				if err != nil {
					t.Fatal(err)
				}
				if len(q) > 0 {
					j := q[int(st.K)%len(q)]
					for n := range msgs {
						if msgs[n].ID == j.ID {
							apply(n)
						}
					}
				}
			case 2: // the leak: the pass applies before Receive indexes
				if err := s.ins[sh].EnqueueBatch(msgs[k : k+1]); err != nil {
					t.Fatal(err)
				}
				apply(k)
				s.mu.Lock()
				s.indexLocked(msgs[k], msets[k], sh)
				s.mu.Unlock()
			case 3: // a message the site never indexed, then Reload
				if err := s.ins[sh].EnqueueBatch(msgs[k : k+1]); err != nil {
					t.Fatal(err)
				}
				if err := s.Reload(); err != nil {
					t.Fatal(err)
				}
			case 4: // a redelivered message applies again, queued or not
				apply(k)
			}
			s.mu.Lock()
			bad := modelMismatch(s)
			s.mu.Unlock()
			if bad == "" {
				continue
			}
			t.Logf("step %d %+v: %s", i, st, bad)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
