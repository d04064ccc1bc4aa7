package queue

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openSmall opens a File queue with a low compaction floor so tests can
// trigger compaction with few records.
func openSmall(t *testing.T, path string, retention int) *File {
	t.Helper()
	q, err := OpenOptions(path, Options{CompactMinRecords: 8, SeenRetention: retention})
	if err != nil {
		t.Fatalf("OpenOptions: %v", err)
	}
	return q
}

func TestCompactionRewritesLiveTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q := openSmall(t, path, 100)
	for i := uint64(1); i <= 10; i++ {
		if err := q.Enqueue(Message{ID: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	before, _ := os.Stat(path)
	var acks []uint64
	for i := uint64(1); i <= 8; i++ {
		acks = append(acks, i)
	}
	if err := q.AckBatch(acks); err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	// 10 enqueues + 8 acks = 18 records ≥ 8, live 2 < 9 dead: compacted.
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("journal did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	if q.records != 3 { // Seen + 2 live
		t.Errorf("records = %d after compaction, want 3", q.records)
	}
	// The queue keeps working and the compacted journal replays cleanly.
	if err := q.Enqueue(Message{ID: 11}); err != nil {
		t.Fatalf("Enqueue after compaction: %v", err)
	}
	q.Close()
	q2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen compacted journal: %v", err)
	}
	defer q2.Close()
	all, _ := q2.All()
	if len(all) != 3 || all[0].ID != 9 || all[1].ID != 10 || all[2].ID != 11 {
		t.Fatalf("recovered messages = %v, want IDs [9 10 11]", all)
	}
	// Dedup for recently acked IDs survives the compaction.
	q2.Enqueue(Message{ID: 5})
	if q2.Len() != 3 {
		t.Errorf("re-enqueue of retained acked ID was accepted")
	}
}

// TestSyncDirReportsErrors pins the bugfix contract: directory fsync
// stays best effort, but failures are reported to the caller (which
// counts them) instead of being swallowed.
func TestSyncDirReportsErrors(t *testing.T) {
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncDir on a missing directory reported success")
	}
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
}

func TestCompactionPrunesSeenPastRetention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q := openSmall(t, path, 2) // remember only the last 2 acked IDs
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(Message{ID: i})
	}
	if err := q.AckBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatalf("AckBatch: %v", err)
	}
	if got := len(q.seen); got != 4 { // 2 live + 2 retained acked
		t.Errorf("seen size = %d after compaction, want 4", got)
	}
	// IDs inside the retention horizon stay suppressed…
	q.Enqueue(Message{ID: 8})
	if q.Len() != 2 {
		t.Errorf("ID inside retention horizon re-accepted")
	}
	// …while IDs beyond it are forgotten (an at-least-once redelivery,
	// not a correctness loss: the consumer-side dedup still holds).
	q.Enqueue(Message{ID: 1})
	if q.Len() != 3 {
		t.Errorf("ID beyond retention horizon still suppressed; seen map would leak")
	}
	q.Close()
}

func TestCompactionBoundsJournalAndMemoryUnderChurn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := OpenOptions(path, Options{CompactMinRecords: 64, SeenRetention: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := uint64(1); i <= 2000; i++ {
		if err := q.Enqueue(Message{ID: i, Payload: []byte("payload")}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		if err := q.Ack(i); err != nil {
			t.Fatalf("Ack: %v", err)
		}
	}
	if got := len(q.seen); got > 128 {
		t.Errorf("seen map grew to %d entries under churn; retention not applied", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 64*1024 {
		t.Errorf("journal is %d bytes after 2000 acked messages; compaction not bounding it", st.Size())
	}
}

// TestCompactionCrashPoints proves compaction is crash-safe at each
// step: a crash after the temp-file write (before rename) and a crash
// after the rename (before the handle swap) both leave a journal that
// replays to exactly the live messages, with no loss and no duplicates
// beyond at-least-once.
func TestCompactionCrashPoints(t *testing.T) {
	for _, point := range []int{crashAfterTempWrite, crashAfterRename} {
		t.Run(fmt.Sprintf("point%d", point), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "q.journal")
			q := openSmall(t, path, 100)
			for i := uint64(1); i <= 10; i++ {
				q.Enqueue(Message{ID: i, Payload: []byte{byte(i)}})
			}
			q.log.crashPoint = point
			// Drive the ack batch; compaction triggers and "crashes".
			if err := q.AckBatch([]uint64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
				t.Fatalf("AckBatch: %v", err)
			}
			// The crash abandoned the handle mid-compaction.  Reopen the
			// path as a recovery would.
			q.log.f.Close()

			q2, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after crash point %d: %v", point, err)
			}
			defer q2.Close()
			all, _ := q2.All()
			if len(all) != 2 || all[0].ID != 9 || all[1].ID != 10 {
				t.Fatalf("crash point %d: recovered %v, want IDs [9 10]", point, all)
			}
			// Acked messages must not resurrect (dedup horizon intact in
			// both the old and the compacted journal).
			q2.Enqueue(Message{ID: 3})
			if q2.Len() != 2 {
				t.Errorf("crash point %d: acked message resurrected after recovery", point)
			}
			// And the stale temp file, if any, must be gone.
			if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
				t.Errorf("crash point %d: stale compaction temp file left behind", point)
			}
		})
	}
}

func TestReplayDistinguishesTornTailFromCorruption(t *testing.T) {
	dir := t.TempDir()

	t.Run("torn tail truncates", func(t *testing.T) {
		path := filepath.Join(dir, "torn.journal")
		q, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		q.Enqueue(Message{ID: 1, Payload: []byte("first")})
		q.Enqueue(Message{ID: 2, Payload: []byte("second")})
		q.Close()
		st, _ := os.Stat(path)
		os.Truncate(path, st.Size()-3)
		q2, err := Open(path)
		if err != nil {
			t.Fatalf("torn tail must recover, got %v", err)
		}
		defer q2.Close()
		if q2.Len() != 1 {
			t.Errorf("Len = %d after torn tail, want 1", q2.Len())
		}
	})

	t.Run("mid-file corruption errors with offset", func(t *testing.T) {
		path := filepath.Join(dir, "corrupt.journal")
		q, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		q.Enqueue(Message{ID: 1, Payload: []byte("first")})
		q.Enqueue(Message{ID: 2, Payload: []byte("second")})
		q.Close()
		// Overwrite the FIRST record's body with garbage, keeping its
		// length prefix: damage in the middle of the file, with a
		// complete, intact record after it.
		raw, _ := os.ReadFile(path)
		n1 := int(uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24)
		for i := 4; i < 4+n1; i++ {
			raw[i] = 0xff
		}
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err = Open(path)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("mid-file corruption must return *CorruptError, got %v", err)
		}
		if ce.Offset != 0 {
			t.Errorf("corruption offset = %d, want 0 (first record)", ce.Offset)
		}
		if ce.Path != path {
			t.Errorf("corruption path = %q, want %q", ce.Path, path)
		}
	})

	t.Run("absurd length prefix errors", func(t *testing.T) {
		path := filepath.Join(dir, "length.journal")
		q, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		q.Enqueue(Message{ID: 1, Payload: []byte("first")})
		q.Close()
		st, _ := os.Stat(path)
		// Append a complete 4-byte prefix claiming a 4 GiB record.
		fh, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
		fh.Write([]byte{0xff, 0xff, 0xff, 0xff})
		fh.Close()
		_, err = Open(path)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("oversized length prefix must return *CorruptError, got %v", err)
		}
		if ce.Offset != st.Size() {
			t.Errorf("corruption offset = %d, want %d", ce.Offset, st.Size())
		}
	})
}

// TestGobEraJournalRejected writes a journal in the retired gob record
// layout and requires Open to refuse it as corrupt rather than recover
// an empty (or misread) queue from it.
func TestGobEraJournalRejected(t *testing.T) {
	type gobRecord struct { // the retired layout's field set
		Ack  bool
		Msg  Message
		Seen []uint64
	}
	var bodies [][]byte
	for _, r := range []gobRecord{
		{Msg: Message{ID: 1, Payload: []byte("first")}},
		{Msg: Message{ID: 2, Payload: []byte("second")}},
		{Ack: true, Msg: Message{ID: 1}},
	} {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(r); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b.Bytes())
	}
	path := filepath.Join(t.TempDir(), "gob.journal")
	l, err := OpenLog(path, 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true, bodies...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	q, err := Open(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		if q != nil {
			t.Errorf("recovered %d messages", q.Len())
			q.Close()
		}
		t.Fatalf("gob-era journal: Open err %v, want *CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Errorf("corruption offset = %d, want 0 (first record)", ce.Offset)
	}
}

// TestCompactionKeepsConcurrentEnqueues races enqueues against the
// compactions acks trigger: every message that was enqueued and never
// acked must survive a reopen, whichever moment a compaction hit.
func TestCompactionKeepsConcurrentEnqueues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.journal")
	q, err := OpenOptions(path, Options{CompactMinRecords: 8, SeenRetention: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const producers, per = 4, 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Enqueue(Message{ID: uint64(p*per + i + 1)}); err != nil {
					t.Errorf("Enqueue: %v", err)
					return
				}
			}
		}(p)
	}
	// The consumer acks only even IDs, so compactions keep triggering
	// while odd IDs stay live.
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			all, err := q.All()
			if err != nil {
				return
			}
			var even []uint64
			for _, m := range all {
				if m.ID%2 == 0 {
					even = append(even, m.ID)
				}
			}
			if err := q.AckBatch(even); err != nil {
				t.Errorf("AckBatch: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	cwg.Wait()
	q.Close()
	q2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	all, _ := q2.All()
	got := make(map[uint64]bool, len(all))
	for _, m := range all {
		got[m.ID] = true
	}
	for id := uint64(1); id <= producers*per; id += 2 {
		if !got[id] {
			t.Fatalf("enqueued, never acked message %d lost across reopen", id)
		}
	}
}
