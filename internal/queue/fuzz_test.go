package queue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"esr/internal/et"
	"esr/internal/op"
)

// FuzzJournalRecovery feeds arbitrary bytes to the journal reader every
// journal shares, under both kinds of record body: the queue's binary
// records and a fixed 16-byte record (the intent and sequencer state
// journals' kind).  Opening must never panic, and must either
// recover (keeping any intact record prefix, truncating a torn tail) or
// reject the file with a diagnosable *CorruptError — never any other
// failure.  A recovered journal must accept appends that survive a
// further reopen.
func FuzzJournalRecovery(f *testing.F) {
	// Seed with real journal prefixes plus corruptions.
	dir, err := os.MkdirTemp("", "fuzzseed")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.journal")
	q, err := Open(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	q.Enqueue(Message{ID: 1, Payload: []byte("alpha")})
	q.Enqueue(Message{ID: 2, Payload: []byte("beta")})
	q.Ack(1)
	q.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4})
	f.Add(append(append([]byte{}, seed...), 0xde, 0xad))

	// Batch-written journal: EnqueueBatch and AckBatch records.
	batchPath := filepath.Join(dir, "batch.journal")
	qb, err := Open(batchPath)
	if err != nil {
		f.Fatal(err)
	}
	qb.EnqueueBatch([]Message{
		{ID: 10, Payload: []byte("b0")},
		{ID: 11, Payload: []byte("b1")},
		{ID: 12, Payload: []byte("b2")},
	})
	qb.AckBatch([]uint64{10, 12})
	qb.Close()
	batch, err := os.ReadFile(batchPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(batch[:len(batch)-5])

	// Compacted journal: a Seen record followed by live messages.
	compactPath := filepath.Join(dir, "compact.journal")
	qc, err := OpenOptions(compactPath, Options{CompactMinRecords: 4, SeenRetention: 2})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		qc.Enqueue(Message{ID: i, Payload: []byte{byte(i)}})
	}
	qc.AckBatch([]uint64{1, 2, 3, 4, 5})
	qc.Close()
	compact, err := os.ReadFile(compactPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	f.Add(compact[:len(compact)/2])

	// The other journals on the same log: a write-ahead log of MSets
	// and a reservation-intent journal of 16-byte records.
	writeLog := func(name string, bodies ...[]byte) []byte {
		path := filepath.Join(dir, name)
		l, err := OpenLog(path, 0, func([]byte) error { return nil })
		if err != nil {
			f.Fatal(err)
		}
		if err := l.Append(true, bodies...); err != nil {
			f.Fatal(err)
		}
		l.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	var msets [][]byte
	for i := uint64(1); i <= 3; i++ {
		m := et.MSet{ET: et.MakeID(1, i), Origin: 1, Ops: []op.Op{op.IncOp("x", 1)}}
		body, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		msets = append(msets, body)
	}
	walJournal := writeLog("wal.journal", msets...)
	f.Add(walJournal)
	f.Add(walJournal[:len(walJournal)-4])
	intentJournal := writeLog("intent.journal", intentBody(10, 3), intentBody(13, 5))
	f.Add(intentJournal)
	f.Add(intentJournal[:len(intentJournal)-3])

	f.Fuzz(func(t *testing.T, journal []byte) {
		checkFixedRecordRecovery(t, journal)
		path := filepath.Join(t.TempDir(), "q.journal")
		if err := os.WriteFile(path, journal, 0o600); err != nil {
			t.Fatal(err)
		}
		q, err := Open(path)
		if err != nil {
			checkCorrupt(t, err, journal)
			return
		}
		// The recovered queue must be fully usable.
		if err := q.Enqueue(Message{ID: 1 << 60, Payload: []byte("post-recovery")}); err != nil {
			t.Fatalf("Enqueue after recovery: %v", err)
		}
		n := q.Len()
		if n < 1 {
			t.Fatalf("Len = %d after post-recovery enqueue", n)
		}
		q.Close()
		// And its state must survive another reopen.
		q2, err := Open(path)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer q2.Close()
		if q2.Len() != n {
			t.Fatalf("reopen lost state: %d != %d", q2.Len(), n)
		}
	})
}

// intentBody is one 16-byte little-endian (start, count) record.
func intentBody(start, count uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, start), count)
}

// checkCorrupt requires err to be a *CorruptError pointing inside the
// journal.
func checkCorrupt(t *testing.T, err error, journal []byte) {
	t.Helper()
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("opening arbitrary bytes must recover or report corruption, got %v", err)
	}
	if ce.Offset < 0 || ce.Offset > int64(len(journal)) {
		t.Fatalf("corruption offset %d out of range [0,%d]", ce.Offset, len(journal))
	}
}

// checkFixedRecordRecovery opens journal as a log of 16-byte records:
// it must recover or report corruption, and a recovered log must keep
// one more record across an append and a reopen.
func checkFixedRecordRecovery(t *testing.T, journal []byte) {
	path := filepath.Join(t.TempDir(), "intent.journal")
	if err := os.WriteFile(path, journal, 0o600); err != nil {
		t.Fatal(err)
	}
	n := 0
	decode := func(body []byte) error {
		if len(body) != 16 {
			return fmt.Errorf("record is %d bytes, want 16", len(body))
		}
		n++
		return nil
	}
	l, err := OpenLog(path, 0, decode)
	if err != nil {
		checkCorrupt(t, err, journal)
		return
	}
	if err := l.Append(true, intentBody(1, 1)); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	l.Close()
	before := n
	n = 0
	l2, err := OpenLog(path, 0, decode)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	l2.Close()
	if n != before+1 {
		t.Fatalf("reopen kept %d records, want %d", n, before+1)
	}
}
