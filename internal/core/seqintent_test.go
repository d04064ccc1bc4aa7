package core

import (
	"os"
	"testing"
)

func TestIntentJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	it, err := openIntent(dir, 1, 0)
	if err != nil {
		t.Fatalf("openIntent: %v", err)
	}
	if _, ok := it.lastRun(); ok {
		t.Fatal("fresh journal reports a run")
	}
	if err := it.record(10, 3); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := it.record(13, 5); err != nil {
		t.Fatalf("record: %v", err)
	}
	run, ok := it.lastRun()
	if !ok || run.start != 13 || run.count != 5 {
		t.Errorf("lastRun = %+v, %v, want {13 5}, true", run, ok)
	}
	it.close()

	// Reopen: the last intact record wins.
	it2, err := openIntent(dir, 1, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	run, ok = it2.lastRun()
	if !ok || run.start != 13 || run.count != 5 {
		t.Errorf("after reopen lastRun = %+v, %v, want {13 5}, true", run, ok)
	}

	// A reservation per update must not grow the journal forever: past
	// its bound it compacts to the last record, which still wins.
	var start uint64 = 18
	for i := 0; i < intentCompactAt/16+64; i++ {
		if err := it2.record(start, 2); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		start += 2
	}
	fi, err := os.Stat(intentPath(dir, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > intentCompactAt+64 {
		t.Errorf("intent journal is %d bytes after %d records; never compacted", fi.Size(), intentCompactAt/16+64)
	}
	it2.close()
	it3, err := openIntent(dir, 1, 0)
	if err != nil {
		t.Fatalf("reopen compacted: %v", err)
	}
	defer it3.close()
	if run, ok = it3.lastRun(); !ok || run.start != start-2 || run.count != 2 {
		t.Errorf("after compaction lastRun = %+v, %v, want {%d 2}, true", run, ok, start-2)
	}
}

func TestIntentJournalTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	it, err := openIntent(dir, 2, 0)
	if err != nil {
		t.Fatalf("openIntent: %v", err)
	}
	if err := it.record(1, 4); err != nil {
		t.Fatalf("record: %v", err)
	}
	it.close()

	// Simulate a crash mid-append: a partial record at the tail.
	f, err := os.OpenFile(intentPath(dir, 2, 0), os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	it2, err := openIntent(dir, 2, 0)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	run, ok := it2.lastRun()
	if !ok || run.start != 1 || run.count != 4 {
		t.Errorf("lastRun = %+v, %v, want {1 4}, true", run, ok)
	}
	// The tail was trimmed, so the next append lands on a boundary and
	// survives another reopen.
	if err := it2.record(5, 2); err != nil {
		t.Fatalf("record after trim: %v", err)
	}
	it2.close()
	it3, err := openIntent(dir, 2, 0)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer it3.close()
	run, ok = it3.lastRun()
	if !ok || run.start != 5 || run.count != 2 {
		t.Errorf("after trim+append lastRun = %+v, %v, want {5 2}, true", run, ok)
	}
	// Two whole records, as the log counts them: nothing of the torn
	// tail survives between them.
	if fi, err := os.Stat(intentPath(dir, 2, 0)); err != nil || fi.Size() != it3.log.Size() || fi.Size() != 2*(4+16) {
		t.Errorf("journal size %v, log size %d, want two records (err %v)", fi.Size(), it3.log.Size(), err)
	}
}
