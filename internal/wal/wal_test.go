package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/storage"
)

func mset(local uint64, ops ...op.Op) et.MSet {
	return et.MSet{ET: et.MakeID(1, local), Origin: 1, Ops: ops}
}

func TestAppendAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site.wal")
	w, recovered, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh WAL recovered %d records", len(recovered))
	}
	msets := []et.MSet{
		mset(1, op.WriteOp("x", 10)),
		mset(2, op.IncOp("x", 5), op.AppendOp("log", "a")),
		mset(3, op.MulOp("x", 2)),
	}
	for _, m := range msets {
		if err := w.Append(m); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()

	w2, recovered, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if len(recovered) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recovered))
	}
	for i, m := range recovered {
		if m.ET != msets[i].ET || len(m.Ops) != len(msets[i].Ops) {
			t.Errorf("record %d mangled: %+v", i, m)
		}
	}
}

// TestTornTailTruncated pins the one recovery rule: a torn final record
// is truncated and appends continue, while damage a crash cannot
// produce — an undecodable record mid-file, or a complete length prefix
// past the record limit — fails with *queue.CorruptError instead of
// silently dropping the applied MSets after it.
func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, path string)
		corrupt bool
	}{
		{name: "torn tail", damage: func(t *testing.T, path string) {
			st, _ := os.Stat(path)
			os.Truncate(path, st.Size()-2)
		}},
		{name: "mid-file body", corrupt: true, damage: func(t *testing.T, path string) {
			// Overwrite the first record's body, keeping its length
			// prefix, so intact records follow the damage.
			raw, _ := os.ReadFile(path)
			n := int(binary.LittleEndian.Uint32(raw))
			for i := 4; i < 4+n; i++ {
				raw[i] = 0xff
			}
			if err := os.WriteFile(path, raw, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "oversized prefix", corrupt: true, damage: func(t *testing.T, path string) {
			fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			fh.Write(binary.LittleEndian.AppendUint32(nil, 1<<26+1))
			fh.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "site.wal")
			w, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			w.Append(mset(1, op.IncOp("x", 1)))
			w.Append(mset(2, op.IncOp("x", 1)))
			w.Close()
			before, _ := os.Stat(path)
			tc.damage(t, path)
			damaged, _ := os.Stat(path)

			w2, recovered, err := Open(path)
			if tc.corrupt {
				var ce *queue.CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("Open = %d records, err %v; want *queue.CorruptError", len(recovered), err)
				}
				if after, _ := os.Stat(path); after.Size() != damaged.Size() {
					t.Errorf("corrupt log resized %d -> %d bytes", damaged.Size(), after.Size())
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen torn: %v", err)
			}
			defer w2.Close()
			if len(recovered) != 1 {
				t.Fatalf("recovered %d, want 1 (torn record dropped)", len(recovered))
			}
			if after, _ := os.Stat(path); after.Size() >= before.Size() {
				t.Errorf("torn tail not truncated: %d bytes, was %d", after.Size(), before.Size())
			}
			// Appends continue cleanly after truncation.
			if err := w2.Append(mset(3, op.IncOp("x", 1))); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
		})
	}
}

// TestGobEraLogRejected writes a log in the retired gob record layout
// and requires Open to refuse it as corrupt rather than replay nothing.
func TestGobEraLogRejected(t *testing.T) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(mset(1, op.IncOp("x", 1))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wal")
	l, err := queue.OpenLog(path, 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true, body.Bytes()); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recovered, err := Open(path)
	var ce *queue.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("gob-era log: Open = %d records, err %v; want *queue.CorruptError", len(recovered), err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site.wal")
	w, _, _ := Open(path)
	w.Close()
	if err := w.Append(mset(1)); err == nil {
		t.Errorf("Append after Close must fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestRebuild(t *testing.T) {
	records := []et.MSet{
		mset(1, op.WriteOp("x", 10)),
		mset(2, op.IncOp("x", 5)),
		mset(3, op.MulOp("x", 2)),
		mset(4, op.UAppendOp("set", "e")),
	}
	store := storage.NewStore()
	applied := RebuildVersioned(store, nil, records)
	if got := store.Get("x"); !got.Equal(op.NumValue(30)) {
		t.Errorf("x = %v, want 30", got)
	}
	if got := store.Get("set"); !got.EqualUnordered(op.ListValue("e")) {
		t.Errorf("set = %v", got)
	}
	if len(applied) != 4 {
		t.Errorf("applied set = %d entries", len(applied))
	}
	if !applied[et.MakeID(1, 3)] {
		t.Errorf("applied set missing ET 3")
	}
}

func TestRebuildRespectsThomasRule(t *testing.T) {
	w1 := op.WriteOp("x", 1)
	w1.TS = clock.Timestamp{Time: 10, Site: 1}
	w2 := op.WriteOp("x", 2)
	w2.TS = clock.Timestamp{Time: 5, Site: 1} // stale, ignored on rebuild too
	store := storage.NewStore()
	RebuildVersioned(store, nil, []et.MSet{mset(1, w1), mset(2, w2)})
	if got := store.Get("x"); !got.Equal(op.NumValue(1)) {
		t.Errorf("x = %v, want 1 (stale timestamped write ignored)", got)
	}
}
