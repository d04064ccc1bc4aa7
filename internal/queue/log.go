package queue

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/metrics"
)

// maxRecordSize bounds a single log record.  Writers never produce
// records anywhere near this large, so a complete length prefix above it
// can only be corruption, not a torn write.
const maxRecordSize = 1 << 26

// compactSuffix names the temporary file a compaction renames over the
// log.
const compactSuffix = ".compact"

// compaction crash points, settable only by tests to prove crash safety
// of each step.
const (
	crashAfterTempWrite = iota + 1 // temp log written and synced, before rename
	crashAfterRename               // renamed over the log, before handle swap
)

// errSimulatedCrash marks a test-injected crash inside compaction.
var errSimulatedCrash = errors.New("queue: simulated crash")

// Log is the append-only record log every journal in the system is
// built on: the stable queues, the write-ahead log, and the
// reservation-intent, cross-shard and sequencer-state journals.  It owns
// the file — framing, recovery, group commit, compaction — while each
// caller owns its record bodies, its state and when to compact.
//
// A record is a uint32 little-endian body length followed by the body.
// OpenLog replays under one rule: a short final record is a torn tail
// (a crash mid-append) and is truncated; a length above maxRecordSize,
// or a complete record the caller cannot decode, is corruption and
// fails with *CorruptError.
//
// Appends group-commit: writers stage records, and the first one through
// the commit lock becomes the leader, lingers for the flush window, then
// writes everything staged with one write and at most one fsync.
type Log struct {
	path   string
	window time.Duration

	mu       sync.Mutex
	f        *os.File
	closed   bool
	stage    []byte
	waiters  []chan error
	needSync bool // some staged record asked for an fsync

	// commitMu is held by the flush leader across write+fsync and by a
	// compaction across its rewrite, so neither interleaves.
	commitMu sync.Mutex
	size     atomic.Int64

	syncs      *metrics.Counter
	met        Metrics
	crashPoint int // test-only compaction crash injection
}

// OpenLog opens (creating if needed) the log at path and replays it,
// handing every complete record's body to decode in order; a decode
// error marks the record corrupt.  window is the group-commit flush
// window (see Options.FlushWindow).  A compaction temp file left by a
// crash is removed: until the rename, the log itself is authoritative.
func OpenLog(path string, window time.Duration, decode func(body []byte) error) (*Log, error) {
	os.Remove(path + compactSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("queue: open log: %w", err)
	}
	l := &Log{path: path, window: window, f: f, syncs: metrics.NewCounter()}
	if err := l.replay(decode); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay decodes every record, truncates a torn tail and leaves the
// file positioned for appends.
func (l *Log) replay(decode func([]byte) error) error {
	br := bufio.NewReader(l.f)
	var good int64 // offset just past the last complete record
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			break // clean EOF, or a torn length prefix
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxRecordSize {
			// Length prefixes are written whole from real record sizes; a
			// complete prefix this large cannot be a torn write.
			return &CorruptError{Path: l.path, Offset: good,
				Reason: fmt.Sprintf("record length %d exceeds the %d-byte limit", n, maxRecordSize)}
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			break // torn body: the record never finished writing
		}
		if err := decode(body); err != nil {
			// The record is complete on disk but does not parse: that is
			// damage, not a crash artifact.
			return &CorruptError{Path: l.path, Offset: good,
				Reason: fmt.Sprintf("undecodable record: %v", err)}
		}
		good += 4 + int64(n)
	}
	if err := l.f.Truncate(good); err != nil {
		return fmt.Errorf("queue: truncate torn log tail: %w", err)
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("queue: seek after replay: %w", err)
	}
	l.size.Store(good)
	return nil
}

// SetMetrics installs the log's instruments; m.Syncs, when set, becomes
// the counter Syncs reads.  Call before concurrent use.
func (l *Log) SetMetrics(m Metrics) {
	l.met = m
	if m.Syncs != nil {
		l.syncs = m.Syncs
	}
}

// Syncs reports the cumulative number of fsyncs the log issued.
func (l *Log) Syncs() uint64 { return l.syncs.Value() }

// Size reports the bytes written to the log, staged records excluded.
func (l *Log) Size() int64 { return l.size.Load() }

// Append writes bodies as consecutive records and returns once they are
// written — and fsynced, when sync is set.  Concurrent appends share one
// write and one fsync.
func (l *Log) Append(sync bool, bodies ...[]byte) error {
	return l.wait(l.stageRecords(sync, bodies))
}

// stageRecords frames bodies onto the next group commit and returns the
// channel that carries that flush's result.
func (l *Log) stageRecords(sync bool, bodies [][]byte) chan error {
	ch := make(chan error, 1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		ch <- ErrClosed
		return ch
	}
	for _, b := range bodies {
		l.stage = binary.LittleEndian.AppendUint32(l.stage, uint32(len(b)))
		l.stage = append(l.stage, b...)
	}
	l.needSync = l.needSync || sync
	l.waiters = append(l.waiters, ch)
	return ch
}

// wait drives group commit until ch resolves.  The first caller through
// commitMu becomes the leader: it lingers for the flush window, then
// writes (and, if any writer asked, fsyncs) everything staged and wakes
// every waiter.  Later callers find their result already delivered.
func (l *Log) wait(ch chan error) error {
	l.commitMu.Lock()
	select {
	case err := <-ch:
		l.commitMu.Unlock()
		return err
	default:
	}
	if l.window > 0 {
		time.Sleep(l.window)
	}
	l.mu.Lock()
	data, waiters, needSync := l.stage, l.waiters, l.needSync
	l.stage, l.waiters, l.needSync = nil, nil, false
	f, closed := l.f, l.closed
	l.mu.Unlock()
	err := ErrClosed
	if !closed {
		err = l.write(f, data, needSync)
	}
	if err == nil {
		l.size.Add(int64(len(data)))
	}
	for _, w := range waiters {
		w <- err
	}
	l.commitMu.Unlock()
	// Our channel was staged before we took commitMu, so the loop above
	// necessarily resolved it with err.
	return err
}

// write writes data to f and, when sync is set, fsyncs it.
func (l *Log) write(f *os.File, data []byte, sync bool) error {
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("queue: write %s: %w", f.Name(), err)
	}
	if !sync {
		return nil
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("queue: sync %s: %w", f.Name(), err)
	}
	l.syncs.Inc()
	l.met.SyncSeconds.Observe(int64(time.Since(t0)))
	return nil
}

// Compact atomically replaces the log's contents with bodies: they are
// written to a temporary file, which is fsynced and renamed over the
// log, and the directory is fsynced.  A crash at any point leaves a
// complete log, the old one before the rename and the new one after.
func (l *Log) Compact(bodies ...[]byte) error {
	return l.compact(func() ([][]byte, bool) { return bodies, true })
}

// compact is Compact with the replacement computed by snapshot while no
// flush is in flight, so no record written before the snapshot can be
// lost to it; records staged meanwhile land in the new file.  snapshot
// returning false skips the compaction.
func (l *Log) compact(snapshot func() ([][]byte, bool)) error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	bodies, ok := snapshot()
	if !ok {
		return nil
	}
	return l.rewrite(bodies)
}

// rewrite is compaction's temp write and fsync, rename, directory fsync
// and handle swap.  Callers hold commitMu.
func (l *Log) rewrite(bodies [][]byte) error {
	var data []byte
	for _, b := range bodies {
		data = binary.LittleEndian.AppendUint32(data, uint32(len(b)))
		data = append(data, b...)
	}
	tmpPath := l.path + compactSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("queue: create compaction file: %w", err)
	}
	if err := l.write(tmp, data, true); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	l.met.Compactions.Inc()
	if l.crashPoint == crashAfterTempWrite {
		tmp.Close()
		return errSimulatedCrash
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("queue: swap compacted log: %w", err)
	}
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		l.met.DirSyncErrors.Inc()
	}
	if l.crashPoint == crashAfterRename {
		tmp.Close()
		return errSimulatedCrash
	}
	// tmp's descriptor now refers to the renamed log, positioned at its
	// end; it replaces the stale handle.
	l.mu.Lock()
	old := l.f
	l.f = tmp
	l.mu.Unlock()
	old.Close()
	l.size.Store(int64(len(data)))
	return nil
}

// Close waits for an in-flight flush, fails every writer still staged
// (it was never acknowledged) and releases the file.  Closing twice is a
// no-op.
func (l *Log) Close() error {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for _, w := range l.waiters {
		w <- ErrClosed
	}
	l.stage, l.waiters = nil, nil
	return l.f.Close()
}

// syncDir fsyncs a directory so a rename inside it is durable.  Best
// effort — some filesystems refuse directory fsync — but the failure is
// reported so callers can count it instead of silently weakening the
// rename's durability.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	d.Close()
	return serr
}
