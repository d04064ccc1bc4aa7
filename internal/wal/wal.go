// Package wal provides a write-ahead log of applied MSets, giving a
// replica site durable local state.
//
// The paper factors site-failure handling out of replica control: "We
// factor out the problem of internal system consistency due to site
// failures by encapsulating it in the local message processing, which
// assumes each site is capable of maintaining local consistency" (§2.2).
// This package is that local capability: every applied MSet is appended
// (one record on the shared queue.Log holding the MSet's et encoding,
// fsynced) before the apply is acknowledged, and on restart
// RebuildVersioned rebuilds the site's store by re-applying the log.  Together with the journal-backed
// inbound queues of internal/queue, a crashed site recovers to exactly
// its pre-crash state and resumes draining its queue.
package wal

import (
	"fmt"
	"time"

	"esr/internal/et"
	"esr/internal/metrics"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/storage"
	"esr/internal/trace"
)

// WAL is an append-only, crash-safe log of applied MSets.  Concurrent
// appends group-commit on the underlying queue.Log: one write and one
// fsync cover every batch staged while a flush was in flight.
type WAL struct {
	log     *queue.Log
	appends *metrics.Counter

	// ring, when set, receives one wal-fsync span per durably appended
	// MSet, attributed to site, so timelines show the durability leg.
	ring *trace.Ring
	site int
}

// Open opens (creating if needed) the log at path and returns it along
// with every complete record recovered from it.  Recovery follows the
// queue.Log rule: a torn tail from a crash mid-append is truncated away,
// and a damaged record anywhere else fails with *queue.CorruptError
// rather than silently dropping the applied MSets after it.
func Open(path string) (*WAL, []et.MSet, error) {
	var records []et.MSet
	l, err := queue.OpenLog(path, 0, func(body []byte) error {
		m, err := et.DecodeMSet(body)
		if err != nil {
			return err
		}
		records = append(records, m)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	return &WAL{log: l}, records, nil
}

// Metrics instruments the log.  All fields optional; Syncs, when set,
// becomes the fsync counter that Syncs() reads.
type Metrics struct {
	// Syncs counts fsyncs issued.
	Syncs *metrics.Counter
	// SyncSeconds observes each fsync's duration in nanoseconds.
	SyncSeconds *metrics.Histogram
	// Appends counts MSets durably appended.
	Appends *metrics.Counter
}

// SetMetrics installs instrumentation.  Call before concurrent use.
func (w *WAL) SetMetrics(m Metrics) {
	w.log.SetMetrics(queue.Metrics{Syncs: m.Syncs, SyncSeconds: m.SyncSeconds})
	w.appends = m.Appends
}

// SetTrace installs the trace ring: every durably appended MSet gets a
// wal-fsync span (staging through group-commit fsync) attributed to the
// hosting site.  Call before concurrent use.
func (w *WAL) SetTrace(r *trace.Ring, site int) {
	w.ring = r
	w.site = site
}

// Syncs reports the number of fsyncs issued since Open, for benchmarks
// and experiments measuring the group-commit win.  When instrumented it
// is a thin read of the registry's counter.
func (w *WAL) Syncs() uint64 { return w.log.Syncs() }

// Append durably records one applied MSet.
func (w *WAL) Append(m et.MSet) error {
	return w.AppendBatch([]et.MSet{m})
}

// AppendBatch durably records a batch of applied MSets with a single
// write and a single fsync.  Concurrent callers coalesce further: all
// batches staged while one flush is in flight share the next fsync.
func (w *WAL) AppendBatch(ms []et.MSet) error {
	if len(ms) == 0 {
		return nil
	}
	t0 := time.Now()
	bodies := make([][]byte, len(ms))
	for i, m := range ms {
		body, err := m.Encode()
		if err != nil {
			return fmt.Errorf("wal: encode: %w", err)
		}
		bodies[i] = body
	}
	if err := w.log.Append(true, bodies...); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.appends.Add(uint64(len(ms)))
	if w.ring != nil {
		for _, m := range ms {
			w.ring.RecordSpan(trace.WALFsync, w.site, m.ET.String(), m.MsgID(), t0, "")
		}
	}
	return nil
}

// Close releases the log file.  The log can be reopened with Open.
func (w *WAL) Close() error { return w.log.Close() }

// RebuildVersioned replays recovered MSets into a fresh store,
// re-applying their operations in logged (i.e. original apply) order.
// The post-apply value of every updated object is also installed in the
// multi-version side store at the record's timestamp, so snapshot reads
// at pre-crash timestamps survive recovery; mv may be nil.  It returns
// the set of MSet identities already applied, which Receive-side dedup
// needs so redelivered MSets are not applied twice.
func RebuildVersioned(store *storage.Store, mv *storage.MVStore, records []et.MSet) map[et.ID]bool {
	applied := make(map[et.ID]bool, len(records))
	for _, m := range records {
		for _, o := range m.Ops {
			if o.Kind == op.Write && !o.TS.IsZero() {
				store.ApplyTimestamped(o)
			} else {
				store.Apply(o)
			}
			if mv != nil && o.Kind.IsUpdate() {
				mv.InstallMonotone(o.Object, m.TS, store.Get(o.Object))
			}
		}
		applied[m.ET] = true
	}
	return applied
}
