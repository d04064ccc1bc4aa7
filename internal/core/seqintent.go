// Reservation-intent journal: the origin-side half of gap-free
// sequencing.  NextSeqN durably records each reserved run [start,
// start+count) before handing it to the engine, so a crash between
// reserving and broadcasting leaves evidence of who owns the numbers.
// On restart the origin resolves its last intent: MSets it durably
// produced (write-ahead log or inbound journal) are re-broadcast —
// receivers dedup by message identity — and the rest of the run is
// filled with empty gap MSets carrying deterministic IDs
// (et.MakeGapID), so every site's sequence cursor can pass the run.
//
// Only the LAST intent can be unresolved: reservation and broadcast are
// serialized per origin (ordup holds its submit lock across both), so
// every earlier run finished enqueueing on all links before the next
// reservation was recorded.
package core

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/queue"
	"esr/internal/replica"
)

// intentRec is one reserved run.
type intentRec struct {
	start, count uint64
}

// intentFile is one origin's reservation-intent journal, a queue.Log of
// 16-byte little-endian (start, count) records, fsynced one per record;
// the last record wins.  A torn tail is truncated on open — a run whose
// intent never became durable was never returned to the engine, so
// nothing references its numbers.  Callers serialize record calls per
// journal (the submit gate does), so the log's last record is last.
type intentFile struct {
	log  *queue.Log
	last atomic.Pointer[intentRec] // nil until the first record
}

// intentCompactAt bounds the journal: once it reaches this size, the
// next record rewrites it to that record alone, since only the last
// record matters.
const intentCompactAt = 64 << 10

// intentPath names one origin's per-shard intent journal.  Shard 0
// keeps the pre-sharding name so single-shard deployments recover
// journals written before sharding existed.
func intentPath(dir string, id clock.SiteID, shard int) string {
	if shard == 0 {
		return filepath.Join(dir, fmt.Sprintf("seq-intent-%d.log", id))
	}
	return filepath.Join(dir, fmt.Sprintf("seq-intent-%d-s%d.log", id, shard))
}

// openIntent opens (creating if needed) the origin's intent journal for
// one shard and loads its last record.
func openIntent(dir string, id clock.SiteID, shard int) (*intentFile, error) {
	it := &intentFile{}
	l, err := queue.OpenLog(intentPath(dir, id, shard), 0, func(body []byte) error {
		if len(body) != 16 {
			return fmt.Errorf("intent record is %d bytes, want 16", len(body))
		}
		it.last.Store(&intentRec{start: binary.LittleEndian.Uint64(body), count: binary.LittleEndian.Uint64(body[8:])})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: open seq intent journal: %w", err)
	}
	it.log = l
	return it, nil
}

// record appends one run and makes it durable before returning.
func (it *intentFile) record(start, count uint64) error {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], start)
	binary.LittleEndian.PutUint64(b[8:], count)
	var err error
	if it.log.Size() >= intentCompactAt {
		err = it.log.Compact(b[:])
	} else {
		err = it.log.Append(true, b[:])
	}
	if err != nil {
		return fmt.Errorf("core: append seq intent: %w", err)
	}
	it.last.Store(&intentRec{start: start, count: count})
	return nil
}

// lastRun returns the most recent durable reservation (ok=false when
// the journal is empty).
func (it *intentFile) lastRun() (intentRec, bool) {
	if p := it.last.Load(); p != nil {
		return *p, true
	}
	return intentRec{}, false
}

func (it *intentFile) close() { it.log.Close() }

// recordSeqIntent durably notes a reserved run against its origin and
// shard before NextSeqNShard returns it.  In-memory clusters (no Dir)
// skip the journal: there is no durable state to resolve against after
// a crash.
func (c *Cluster) recordSeqIntent(from clock.SiteID, shard int, start, n uint64) error {
	it := c.intentFor(from, shard)
	if it == nil {
		return nil
	}
	if err := it.record(start, n); err != nil {
		return fmt.Errorf("core: record seq intent: %w", err)
	}
	return nil
}

// resolveSeqIntents settles the origin's last reserved run in one
// shard's sequence space after a restart: every sequence number of the
// run is either re-broadcast (the MSet survives in the WAL or the
// inbound journal — receivers collapse duplicates by message identity)
// or filled with an empty gap MSet whose deterministic ID makes
// repeated resolutions converge.  Runs and gap fills are wholly
// per-shard: a gap in one domain never blocks (or is observed by)
// another.  The caller passes the site handle, the shard's inbound
// queue and recovered WAL records explicitly so this is callable under
// siteMu from RestartSite as well as from Setup's cold-recovery path.
func (c *Cluster) resolveSeqIntents(id clock.SiteID, shard int, site *replica.Site, in queue.Queue, records []et.MSet) error {
	it := c.intentFor(id, shard)
	if it == nil {
		return nil
	}
	run, ok := it.lastRun()
	if !ok || run.count == 0 {
		return nil
	}
	inRun := func(m et.MSet) bool {
		return m.Origin == id && m.Shard == shard &&
			m.Seq >= run.start && m.Seq < run.start+run.count
	}
	bySeq := make(map[uint64]et.MSet, run.count)
	for _, m := range records {
		if inRun(m) {
			bySeq[m.Seq] = m
		}
	}
	if in != nil {
		msgs, err := in.All()
		if err != nil {
			return fmt.Errorf("core: scan inbound journal for intents: %w", err)
		}
		for _, msg := range msgs {
			m, err := et.DecodeMSet(msg.Payload)
			if err != nil {
				continue
			}
			if inRun(m) {
				bySeq[m.Seq] = m
			}
		}
	}
	gapFills := c.met.gapFillCounter(id, shard)
	msets := make([]et.MSet, 0, run.count)
	for seq := run.start; seq < run.start+run.count; seq++ {
		m, found := bySeq[seq]
		if !found {
			// The number was reserved but its MSet never became durable
			// anywhere: it cannot be in flight (the inbound journal is
			// written before any outbound link), so the origin still
			// owns it exclusively and may retire it with an empty MSet.
			m = et.MSet{
				ET:       et.MakeGapID(id, seq),
				Origin:   id,
				Seq:      seq,
				TS:       site.Clock.Tick(),
				SeqFloor: seq,
				Shard:    shard,
			}
			gapFills.Inc()
		}
		msets = append(msets, m)
	}
	// Re-broadcast the run in sequence order through propagate, which
	// touches none of the siteMu-guarded maps.
	msgs, err := encodeMSets(msets)
	if err != nil {
		return err
	}
	if err := c.propagate(site, msgs, msets); err != nil {
		return fmt.Errorf("core: redeliver intent run: %w", err)
	}
	return nil
}
