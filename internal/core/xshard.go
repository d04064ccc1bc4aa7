// Cross-shard commit journal: the coordinator-side decision record of
// the atomic-commit protocol cross-shard ETs run (see Submit).  After every participating
// shard's sequence reservation has prepared, and BEFORE any shard's
// MSets are broadcast, the origin durably records the full burst here.
// A crash after the record is a decided-but-unpropagated commit: on
// restart resolveXShardIntents re-broadcasts every part — receivers
// collapse duplicates by message identity — so either every shard
// applies the ET or none does, never a partial application.  A crash
// before the record leaves nothing broadcast anywhere (the record is
// written before the first enqueue), so the per-shard sequence-intent
// resolution gap-fills the reserved numbers and the ET atomically never
// happened.
//
// Recovery ordering matters: this journal must resolve before the
// per-shard sequence intents.  Re-broadcasting a decided burst lands
// its parts in the origin's inbound journals, where the sequence-intent
// scan then finds them and re-broadcasts instead of gap-filling — which
// would retire one shard's sequence number while the other shard
// applied its half.
//
// Only the LAST record can be unresolved: cross-shard commits are
// serialized per origin (Submit holds the submit gates across record and
// broadcast), and each record is marked resolved before the
// next begins.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/queue"
	"esr/internal/replica"
)

// TestHookXShardCrash, when non-nil, runs after a cross-shard commit
// record becomes durable and before any of its parts broadcast — the
// exact window the journal exists to cover.  Crash-atomicity tests
// install a CrashSite call here.
var TestHookXShardCrash func(origin clock.SiteID)

// Journal record kinds, the first byte of every record body.  They lie
// in 0x80..0xF7, where no gob stream can begin, so a journal in the
// retired gob layout fails replay at its first record.
const (
	// xshardIntent: to the record's end, per (ET, shard) pair a uvarint
	// length and one encoded et.MSet.
	xshardIntent = 0xA1
	// xshardCommit: the resolution marker for the intent before it; the
	// kind byte alone.
	xshardCommit = 0xA2
)

// xshardFile is one origin's cross-shard commit journal, a queue.Log of
// intent and marker records: intents are fsynced before begin returns,
// markers are not, and the last unresolved intent wins.  Callers
// serialize begin and end per origin (Submit holds the submit gates
// across both).
type xshardFile struct {
	log     *queue.Log
	pending atomic.Pointer[[][]byte] // parts of the last intent without a later marker
}

// xshardCompactAt bounds journal growth: once the journal is past this
// size, the next intent rewrites it to that intent alone.  Every earlier
// record is dead weight: replay keeps only the last unresolved intent.
const xshardCompactAt = 64 << 10

func xshardPath(dir string, id clock.SiteID) string {
	return filepath.Join(dir, fmt.Sprintf("xshard-%d.log", id))
}

// openXShard opens (creating if needed) the origin's cross-shard
// journal and loads its pending intent, if any.
func openXShard(dir string, id clock.SiteID) (*xshardFile, error) {
	xf := &xshardFile{}
	l, err := queue.OpenLog(xshardPath(dir, id), 0, func(body []byte) error {
		switch {
		case len(body) == 1 && body[0] == xshardCommit:
			xf.pending.Store(nil)
		case len(body) > 0 && body[0] == xshardIntent:
			parts, err := decodeIntent(body[1:])
			if err != nil {
				return err
			}
			xf.pending.Store(&parts)
		default:
			return errors.New("unknown cross-shard record")
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: open cross-shard journal: %w", err)
	}
	xf.log = l
	return xf, nil
}

func encodeIntent(parts [][]byte) []byte {
	b := []byte{xshardIntent}
	for _, p := range parts {
		b = append(binary.AppendUvarint(b, uint64(len(p))), p...)
	}
	return b
}

// decodeIntent parses an intent body after its kind byte; the parts
// alias b.
func decodeIntent(b []byte) ([][]byte, error) {
	var parts [][]byte
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return nil, errors.New("bad cross-shard part length")
		}
		parts = append(parts, b[k:k+int(n)])
		b = b[k+int(n):]
	}
	return parts, nil
}

// begin durably records a decided cross-shard burst: the durability is
// the protocol.
func (xf *xshardFile) begin(parts [][]byte) error {
	body := encodeIntent(parts)
	var err error
	if xf.log.Size() > xshardCompactAt {
		err = xf.log.Compact(body)
	} else {
		err = xf.log.Append(true, body)
	}
	if err != nil {
		return fmt.Errorf("core: record cross-shard intent: %w", err)
	}
	xf.pending.Store(&parts)
	return nil
}

// end marks the last intent resolved (every part durably enqueued on
// every link).  The marker is not fsynced: losing it only costs an
// idempotent re-broadcast on the next restart.
func (xf *xshardFile) end() error {
	if xf.takePending() == nil {
		return nil
	}
	if err := xf.log.Append(false, []byte{xshardCommit}); err != nil {
		return fmt.Errorf("core: record cross-shard resolution: %w", err)
	}
	xf.pending.Store(nil)
	return nil
}

// takePending returns the unresolved intent's parts, if any.
func (xf *xshardFile) takePending() [][]byte {
	if p := xf.pending.Load(); p != nil {
		return *p
	}
	return nil
}

func (xf *xshardFile) close() { xf.log.Close() }

// beginCrossShard durably records a decided cross-shard burst (its
// encoded parts) against its origin before any part of it broadcasts.
// In-memory clusters (no Dir) skip the journal — a process crash loses
// the whole cluster, so there is no partial state to protect.  The
// caller must serialize begin/end per origin (Submit holds the submit
// gates across both).
func (c *Cluster) beginCrossShard(origin clock.SiteID, msgs []queue.Message) error {
	xf := c.xintents[origin]
	if xf == nil {
		return nil
	}
	parts := make([][]byte, len(msgs))
	for i, msg := range msgs {
		parts[i] = msg.Payload
	}
	if err := xf.begin(parts); err != nil {
		return err
	}
	if TestHookXShardCrash != nil {
		TestHookXShardCrash(origin)
	}
	return nil
}

// endCrossShard marks the origin's outstanding cross-shard burst
// resolved: every part is durably enqueued on its shard's links, so
// ordinary delivery (not crash recovery) owns propagation from here.
func (c *Cluster) endCrossShard(origin clock.SiteID) error {
	xf := c.xintents[origin]
	if xf == nil {
		return nil
	}
	return xf.end()
}

// resolveXShardIntents settles the origin's unresolved cross-shard
// burst after a restart by re-broadcasting every part on its own
// shard's links (receivers dedup by message identity).  Runs under
// siteMu from RestartSite and from Setup's cold-recovery path, before
// the per-shard sequence intents resolve — see the package comment for
// why the order is load-bearing.
func (c *Cluster) resolveXShardIntents(id clock.SiteID, site *replica.Site) error {
	xf := c.xintents[id]
	if xf == nil {
		return nil
	}
	parts := xf.takePending()
	if len(parts) == 0 {
		return nil
	}
	msets := make([]et.MSet, len(parts))
	msgs := make([]queue.Message, len(parts))
	for i, p := range parts {
		m, err := et.DecodeMSet(p)
		if err != nil {
			return fmt.Errorf("core: decode cross-shard part: %w", err)
		}
		msets[i] = m
		msgs[i] = queue.Message{ID: msgIDFor(m), Payload: p}
	}
	if err := c.propagate(site, msgs, msets); err != nil {
		return fmt.Errorf("core: redeliver cross-shard burst: %w", err)
	}
	return xf.end()
}
