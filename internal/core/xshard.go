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
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

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

// xshardRec is one journal record: an intent carrying the encoded
// per-shard MSets of a decided burst, or a resolution marker for the
// intent before it.
type xshardRec struct {
	Commit bool     // true: resolution marker (Parts empty)
	Parts  [][]byte // encoded et.MSets, one per (ET, shard) pair
}

// xshardFile is one origin's cross-shard commit journal: uint32
// length-prefixed gob records, intent records fsynced before the write
// returns, last unresolved intent wins, torn tail ignored.
type xshardFile struct {
	mu      sync.Mutex
	f       *os.File
	pending [][]byte // parts of the last intent without a later marker
	size    int64
}

// xshardCompactAt bounds journal growth: a fully resolved journal past
// this size is truncated before the next intent is appended (resolved
// records are dead weight — only the last unresolved intent matters).
const xshardCompactAt = 64 << 10

func xshardPath(dir string, id clock.SiteID) string {
	return filepath.Join(dir, fmt.Sprintf("xshard-%d.log", id))
}

// openXShard opens (creating if needed) the origin's cross-shard
// journal and loads its pending intent, if any.
func openXShard(dir string, id clock.SiteID) (*xshardFile, error) {
	f, err := os.OpenFile(xshardPath(dir, id), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("core: open cross-shard journal: %w", err)
	}
	xf := &xshardFile{f: f}
	buf, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: read cross-shard journal: %w", err)
	}
	off := 0
	for off+4 <= len(buf) {
		n := int(decodeU64(buf[off : off+4]))
		if off+4+n > len(buf) {
			break // torn tail
		}
		var rec xshardRec
		if err := gob.NewDecoder(bytes.NewReader(buf[off+4 : off+4+n])).Decode(&rec); err != nil {
			break // corrupt tail: everything before it was intact
		}
		if rec.Commit {
			xf.pending = nil
		} else {
			xf.pending = rec.Parts
		}
		off += 4 + n
	}
	if off < len(buf) {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, fmt.Errorf("core: trim cross-shard journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	xf.size = int64(off)
	return xf, nil
}

// append writes one record; intents are fsynced before returning (the
// durability is the protocol), resolution markers are not (a lost
// marker only costs an idempotent re-broadcast on the next restart).
func (xf *xshardFile) append(rec xshardRec, sync bool) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return fmt.Errorf("core: encode cross-shard record: %w", err)
	}
	n := body.Len()
	hdr := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
	if _, err := xf.f.Write(hdr); err != nil {
		return fmt.Errorf("core: append cross-shard record: %w", err)
	}
	if _, err := xf.f.Write(body.Bytes()); err != nil {
		return fmt.Errorf("core: append cross-shard record: %w", err)
	}
	if sync {
		if err := xf.f.Sync(); err != nil { //esrvet:ignore A8 the decision record must be durable before any shard broadcasts; xf.mu serializes appends by design
			return fmt.Errorf("core: sync cross-shard record: %w", err)
		}
	}
	xf.size += int64(4 + n)
	return nil
}

// begin durably records a decided cross-shard burst.
func (xf *xshardFile) begin(parts [][]byte) error {
	xf.mu.Lock()
	defer xf.mu.Unlock()
	if xf.pending == nil && xf.size > xshardCompactAt {
		// Everything on disk is resolved; restart the journal.  A crash
		// between truncate and the append below leaves an empty journal
		// and nothing broadcast — atomically nothing happened.
		if err := xf.f.Truncate(0); err != nil {
			return fmt.Errorf("core: compact cross-shard journal: %w", err)
		}
		if _, err := xf.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		xf.size = 0
	}
	if err := xf.append(xshardRec{Parts: parts}, true); err != nil { //esrvet:ignore A8 the intent must be durable before any shard's reservation broadcasts; xf.mu serializes appends by design
		return err
	}
	xf.pending = parts
	return nil
}

// end marks the last intent resolved (every part durably enqueued on
// every link).
func (xf *xshardFile) end() error {
	xf.mu.Lock()
	defer xf.mu.Unlock()
	if xf.pending == nil {
		return nil
	}
	if err := xf.append(xshardRec{Commit: true}, false); err != nil { //esrvet:ignore A8 the resolution marker rides the same serialized journal; a torn write is re-resolved at restart
		return err
	}
	xf.pending = nil
	return nil
}

// takePending returns the unresolved intent's parts, if any.
func (xf *xshardFile) takePending() [][]byte {
	xf.mu.Lock()
	defer xf.mu.Unlock()
	return xf.pending
}

func (xf *xshardFile) close() {
	xf.mu.Lock()
	defer xf.mu.Unlock()
	if xf.f != nil {
		xf.f.Close()
		xf.f = nil
	}
}

// beginCrossShard durably records a decided cross-shard burst against
// its origin before any part of it broadcasts.  In-memory clusters (no
// Dir) skip the journal — a process crash loses the whole cluster, so
// there is no partial state to protect.  The caller must serialize
// begin/end per origin (Submit holds the submit gates across both).
func (c *Cluster) beginCrossShard(origin clock.SiteID, msets []et.MSet) error {
	xf := c.xintents[origin]
	if xf == nil {
		return nil
	}
	parts := make([][]byte, len(msets))
	for i, m := range msets {
		p, err := m.Encode()
		if err != nil {
			return err
		}
		parts[i] = p
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
	// Origin first (its inbound queues and dedup drop what survived),
	// then each part on its shard's links.
	if err := site.ReceiveDecodedBatch(msgs, msets); err != nil {
		return fmt.Errorf("core: redeliver cross-shard burst at origin: %w", err)
	}
	for i, m := range msets {
		var enqErr error
		c.forEachShardLink(id, m.Shard, func(to clock.SiteID, l *link) {
			if enqErr != nil {
				return
			}
			if err := l.q.Enqueue(msgs[i]); err != nil {
				enqErr = fmt.Errorf("core: re-enqueue cross-shard part for %v: %w", to, err)
				return
			}
			l.d.Kick()
		})
		if enqErr != nil {
			return enqErr
		}
	}
	return xf.end()
}
