// Site catch-up (anti-entropy): a site restarted so far behind that
// normal redelivery can no longer help it — its journals wiped or
// compacted past the horizon — pulls a state transfer from a live peer
// instead of waiting for MSets that will never come.
//
// Every process hosting cluster site i serves snapshots of it on
// virtual transport site core.SnapSite(i).  A snapshot is the donor's
// store content plus its applied-sequence watermark, captured between
// applies (under the site's applyMu) so it is exactly the prefix of the
// global order below the watermark.  The blob travels in bounded chunks
// (queue's chunk framing); the donor pins the encoding under a handle
// so chunks stay consistent while the donor keeps applying.
//
// Installation rides the normal apply pipeline: the fetched state
// becomes one synthetic MSet (ET in the reserved snapshot-ID range)
// whose ops rebuild the store from empty and whose Seq is the last
// sequence number the snapshot covers.  Applying it jumps the site's
// cursor past the donor's prefix, and — because it flows through the
// site's receive path like any MSet — it lands in the inbound journal
// and the WAL, so a second crash recovers the transferred state without
// a second transfer.
package ordup

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/trace"
)

// snapChunk bounds one state-transfer response.
const snapChunk = 64 << 10

// encodeSnapshot builds the transferred state: the donor's next expected
// sequence number per ordering shard (a uvarint count, then one uvarint
// each), followed by one encoded et.MSet whose ops rebuild the donor's
// store from empty.
func encodeSnapshot(nexts []uint64, ops []op.Op) ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(nexts)))
	for _, n := range nexts {
		b = binary.AppendUvarint(b, n)
	}
	m, err := et.MSet{Ops: ops}.Encode()
	return append(b, m...), err
}

// decodeSnapshot parses a blob built by encodeSnapshot.
func decodeSnapshot(b []byte) (nexts []uint64, ops []op.Op, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, errors.New("ordup: decode snapshot: bad shard count")
	}
	b = b[k:]
	nexts = make([]uint64, n)
	for i := range nexts {
		if nexts[i], k = binary.Uvarint(b); k <= 0 {
			return nil, nil, errors.New("ordup: decode snapshot: bad sequence number")
		}
		b = b[k:]
	}
	m, err := et.DecodeMSet(b)
	if err != nil {
		return nil, nil, fmt.Errorf("ordup: decode snapshot: %w", err)
	}
	return nexts, m.Ops, nil
}

// registerSnapshotServers installs a snapshot handler for every locally
// hosted site.
func (e *Engine) registerSnapshotServers() {
	for _, id := range e.c.SiteIDs() {
		if e.c.Site(id) == nil {
			continue // remote in this process
		}
		id := id
		e.c.Net.Register(core.SnapSite(id), func(from clock.SiteID, payload []byte) ([]byte, error) {
			return e.serveSnapshot(id, payload)
		})
	}
}

// serveSnapshot answers one chunk request against the donor site.
func (e *Engine) serveSnapshot(id clock.SiteID, payload []byte) ([]byte, error) {
	handle, offset, err := queue.DecodeChunkReq(payload)
	if err != nil {
		return nil, err
	}
	if e.c.SiteCrashed(id) {
		return nil, fmt.Errorf("ordup: snapshot donor %v is crashed", id)
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if handle == 0 {
		blob, err := e.buildSnapshot(id)
		if err != nil {
			return nil, err
		}
		e.snapHandle++
		handle = e.snapHandle
		e.snaps[handle] = blob
		// A client that dies mid-transfer leaks its pinned encoding;
		// keep only the newest few.
		for len(e.snaps) > 8 {
			oldest := handle
			for h := range e.snaps {
				if h < oldest {
					oldest = h
				}
			}
			delete(e.snaps, oldest)
		}
	}
	blob, ok := e.snaps[handle]
	if !ok {
		return nil, fmt.Errorf("ordup: unknown snapshot handle %d", handle)
	}
	if offset > uint64(len(blob)) {
		return nil, fmt.Errorf("ordup: snapshot offset %d past end %d", offset, len(blob))
	}
	end := offset + snapChunk
	if end > uint64(len(blob)) {
		end = uint64(len(blob))
	}
	if end == uint64(len(blob)) {
		defer delete(e.snaps, handle)
	}
	return queue.EncodeChunk(handle, uint64(len(blob)), offset, blob[offset:end]), nil
}

// buildSnapshot captures the donor between applies: with every shard's
// applyMu held (acquired in ascending shard order, released in reverse)
// the store holds exactly the union of applied prefixes below each
// shard's cursor — one consistent cut across all ordering domains.
func (e *Engine) buildSnapshot(id clock.SiteID) ([]byte, error) {
	s := e.c.Site(id)
	if s == nil {
		return nil, fmt.Errorf("ordup: unknown snapshot donor %v", id)
	}
	sts := e.states[id]
	for _, st := range sts {
		st.applyMu.Lock() //esrvet:ignore A1 every shard's applyMu is released in the reverse loop below; the pairing spans loops the checker cannot match
	}
	nexts := make([]uint64, len(sts))
	for sh, st := range sts {
		st.mu.Lock()
		nexts[sh] = st.next
		st.mu.Unlock()
	}
	values := s.Store.Snapshot()
	for sh := len(sts) - 1; sh >= 0; sh-- {
		sts[sh].applyMu.Unlock()
	}
	return encodeSnapshot(nexts, storeOps(values))
}

// storeOps flattens store content into operations that rebuild it from
// an empty store: a write per numeric object, an append per list
// element.  (An object holding an empty list is indistinguishable from
// an untouched one after transfer; ORDUP's operation mix never produces
// one.)  Objects are emitted in sorted order so the encoding is
// deterministic.
func storeOps(values map[string]op.Value) []op.Op {
	objs := make([]string, 0, len(values))
	for o := range values {
		objs = append(objs, o)
	}
	sort.Strings(objs)
	ops := make([]op.Op, 0, len(objs))
	for _, obj := range objs {
		v := values[obj]
		if v.Kind == op.Numeric {
			ops = append(ops, op.WriteOp(obj, v.Num))
			continue
		}
		for _, el := range v.List {
			ops = append(ops, op.AppendOp(obj, el))
		}
	}
	return ops
}

// CatchUpFrom pulls a state transfer for the (freshly restarted, empty)
// site from the donor and hands it to the site's apply pipeline.  It
// returns once the snapshot is durably queued at the site; application
// is asynchronous like any MSet.  Transfer size and duration feed the
// esr_catchup_* metrics.
func (e *Engine) CatchUpFrom(id, donor clock.SiteID) error {
	s := e.c.Site(id)
	if s == nil {
		return fmt.Errorf("ordup: unknown site %v", id)
	}
	start := time.Now()
	bytesCtr, durHist := e.c.CatchupMetrics(id)
	var blob []byte
	var handle uint64
	for {
		req := queue.EncodeChunkReq(handle, uint64(len(blob)))
		resp, err := e.snapCall(id, core.SnapSite(donor), req)
		if err != nil {
			return fmt.Errorf("ordup: fetch snapshot from %v: %w", donor, err)
		}
		h, total, offset, data, err := queue.DecodeChunk(resp)
		if err != nil {
			return err
		}
		if offset != uint64(len(blob)) {
			return fmt.Errorf("ordup: snapshot chunk at %d, want %d", offset, len(blob))
		}
		handle = h
		blob = append(blob, data...)
		bytesCtr.Add(uint64(len(data)))
		if uint64(len(blob)) >= total {
			break
		}
	}
	nexts, ops, err := decodeSnapshot(blob)
	if err != nil {
		return err
	}
	// One synthetic install MSet per ordering shard: each carries the
	// ops of that shard's objects and jumps that shard's cursor past the
	// donor's applied prefix.  Shards the donor never applied anything
	// in have nothing to install.
	for sh, next := range nexts {
		if next <= 1 {
			continue
		}
		var shardOps []op.Op
		for _, o := range ops {
			if e.c.ShardOfObject(o.Object) == sh {
				shardOps = append(shardOps, o)
			}
		}
		m := et.MSet{
			ET:     et.MakeSnapID(id, next-1),
			Origin: id,
			Seq:    next - 1,
			TS:     s.Clock.Tick(),
			Ops:    shardOps,
			Shard:  sh,
		}
		payload, err := m.Encode()
		if err != nil {
			return err
		}
		msg := queue.Message{ID: m.MsgID(), Payload: payload}
		if err := s.ReceiveDecodedBatch([]queue.Message{msg}, []et.MSet{m}); err != nil {
			return fmt.Errorf("ordup: deliver snapshot: %w", err)
		}
		e.c.Trace.RecordSpan(trace.CatchUp, int(id), m.ET.String(), m.MsgID(), start,
			fmt.Sprintf("donor=%d bytes=%d seq=%d shard=%d", donor, len(blob), next-1, sh))
	}
	durHist.Observe(int64(time.Since(start)))
	return nil
}

// snapCall is a transport call with bounded retry around transient
// faults (the donor may be mid-restart or briefly partitioned).
func (e *Engine) snapCall(from, to clock.SiteID, payload []byte) ([]byte, error) {
	backoff := 500 * time.Microsecond
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 20*time.Millisecond {
				backoff *= 2
			}
		}
		resp, err := e.c.Net.Call(from, to, payload)
		if err == nil {
			return resp, nil
		}
		if !network.Transient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}
