// Shard routing: the keyspace is partitioned into Config.NumShards
// disjoint ordering domains by FNV-1a over the object id (et.ShardOf,
// the same hash the store stripes use).  Each shard owns its
// own sequencer (legacy or replicated ensemble), its own outbound
// stable queues and delivery agents, its own inbound journal, WAL and
// reservation-intent journal per site — so unrelated traffic never
// serializes on a shared sequence number, fsync batch or hold-back
// cursor.
//
// Every read of per-shard sequencer/queue/WAL state must go through the
// accessors in this file (esrvet's A7 shard-routing rule enforces it):
// direct indexing of another shard's state from protocol code is how
// cross-domain aliasing bugs start.
package core

import (
	"fmt"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/queue"
	"esr/internal/seqrep"
	"esr/internal/wal"
)

// SequencerSiteFor maps an ordering domain to its legacy order server's
// virtual transport site: shard s answers on SequencerSite+s
// (1000..1015, clear of the seqrep range at 1100+).
func SequencerSiteFor(shard int) clock.SiteID {
	return SequencerSite + clock.SiteID(shard)
}

// normShards normalizes a NumShards knob: zero or negative collapse to
// the single unsharded domain.
func normShards(n int) (int, error) {
	if n <= 1 {
		return 1, nil
	}
	if n > et.MaxShards {
		return 0, fmt.Errorf("core: NumShards %d exceeds limit %d", n, et.MaxShards)
	}
	return n, nil
}

// Shards returns the number of ordering domains (1 on unsharded
// clusters).
func (c *Cluster) Shards() int { return c.shards }

// ShardOfObject routes an object id to its ordering domain.
func (c *Cluster) ShardOfObject(object string) int {
	return et.ShardOf(object, c.shards)
}

// shardSeq returns the shard's local sequence counter (the legacy order
// server's allocation state).
func (c *Cluster) shardSeq(shard int) *clock.Sequencer { return c.seqs[shard] }

// seqClientFor returns the shard's replicated-sequencer client (nil on
// legacy-sequencer clusters).
func (c *Cluster) seqClientFor(shard int) *seqrep.Client {
	if c.seqClients == nil {
		return nil
	}
	return c.seqClients[shard]
}

// linkFor returns the outbound link carrying the shard's traffic from
// one site to another (nil when unknown).
func (c *Cluster) linkFor(from, to clock.SiteID, shard int) *link {
	links := c.out[from]
	if links == nil {
		return nil
	}
	ls := links[to]
	if shard < 0 || shard >= len(ls) {
		return nil
	}
	return ls[shard]
}

// inQueueFor returns the site's inbound stable queue for the shard.
func (c *Cluster) inQueueFor(id clock.SiteID, shard int) queue.Queue {
	qs := c.inQ[id]
	if shard < 0 || shard >= len(qs) {
		return nil
	}
	return qs[shard]
}

// walFor returns the site's write-ahead log for the shard (nil on
// in-memory clusters).
func (c *Cluster) walFor(id clock.SiteID, shard int) *wal.WAL {
	ws := c.wals[id]
	if shard < 0 || shard >= len(ws) {
		return nil
	}
	return ws[shard]
}

// intentFor returns the origin's reservation-intent journal for the
// shard (nil on in-memory clusters).
func (c *Cluster) intentFor(id clock.SiteID, shard int) *intentFile {
	its := c.intents[id]
	if shard < 0 || shard >= len(its) {
		return nil
	}
	return its[shard]
}

// seqRepFor returns the locally hosted ensemble member of the shard
// co-located with the site (nil when none).
func (c *Cluster) seqRepFor(id clock.SiteID, shard int) *seqrep.Replica {
	rs := c.seqReps[id]
	if shard < 0 || shard >= len(rs) {
		return nil
	}
	return rs[shard]
}

// forEachShard runs fn once per ordering domain, in shard order.
func (c *Cluster) forEachShard(fn func(shard int)) {
	for s := 0; s < c.shards; s++ {
		fn(s)
	}
}

// forEachLink visits every outbound link of the site, shard-major so
// one destination's shards stay adjacent.
func (c *Cluster) forEachLink(from clock.SiteID, fn func(to clock.SiteID, shard int, l *link)) {
	for to, ls := range c.out[from] {
		for s, l := range ls {
			fn(to, s, l)
		}
	}
}

// forEachShardLink visits the site's outbound links of one shard only
// (one per destination).
func (c *Cluster) forEachShardLink(from clock.SiteID, shard int, fn func(to clock.SiteID, l *link)) {
	for to := range c.out[from] {
		if l := c.linkFor(from, to, shard); l != nil {
			fn(to, l)
		}
	}
}

// forEachInQ visits the site's per-shard inbound queues.
func (c *Cluster) forEachInQ(id clock.SiteID, fn func(shard int, q queue.Queue)) {
	for s, q := range c.inQ[id] {
		fn(s, q)
	}
}

// forEachWAL visits the site's per-shard write-ahead logs.
func (c *Cluster) forEachWAL(id clock.SiteID, fn func(shard int, w *wal.WAL)) {
	for s, w := range c.wals[id] {
		fn(s, w)
	}
}

// outQueueName names the journal of one (from, to, shard) outbound
// link.  Shard 0 keeps the pre-sharding name so existing journals (and
// single-shard deployments) are untouched.
func outQueueName(from, to clock.SiteID, shard int) string {
	if shard == 0 {
		return fmt.Sprintf("out-%d-%d", from, to)
	}
	return fmt.Sprintf("out-%d-%d-s%d", from, to, shard)
}

// inQueueName names a site's inbound journal for one shard.
func inQueueName(id clock.SiteID, shard int) string {
	if shard == 0 {
		return fmt.Sprintf("in-%d", id)
	}
	return fmt.Sprintf("in-%d-s%d", id, shard)
}
