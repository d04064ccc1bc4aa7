// Replicated-sequencer hosting: when Config.SeqReplicas is set, the
// cluster co-hosts one seqrep.Replica with each of its first
// SeqReplicas sites (replica i answers on virtual transport site
// seqrep.ReplicaSite(i)), and NextSeq/NextSeqN route through a
// leader-discovering client instead of the single order server at
// SequencerSite.  CrashSite/RestartSite take the co-hosted replica down
// and bring it back with its site, so killing the sequencer leader is
// exactly the fault the ensemble exists to survive.
package core

import (
	"fmt"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/seqrep"
)

// hostSequencerReplicas builds the locally hosted ensemble members —
// one ensemble per ordering shard — and one reservation client per
// shard.  Called from New.
func (c *Cluster) hostSequencerReplicas() error {
	n := c.cfg.SeqReplicas
	if n > c.cfg.Sites {
		return fmt.Errorf("core: SeqReplicas %d exceeds Sites %d", n, c.cfg.Sites)
	}
	if c.shards > 1 && n > seqrep.ShardStride {
		return fmt.Errorf("core: SeqReplicas %d exceeds per-shard virtual-site stride %d",
			n, seqrep.ShardStride)
	}
	for i := 1; i <= n; i++ {
		id := clock.SiteID(i)
		if !c.IsLocal(id) {
			continue
		}
		rs := make([]*seqrep.Replica, c.shards)
		for sh := 0; sh < c.shards; sh++ {
			r, err := c.newSeqReplica(id, sh)
			if err != nil {
				return err
			}
			rs[sh] = r
		}
		c.seqReps[id] = rs
	}
	c.seqClients = make([]*seqrep.Client, c.shards)
	for sh := 0; sh < c.shards; sh++ {
		cl := seqrep.NewClientShard(c.Net, n, 0, sh)
		cl.Retries = c.met.seqRetryCounter()
		c.seqClients[sh] = cl
	}
	return nil
}

// newSeqReplica builds one ensemble member of one shard's ensemble
// (initial hosting and restart after a crash share this).
func (c *Cluster) newSeqReplica(id clock.SiteID, shard int) (*seqrep.Replica, error) {
	m := c.met.seqrepMetrics(id, shard)
	m.Trace, m.TraceSite = c.Trace, int(id)
	r, err := seqrep.New(seqrep.Config{
		ID:        id,
		Shard:     shard,
		Replicas:  c.cfg.SeqReplicas,
		Transport: c.Net,
		Dir:       c.cfg.Dir,
		Metrics:   m,
	})
	if err != nil {
		return nil, fmt.Errorf("core: sequencer replica %v shard %d: %w", id, shard, err)
	}
	return r, nil
}

// SeqReplicated reports whether sequence reservations go through the
// replicated ensembles.
func (c *Cluster) SeqReplicated() bool { return c.seqClients != nil }

// SeqLeader returns shard 0's reservation-client leader hint
// (0 = unknown or unreplicated).
func (c *Cluster) SeqLeader() clock.SiteID {
	cl := c.seqClientFor(0)
	if cl == nil {
		return 0
	}
	return cl.Leader()
}

// SeqCommittedWatermark asks shard 0's ensemble leader for its
// committed watermark — the pre-sharding surface, kept for tests and
// tooling.
func (c *Cluster) SeqCommittedWatermark(from clock.SiteID) (uint64, error) {
	return c.SeqCommittedWatermarkShard(from, 0)
}

// SeqCommittedWatermarkShard asks one shard's ensemble leader for its
// committed (majority-acked) watermark: every run confirmed in that
// shard after this call starts above the returned value.  ORDUP's
// per-shard sequencer-mode heartbeats use it to raise the sequence
// floor idle origins advertise in that domain.
func (c *Cluster) SeqCommittedWatermarkShard(from clock.SiteID, shard int) (uint64, error) {
	cl := c.seqClientFor(shard)
	if cl == nil {
		return c.shardSeq(shard).Current(), nil
	}
	return cl.CommittedWatermark(from)
}

// SeqReplica returns the locally hosted shard-0 ensemble member
// co-located with the site (nil when none).  Tests and esrnode use it
// to observe leadership.
func (c *Cluster) SeqReplica(id clock.SiteID) *seqrep.Replica {
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	return c.seqRepFor(id, 0)
}

// SiteCrashed reports whether the site is currently crashed.
func (c *Cluster) SiteCrashed(id clock.SiteID) bool {
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	return c.crashed[id]
}

// RecoveredRecords returns the WAL records recovered for the site
// during Setup's cold-start path (nil when the site started fresh).
// Engine factories use them to rebuild per-site protocol state — e.g.
// ORDUP's next expected sequence number — exactly as RestartSite's
// RecoverFunc does within one process lifetime.
func (c *Cluster) RecoveredRecords(id clock.SiteID) []et.MSet {
	return c.recovered[id]
}

// crashSeqReplicaLocked takes the site's co-hosted ensemble members —
// one per shard — down with it: the virtual replica sites go
// unreachable and the replicas' goroutines stop.  Called under siteMu
// from CrashSite.
func (c *Cluster) crashSeqReplicaLocked(id clock.SiteID) {
	rs := c.seqReps[id]
	if rs == nil {
		return
	}
	for sh, r := range rs {
		if r == nil {
			continue
		}
		c.Net.Crash(seqrep.ReplicaSiteAt(sh, id))
		r.Stop()
	}
}

// restartSeqReplicaLocked brings the site's co-hosted ensemble members
// back from their durable state (term, vote, watermark).  Called under
// siteMu from RestartSite.
func (c *Cluster) restartSeqReplicaLocked(id clock.SiteID) error {
	rs := c.seqReps[id]
	if rs == nil {
		return nil
	}
	for sh := range rs {
		if rs[sh] == nil {
			continue
		}
		c.Net.Restart(seqrep.ReplicaSiteAt(sh, id))
		r, err := c.newSeqReplica(id, sh)
		if err != nil {
			return err
		}
		rs[sh] = r
	}
	return nil
}
