package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/queue"
	"esr/internal/replica"
	"esr/internal/wal"
)

// Errors returned by the crash/restart interface.
var (
	// ErrNotDurable reports that the cluster was built without a Dir, so
	// sites have no journals or WALs to recover from.
	ErrNotDurable = errors.New("core: site restart requires a durable cluster (Config.Dir)")
	// ErrSiteRunning reports a restart of a site that was never crashed.
	ErrSiteRunning = errors.New("core: site is running; crash it first")
	// ErrSiteCrashed reports an operation on a crashed site.
	ErrSiteCrashed = errors.New("core: site is crashed")
)

// RecoverFunc lets a method engine rebuild its per-site state from the
// site's recovered WAL records during RestartSite (for example, ORDUP
// recomputes the next expected sequence number).  The new Site is fully
// rebuilt (store and queue indexes) when the callback runs.
type RecoverFunc func(s *replica.Site, records []et.MSet) error

// walPath names one site's per-shard write-ahead log.  Shard 0 keeps
// the pre-sharding name so single-shard deployments recover WALs
// written before sharding existed.
func (c *Cluster) walPath(id clock.SiteID, shard int) string {
	if shard == 0 {
		return filepath.Join(c.cfg.Dir, fmt.Sprintf("site-%d.wal", id))
	}
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("site-%d-s%d.wal", id, shard))
}

// CrashSite simulates a site failure: the MSet processor stops
// mid-stream (completing its in-flight apply, per the cooperative crash
// model), the site's journal and WAL close, and the network marks the
// site down so messages to and from it fail.  State not on disk — the
// store, the queue indexes — is lost.
func (c *Cluster) CrashSite(id clock.SiteID) error {
	if c.cfg.Dir == "" {
		return ErrNotDurable
	}
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	s := c.sites[id]
	if s == nil {
		return fmt.Errorf("core: unknown site %v", id)
	}
	if c.crashed[id] {
		return ErrSiteCrashed
	}
	c.Net.Crash(id)
	c.crashSeqReplicaLocked(id)
	s.Stop()
	c.forEachInQ(id, func(shard int, q queue.Queue) {
		q.Close()
	})
	c.forEachWAL(id, func(shard int, w *wal.WAL) {
		w.Close()
	})
	c.crashed[id] = true
	return nil
}

// RestartSite rebuilds a crashed site from its durable state: the WAL
// replays into a fresh store, the journal-backed inbound queue reloads
// with already-applied MSets skipped, and the method's ApplyFunc is
// re-created through the Setup factory.  recover, when non-nil, runs
// after the rebuild so the engine can restore per-site protocol state.
func (c *Cluster) RestartSite(id clock.SiteID, recover RecoverFunc) error {
	if c.cfg.Dir == "" {
		return ErrNotDurable
	}
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	if !c.crashed[id] {
		return ErrSiteRunning
	}
	closeAll := func(qs []queue.Queue, ws []*wal.WAL) {
		for _, q := range qs {
			if q != nil {
				q.Close()
			}
		}
		for _, w := range ws {
			if w != nil {
				w.Close()
			}
		}
	}
	qs := make([]queue.Queue, c.shards)
	ws := make([]*wal.WAL, c.shards)
	applied := make([]map[et.ID]bool, c.shards)
	var records []et.MSet
	for sh := 0; sh < c.shards; sh++ {
		q, err := queue.OpenOptions(filepath.Join(c.cfg.Dir, inQueueName(id, sh)+".journal"),
			queue.Options{FlushWindow: c.cfg.FlushWindow})
		if err != nil {
			closeAll(qs, ws)
			return fmt.Errorf("core: reopen inbound journal shard %d: %w", sh, err)
		}
		qs[sh] = q
		w, recs, err := wal.Open(c.walPath(id, sh))
		if err != nil {
			closeAll(qs, ws)
			return fmt.Errorf("core: reopen wal shard %d: %w", sh, err)
		}
		w.SetMetrics(c.met.walMetrics(id, sh))
		w.SetTrace(c.Trace, int(id))
		ws[sh] = w
		records = append(records, recs...)
	}
	site := replica.NewShardedSite(id, qs)
	site.Trace = c.Trace
	c.configureSite(site)
	for sh := 0; sh < c.shards; sh++ {
		// Rebuild shard by shard: a cross-shard ET's identity appears in
		// several shards' WALs, and each shard's replay must be skipped
		// independently.
		var shardRecs []et.MSet
		for _, m := range records {
			if m.Shard == sh {
				shardRecs = append(shardRecs, m)
			}
		}
		applied[sh] = wal.RebuildVersioned(site.Store, site.MV, shardRecs)
		site.RestoreEpochs(shardRecs)
	}
	if err := site.Reload(); err != nil {
		closeAll(qs, ws)
		return fmt.Errorf("core: reload queue indexes: %w", err)
	}
	if recover != nil {
		if err := recover(site, records); err != nil {
			closeAll(qs, ws)
			return fmt.Errorf("core: engine recovery: %w", err)
		}
	}
	site.SetApply(walApply(ws, applied, c.factory(site)))
	c.sites[id] = site
	c.inQ[id] = qs
	c.wals[id] = ws
	c.registerHandlers(id, site)
	delete(c.crashed, id)
	c.Net.Restart(id)
	site.Start()
	// The co-hosted sequencer replicas come back with their site, from
	// their own durable state (term, vote, watermark).
	if err := c.restartSeqReplicaLocked(id); err != nil {
		return err
	}
	// Settle the origin's outstanding cross-shard burst FIRST — its
	// re-broadcast lands parts in the inbound journals the per-shard
	// sequence-intent scan reads, so decided cross-shard ETs re-propagate
	// instead of being gap-filled into partial application.
	if err := c.resolveXShardIntents(id, site); err != nil {
		return err
	}
	// Then settle each shard's last reserved sequence run: re-broadcast
	// what survived durably, gap-fill the rest, so no peer stalls
	// forever on a number this site reserved but never propagated.
	for sh := 0; sh < c.shards; sh++ {
		if err := c.resolveSeqIntents(id, sh, site, c.inQueueFor(id, sh), records); err != nil {
			return err
		}
	}
	// Nudge peers' delivery agents: anything queued for this site flows
	// again now.
	for from := range c.out {
		c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
			if to == id {
				l.d.Kick()
			}
		})
	}
	return nil
}
