// Metrics wiring for the cluster chassis: the single place that names
// every family the pipeline exports and resolves each component's
// registry children up front (Vec.With allocates; the hot paths must
// not).  With no registry configured every instrument below is nil and
// every update is a no-op — the benchmark's trace.overhead_pct prices
// the instrumented side.

package core

import (
	"strconv"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/queue"
	"esr/internal/replica"
	"esr/internal/seqrep"
	"esr/internal/wal"
)

// SiteMetrics are the per-site, method-level instruments: the engines
// (and the chassis' query helper) update them at commit, compensation
// and query time.  Zero-value fields are no-ops, so an uninstrumented
// cluster hands out a zero SiteMetrics and call sites never guard.
type SiteMetrics struct {
	// Commits counts update ETs committed at this origin site.
	Commits *metrics.Counter
	// Compensations counts compensation MSets applied at this site
	// (backward replica control, §4.2).
	Compensations *metrics.Counter
	// QueryCharged counts query ETs that imported inconsistency units
	// against their ε limit.
	QueryCharged *metrics.Counter
	// QueryFallback counts query ETs that exhausted their ε limit and
	// took the conservative (drain-and-serialize) path.
	QueryFallback *metrics.Counter
	// EpsilonBudget is the ε units the most recent query at this site
	// had left after charging (-1 for an unlimited query) — the live
	// view of how close reads run to their inconsistency bound.
	EpsilonBudget *metrics.Gauge
	// ReadStaleMax is the worst wall-clock staleness any
	// consistency-level read at this site has observed.
	ReadStaleMax *metrics.Gauge

	readStaleness [4]*metrics.Histogram // per-level esr_read_staleness_seconds
	readDelayed   [4]*metrics.Counter   // per-level esr_read_delayed_total
	staleMax      atomic.Int64          // running max behind ReadStaleMax
}

// ObserveStaleness records one read's observed replica staleness: the
// per-level histogram plus the site's running worst case.
func (sm *SiteMetrics) ObserveStaleness(l consistency.Level, d time.Duration) {
	sm.readStaleness[levelIndex(l)].Observe(int64(d))
	for {
		cur := sm.staleMax.Load()
		if int64(d) <= cur {
			return
		}
		if sm.staleMax.CompareAndSwap(cur, int64(d)) {
			sm.ReadStaleMax.Set(int64(d))
			return
		}
	}
}

// levelIndex clamps a consistency level into the per-level instrument
// arrays.
func levelIndex(l consistency.Level) int {
	if l < 0 || int(l) >= 4 {
		return 0
	}
	return int(l)
}

// ReadStaleness returns the site's staleness histogram for one
// consistency level (nil, a no-op, on uninstrumented clusters).
func (sm *SiteMetrics) ReadStaleness(l consistency.Level) *metrics.Histogram {
	return sm.readStaleness[levelIndex(l)]
}

// ReadDelayed returns the site's delayed-read counter for one
// consistency level (nil, a no-op, on uninstrumented clusters).
func (sm *SiteMetrics) ReadDelayed(l consistency.Level) *metrics.Counter {
	return sm.readDelayed[levelIndex(l)]
}

// clusterMetrics holds the cluster's resolved instruments plus the vecs
// late joiners (WALs opened in Setup, restarted sites) resolve from.
type clusterMetrics struct {
	reg *metrics.Registry
	lag *metrics.Lag

	site map[clock.SiteID]*SiteMetrics

	queueDepth     *metrics.GaugeVec
	queueEnqueued  *metrics.CounterVec
	queueAcked     *metrics.CounterVec
	queueSyncs     *metrics.CounterVec
	queueSyncSec   *metrics.HistogramVec
	queueDeliver   *metrics.HistogramVec
	queueCompacted *metrics.CounterVec
	queueDirSyncEr *metrics.CounterVec

	walSyncs   *metrics.CounterVec
	walSyncSec *metrics.HistogramVec
	walAppends *metrics.CounterVec

	siteSafeTime  *metrics.GaugeVec
	siteWatermark *metrics.GaugeVec
	readStaleSec  *metrics.HistogramVec
	readDelayed   *metrics.CounterVec
	readStaleMax  *metrics.GaugeVec

	siteReceived    *metrics.CounterVec
	siteApplied     *metrics.CounterVec
	siteHeld        *metrics.CounterVec
	siteErrors      *metrics.CounterVec
	siteEvictions   *metrics.CounterVec
	siteParallelism *metrics.GaugeVec
	siteApplySec    *metrics.HistogramVec

	seqElections  *metrics.CounterVec
	seqLeader     *metrics.GaugeVec
	seqRetries    *metrics.Counter
	seqGapFills   *metrics.CounterVec
	seqCommitSec  *metrics.HistogramVec
	seqAppendRTT  *metrics.HistogramVec
	seqStateSync  *metrics.HistogramVec
	seqReserveSec *metrics.HistogramVec
	seqIntentSync *metrics.HistogramVec
	catchupBytes  *metrics.CounterVec
	catchupSec    *metrics.HistogramVec
}

// newClusterMetrics declares every family on the registry.  Returns nil
// when reg is nil — the nil clusterMetrics methods below then hand out
// nil instruments everywhere.
func newClusterMetrics(reg *metrics.Registry, method string, sites int) *clusterMetrics {
	if reg == nil {
		return nil
	}
	if method != "" {
		reg.SetConstLabels(map[string]string{"method": method})
	}
	m := &clusterMetrics{
		reg:  reg,
		lag:  metrics.NewLag(reg, sites),
		site: make(map[clock.SiteID]*SiteMetrics),

		queueDepth:     reg.Gauge("esr_queue_depth", "Unacknowledged messages in a stable queue.", "site", "queue", "shard"),
		queueEnqueued:  reg.Counter("esr_queue_enqueued_total", "Messages accepted (dedup-fresh) into a stable queue.", "site", "queue", "shard"),
		queueAcked:     reg.Counter("esr_queue_acked_total", "Messages acknowledged out of a stable queue.", "site", "queue", "shard"),
		queueSyncs:     reg.Counter("esr_queue_syncs_total", "Journal fsyncs issued by a stable queue.", "site", "queue", "shard"),
		queueSyncSec:   reg.Histogram("esr_queue_sync_seconds", "Journal fsync latency.", metrics.ScaleNanos, "site", "queue", "shard"),
		queueDeliver:   reg.Histogram("esr_queue_deliver_seconds", "Enqueue-to-acknowledge latency per message.", metrics.ScaleNanos, "site", "queue", "shard"),
		queueCompacted: reg.Counter("esr_queue_compactions_total", "Journal compactions performed by a stable queue.", "site", "queue", "shard"),
		queueDirSyncEr: reg.Counter("esr_queue_dirsync_errors_total", "Failed directory fsyncs after a journal compaction's rename.", "site", "queue", "shard"),

		walSyncs:   reg.Counter("esr_wal_syncs_total", "Write-ahead-log fsyncs issued.", "site", "shard"),
		walSyncSec: reg.Histogram("esr_wal_sync_seconds", "Write-ahead-log fsync latency.", metrics.ScaleNanos, "site", "shard"),
		walAppends: reg.Counter("esr_wal_appends_total", "MSets durably appended to the write-ahead log.", "site", "shard"),

		siteSafeTime:  reg.Gauge("esr_safetime", "SAFETIME watermark (logical Time component) at a site.", "site"),
		siteWatermark: reg.Gauge("esr_watermark", "Committed (applied) watermark — newest applied MSet timestamp at a site.", "site"),
		readStaleSec:  reg.Histogram("esr_read_staleness_seconds", "Wall-clock replica staleness observed by consistency-level reads.", metrics.ScaleNanos, "site", "level"),
		readDelayed:   reg.Counter("esr_read_delayed_total", "Reads parked on the SAFETIME delayed-read gate.", "site", "level"),
		readStaleMax:  reg.Gauge("esr_read_staleness_max_nanos", "Worst read-observed staleness at a site, in nanoseconds.", "site"),

		siteReceived:    reg.Counter("esr_site_received_total", "MSets accepted into a site's inbound queue.", "site"),
		siteApplied:     reg.Counter("esr_site_applied_total", "MSets applied at a site.", "site"),
		siteHeld:        reg.Counter("esr_site_holds_total", "Hold-back decisions at a site (one per deferred scan).", "site"),
		siteErrors:      reg.Counter("esr_site_apply_errors_total", "Apply errors at a site (excluding holds).", "site"),
		siteEvictions:   reg.Counter("esr_site_seen_evictions_total", "Applied-ID dedup entries evicted past the retention horizon.", "site"),
		siteParallelism: reg.Gauge("esr_site_apply_parallelism", "Apply workers dispatched by the most recent scheduling pass.", "site"),
		siteApplySec:    reg.Histogram("esr_site_apply_seconds", "Per-MSet apply latency by worker slot.", metrics.ScaleNanos, "site", "worker"),

		seqElections:  reg.Counter("esr_seq_elections_total", "Election rounds started by a sequencer replica.", "replica", "shard"),
		seqLeader:     reg.Gauge("esr_seq_leader", "1 while the sequencer replica believes it leads.", "replica", "shard"),
		seqRetries:    reg.Counter("esr_seq_client_retries_total", "Sequencer reservation attempts beyond the first (leader re-discovery and transient-failure retries).").With(),
		seqGapFills:   reg.Counter("esr_seq_gap_fills_total", "Gap-fill MSets broadcast for reserved-but-unused sequence numbers.", "site", "shard"),
		seqCommitSec:  reg.Histogram("esr_seq_commit_seconds", "Reservation latency from leader admission to majority commit.", metrics.ScaleNanos, "replica", "shard"),
		seqAppendRTT:  reg.Histogram("esr_seq_append_rtt_seconds", "Leader-to-follower watermark append round-trip time.", metrics.ScaleNanos, "replica", "shard"),
		seqStateSync:  reg.Histogram("esr_seq_state_sync_seconds", "Sequencer replica state-file fsync latency.", metrics.ScaleNanos, "replica", "shard"),
		seqReserveSec: reg.Histogram("esr_seq_reserve_seconds", "Origin-observed sequence reservation latency (client round trip included).", metrics.ScaleNanos, "site", "shard"),
		seqIntentSync: reg.Histogram("esr_seq_intent_sync_seconds", "Intent-journal fsync latency at a reserving origin.", metrics.ScaleNanos, "site", "shard"),
		catchupBytes:  reg.Counter("esr_catchup_bytes_total", "Snapshot bytes transferred into a catching-up site.", "site"),
		catchupSec:    reg.Histogram("esr_catchup_seconds", "End-to-end duration of site catch-up state transfers.", metrics.ScaleNanos, "site"),
	}
	// Resolve every site's method-level instruments up front: the map is
	// read-only afterwards, so concurrent engine paths need no lock.
	for i := 1; i <= sites; i++ {
		m.resolveSite(clock.SiteID(i))
	}
	return m
}

// siteLabel renders a SiteID as a metric label value.
func siteLabel(id clock.SiteID) string { return strconv.Itoa(int(id)) }

// shardLabel renders an ordering-shard index as a metric label value.
func shardLabel(shard int) string { return strconv.Itoa(shard) }

// resolveSite creates the per-site method-level instruments during
// construction (the map must not be written after New returns).
func (m *clusterMetrics) resolveSite(id clock.SiteID) {
	s := siteLabel(id)
	sm := &SiteMetrics{
		Commits:       m.reg.Counter("esr_commits_total", "Update ETs committed, by origin site.", "site").With(s),
		Compensations: m.reg.Counter("esr_compensations_total", "Compensation MSets applied, by site.", "site").With(s),
		QueryCharged:  m.reg.Counter("esr_query_charged_total", "Query ETs that imported inconsistency, by site.", "site").With(s),
		QueryFallback: m.reg.Counter("esr_query_fallback_total", "Query ETs that took the conservative path, by site.", "site").With(s),
		EpsilonBudget: m.reg.Gauge("esr_epsilon_budget", "Remaining ε units after the most recent query (-1 = unlimited), by site.", "site").With(s),
		ReadStaleMax:  m.readStaleMax.With(s),
	}
	// Per-level read instruments resolved up front — the read hot path
	// must not hit Vec.With.
	for _, l := range consistency.Levels() {
		sm.readStaleness[levelIndex(l)] = m.readStaleSec.With(s, l.String())
		sm.readDelayed[levelIndex(l)] = m.readDelayed.With(s, l.String())
	}
	m.site[id] = sm
}

// seqrepMetrics resolves one shard ensemble member's instruments.  Safe
// on nil.
func (m *clusterMetrics) seqrepMetrics(id clock.SiteID, shard int) seqrep.Metrics {
	if m == nil {
		return seqrep.Metrics{}
	}
	s, sh := siteLabel(id), shardLabel(shard)
	return seqrep.Metrics{
		Elections:     m.seqElections.With(s, sh),
		Leader:        m.seqLeader.With(s, sh),
		CommitSeconds: m.seqCommitSec.With(s, sh),
		AppendRTT:     m.seqAppendRTT.With(s, sh),
		FsyncSeconds:  m.seqStateSync.With(s, sh),
	}
}

// seqReserveMetrics resolves one origin site's per-shard
// reservation-path instruments: round-trip reserve latency and
// intent-journal fsync latency.  Safe on nil.
func (m *clusterMetrics) seqReserveMetrics(id clock.SiteID, shard int) (reserve, intentSync *metrics.Histogram) {
	if m == nil {
		return nil, nil
	}
	s, sh := siteLabel(id), shardLabel(shard)
	return m.seqReserveSec.With(s, sh), m.seqIntentSync.With(s, sh)
}

// seqRetryCounter resolves the shared sequencer-client retry counter.
// Safe on nil.
func (m *clusterMetrics) seqRetryCounter() *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.seqRetries
}

// gapFillCounter resolves one site's per-shard gap-fill counter.  Safe
// on nil.
func (m *clusterMetrics) gapFillCounter(id clock.SiteID, shard int) *metrics.Counter {
	if m == nil {
		return nil
	}
	return m.seqGapFills.With(siteLabel(id), shardLabel(shard))
}

// catchupMetrics resolves one site's catch-up instruments.  Safe on nil.
func (m *clusterMetrics) catchupMetrics(id clock.SiteID) (*metrics.Counter, *metrics.Histogram) {
	if m == nil {
		return nil, nil
	}
	s := siteLabel(id)
	return m.catchupBytes.With(s), m.catchupSec.With(s)
}

// siteMetrics returns the per-site method-level instruments resolved at
// construction.  Safe on nil (returns nil; the accessor on Cluster
// wraps that into a shared zero struct).
func (m *clusterMetrics) siteMetrics(id clock.SiteID) *SiteMetrics {
	if m == nil {
		return nil
	}
	return m.site[id]
}

// queueMetrics resolves one stable queue's instruments.  The queue
// label stays the shard-free logical name ("in", "out-2"); the shard
// label separates the ordering domains.  Safe on nil.
func (m *clusterMetrics) queueMetrics(site clock.SiteID, name string, shard int) queue.Metrics {
	if m == nil {
		return queue.Metrics{}
	}
	s, sh := siteLabel(site), shardLabel(shard)
	return queue.Metrics{
		Depth:          m.queueDepth.With(s, name, sh),
		Enqueued:       m.queueEnqueued.With(s, name, sh),
		Acked:          m.queueAcked.With(s, name, sh),
		Syncs:          m.queueSyncs.With(s, name, sh),
		SyncSeconds:    m.queueSyncSec.With(s, name, sh),
		DeliverSeconds: m.queueDeliver.With(s, name, sh),
		Compactions:    m.queueCompacted.With(s, name, sh),
		DirSyncErrors:  m.queueDirSyncEr.With(s, name, sh),
	}
}

// deliveryMetrics resolves one outbound link's delivery instruments.
// Safe on nil.
func (m *clusterMetrics) deliveryMetrics(from, to clock.SiteID) queue.DeliveryMetrics {
	if m == nil {
		return queue.DeliveryMetrics{}
	}
	f, t := siteLabel(from), siteLabel(to)
	return queue.DeliveryMetrics{
		BatchSize:     m.reg.Histogram("esr_delivery_batch_size", "Messages delivered per outbound round.", 1, "site", "peer").With(f, t),
		Retries:       m.reg.Counter("esr_delivery_retries_total", "Failed outbound send rounds (each triggers a backoff).", "site", "peer").With(f, t),
		BackoffResets: m.reg.Counter("esr_delivery_backoff_resets_total", "Backoffs cut short by a kick (fresh enqueue or heal).", "site", "peer").With(f, t),
	}
}

// walMetrics resolves one site's per-shard WAL instruments.  Safe on
// nil.
func (m *clusterMetrics) walMetrics(id clock.SiteID, shard int) wal.Metrics {
	if m == nil {
		return wal.Metrics{}
	}
	s, sh := siteLabel(id), shardLabel(shard)
	return wal.Metrics{
		Syncs:       m.walSyncs.With(s, sh),
		SyncSeconds: m.walSyncSec.With(s, sh),
		Appends:     m.walAppends.With(s, sh),
	}
}

// replicaMetrics resolves one site's processor instruments.  Safe on
// nil.
func (m *clusterMetrics) replicaMetrics(id clock.SiteID) replica.Metrics {
	if m == nil {
		return replica.Metrics{}
	}
	s := siteLabel(id)
	return replica.Metrics{
		Received:      m.siteReceived.With(s),
		Applied:       m.siteApplied.With(s),
		Held:          m.siteHeld.With(s),
		Errors:        m.siteErrors.With(s),
		SeenEvictions: m.siteEvictions.With(s),
		Parallelism:   m.siteParallelism.With(s),
		ApplySeconds:  m.siteApplySec.Curry(s),
		SafeTime:      m.siteSafeTime.With(s),
		Watermark:     m.siteWatermark.With(s),
	}
}

// networkMetrics resolves the transport's instruments.  Safe on nil.
func (m *clusterMetrics) networkMetrics() network.Metrics {
	if m == nil {
		return network.Metrics{}
	}
	return network.Metrics{
		Sent:           m.reg.Counter("esr_net_sent_total", "Messages handed to the transport.").With(),
		Delivered:      m.reg.Counter("esr_net_delivered_total", "Messages that reached a handler.").With(),
		Lost:           m.reg.Counter("esr_net_lost_total", "Messages dropped by the injected loss model.").With(),
		Partitioned:    m.reg.Counter("esr_net_partitioned_total", "Messages rejected by a partition.").With(),
		Bytes:          m.reg.Counter("esr_net_bytes_total", "Payload bytes delivered.").With(),
		Frames:         m.reg.Counter("esr_net_frames_total", "Batch frames delivered.").With(),
		LatencySeconds: m.reg.Histogram("esr_net_latency_seconds", "Injected one-way link delay per transit.", metrics.ScaleNanos).With(),
	}
}

// CatchupMetrics returns the site's catch-up instruments (bytes
// transferred, end-to-end transfer duration).  Nil instruments on
// uninstrumented clusters are no-ops at the call sites.
func (c *Cluster) CatchupMetrics(id clock.SiteID) (*metrics.Counter, *metrics.Histogram) {
	return c.met.catchupMetrics(id)
}

// Registry returns the cluster's metrics registry (nil when the cluster
// is uninstrumented).
func (c *Cluster) Registry() *metrics.Registry {
	if c.met == nil {
		return nil
	}
	return c.met.reg
}

// Lag returns the cluster's propagation-lag tracker (nil when
// uninstrumented; nil trackers are no-ops).
func (c *Cluster) Lag() *metrics.Lag {
	if c.met == nil {
		return nil
	}
	return c.met.lag
}

// noSiteMetrics is the shared all-no-op instance SiteMetrics hands out
// on uninstrumented clusters (and for unknown sites), so the accessor
// never allocates and callers never guard.
var noSiteMetrics = &SiteMetrics{}

// SiteMetrics returns the per-site method-level instruments.  Never
// nil: an uninstrumented cluster returns a zero struct whose fields are
// no-ops, so engines update metrics unconditionally.
func (c *Cluster) SiteMetrics(id clock.SiteID) *SiteMetrics {
	if sm := c.met.siteMetrics(id); sm != nil {
		return sm
	}
	return noSiteMetrics
}
