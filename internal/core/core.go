// Package core wires sites, stable queues, delivery agents and the
// simulated network into a replicated cluster, and defines the Engine
// interface every replica-control method (and every synchronous baseline)
// implements.
//
// The chassis realizes the paper's propagation pipeline (§2.4): "The
// first step in replica control is the generation of update MSets and
// their delivery to the replica sites.  Each MSet is delivered
// asynchronously to its destination, and local sites execute the MSet
// independently of the processing of other MSets that update the same
// replica."  An update ET executed at its origin broadcasts one MSet per
// site (including the origin itself, so that ordering restrictions apply
// uniformly); each MSet travels origin-outbound-queue → network →
// destination-inbound-queue → method ApplyFunc.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/history"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/replica"
	"esr/internal/seqrep"
	"esr/internal/trace"
	"esr/internal/wal"
)

// SequencerSite is the virtual site that answers global-order requests
// for ORDUP's centralized order server (§3.1).
const SequencerSite clock.SiteID = 1000

// SnapBase is the first virtual site of the per-site catch-up snapshot
// service: the process hosting cluster site i serves state transfers on
// SnapBase+i (see ordup's catch-up).  The range sits clear of real
// sites (1..Sites), the order server (1000), the sequencer ensemble
// (1100+) and esrnode's control sites (2000+).
const SnapBase clock.SiteID = 1500

// SnapSite maps a donor's cluster-site ID to its snapshot-service
// virtual site.
func SnapSite(id clock.SiteID) clock.SiteID { return SnapBase + id }

// framePool recycles the [][]byte frame slices batched delivery builds
// for every SendBatch — one per propagation frame on the hot path.
var framePool = sync.Pool{New: func() any { return new([][]byte) }}

// Traits describes a replica-control method along the dimensions of the
// paper's Table 1.
type Traits struct {
	// Name is the method name as Table 1 prints it.
	Name string
	// Restriction is the "Kind of Restriction" row.
	Restriction string
	// Applicability is "Forwards" or "Backwards".
	Applicability string
	// AsyncPropagation is the "Asynchronous Propagation" row.
	AsyncPropagation string
	// SortingTime is the "Sorting Time" row.
	SortingTime string
}

// Engine is the uniform surface over the four replica-control methods and
// the synchronous coherency-control baselines, so workloads and
// benchmarks treat them interchangeably.
type Engine interface {
	// Name returns the method name.
	Name() string
	// Traits returns the method's Table 1 row.
	Traits() Traits
	// Update executes an update ET at the origin site.  It returns once
	// the update is durably committed from the method's point of view —
	// locally for the asynchronous methods, globally for the synchronous
	// baselines.
	Update(origin clock.SiteID, ops []op.Op) (et.ID, error)
	// Query executes a query ET at the given site under an ε limit.
	Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error)
	// Cluster exposes the underlying chassis.
	Cluster() *Cluster
	// Close shuts the engine down.
	Close() error
}

// Config parameterizes a Cluster.
type Config struct {
	// Sites is the number of replica sites (IDs 1..Sites).
	Sites int
	// Net configures the simulated network (ignored when Transport is
	// set).
	Net network.Config
	// Transport, when non-nil, replaces the default simulator — e.g. a
	// network.TCP instance in a multi-process deployment.  The caller
	// keeps ownership and closes it after the cluster; when nil, the
	// cluster builds a simulator from Net and closes it itself.
	Transport network.Transport
	// LocalSites, when non-empty, restricts this cluster instance to
	// hosting the listed sites: only their stores, queues, handlers and
	// outbound links exist in this process, and everything else is
	// reached through Transport.  The virtual order server rides with
	// site 1 (its handler registers only where site 1 is local).  Empty
	// means all Sites are local — the single-process default.
	LocalSites []clock.SiteID
	// Dir, when non-empty, makes every stable queue journal-backed under
	// this directory; empty means in-memory queues.
	Dir string
	// DeliveryWindow is the in-flight window of the outbound delivery
	// agents: up to this many messages leave per round as one network
	// frame and are acknowledged with one batched journal record.  Zero
	// means the default (32); negative forces single-message delivery.
	DeliveryWindow int
	// FlushWindow is the journal group-commit window: a durable write
	// lingers this long so concurrent writers share one fsync.  Zero
	// means no added latency (writers that collide still coalesce).
	// Only meaningful on durable clusters (Dir set).
	FlushWindow time.Duration
	// Trace, when positive, enables event tracing with a ring buffer of
	// that capacity (see internal/trace).
	Trace int
	// Metrics, when non-nil, instruments the whole pipeline (queues,
	// network, sites, WALs, propagation lag) on this registry.
	// nil keeps the uninstrumented no-op path.
	Metrics *metrics.Registry
	// Method labels every exported series (method="ORDUP", ...).  Only
	// meaningful with Metrics set.
	Method string
	// ApplyWorkers sizes each site's apply worker pool: the scheduling
	// pass partitions the queued window into conflict groups and
	// dispatches up to this many concurrently.  Zero means GOMAXPROCS;
	// 1 forces the serial inline path.
	ApplyWorkers int
	// SeqReplicas, when positive, replaces the single virtual order
	// server with a replicated sequencer ensemble of that size (see
	// internal/seqrep): replica i rides with cluster site i on virtual
	// transport site seqrep.ReplicaSite(i), and NextSeq/NextSeqN route
	// through a leader-discovering client that survives replica
	// failover.  Typically 3 (majorities need an odd size).  Zero keeps
	// the legacy centralized server at SequencerSite.
	SeqReplicas int
	// NumShards partitions the keyspace into that many independent
	// ordering domains (et.ShardOf routes each object).  Every shard owns
	// its own sequencer (legacy server or seqrep ensemble), outbound
	// stable queues, inbound journal, WAL and reservation-intent journal,
	// so unrelated traffic never serializes on a shared sequence number
	// or fsync batch.  Zero or one keeps the single unsharded domain; the
	// maximum is et.MaxShards.
	NumShards int
}

// defaultDeliveryWindow is the outbound in-flight window when
// Config.DeliveryWindow is zero.
const defaultDeliveryWindow = 32

// A delivery agent retries a failed send after retryBackoff, doubling
// the wait up to retryMax.
const (
	retryBackoff = 200 * time.Microsecond
	retryMax     = 50 * time.Millisecond
)

type link struct {
	q queue.Queue
	d *queue.Delivery
}

// Cluster is the replicated-system chassis.
type Cluster struct {
	cfg    Config
	Net    network.Transport
	ownNet bool // Net was built here (no Config.Transport); Close closes it
	local  map[clock.SiteID]bool
	// shards is the normalized ordering-domain count; seqs holds one
	// sequence counter per shard (the legacy order servers' allocation
	// state).  Seq aliases shard 0's counter for the pre-sharding
	// surface.  Access per-shard state through the shard.go accessors.
	shards int
	seqs   []*clock.Sequencer
	Seq    *clock.Sequencer
	Hist   *history.Log
	// Trace is the cluster's event ring (nil when tracing is disabled;
	// nil rings discard records, so emit sites need no checks).
	Trace *trace.Ring
	sites map[clock.SiteID]*replica.Site
	out   map[clock.SiteID]map[clock.SiteID][]*link // per (from, to): one link per shard

	// Durable-cluster machinery (Config.Dir set): per-shard inbound
	// queues and WALs by site, the Setup factory for rebuilding
	// ApplyFuncs, and the crashed set.  siteMu guards them plus the
	// sites map once crash/restart is in play.
	siteMu  sync.Mutex
	inQ     map[clock.SiteID][]queue.Queue
	wals    map[clock.SiteID][]*wal.WAL
	factory func(s *replica.Site) replica.ApplyFunc
	crashed map[clock.SiteID]bool

	etCounter   map[clock.SiteID]*atomic.Uint64
	msgCounter  map[clock.SiteID]*atomic.Uint64
	activeQuery atomic.Int64 // in-flight query ETs (observability only)

	// Replicated-sequencer machinery (Config.SeqReplicas > 0): locally
	// hosted replicas by cluster-site ID and shard (guarded by siteMu
	// once crash/restart is in play), one leader-discovering client per
	// shard's ensemble, and the per-origin per-shard reservation-intent
	// journals durable clusters use for crash recovery.  xintents holds
	// each origin's cross-shard commit journal (see xshard.go).  seqRng
	// jitters the legacy retry backoff.
	seqReps    map[clock.SiteID][]*seqrep.Replica
	seqClients []*seqrep.Client
	intents    map[clock.SiteID][]*intentFile
	xintents   map[clock.SiteID]*xshardFile
	recovered  map[clock.SiteID][]et.MSet // WAL records stashed during Setup cold recovery
	seqRngMu   sync.Mutex
	seqRng     *rand.Rand

	// met is the resolved instrumentation (nil when Config.Metrics is
	// nil; nil clusterMetrics methods hand out no-op instruments).
	met *clusterMetrics

	// flights is the engine's applied-tracker (nil: untracked); set by
	// NewFlights before Setup starts the sites.
	flights *Flights

	closeOnce sync.Once
}

// configureSite sizes a freshly built site's apply worker pool and has
// it report each applied MSet to the applied-tracker.  Shared by New and
// RestartSite.
func (c *Cluster) configureSite(site *replica.Site) {
	site.SetApplyWorkers(c.cfg.ApplyWorkers)
	site.OnApplied = func(m et.MSet) { c.flights.applied(m, site.ID) }
}

// New builds a cluster.  Sites are created and started only after the
// caller installs ApplyFuncs via Setup.
func New(cfg Config) (*Cluster, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("core: need at least one site, got %d", cfg.Sites)
	}
	if cfg.DeliveryWindow == 0 {
		cfg.DeliveryWindow = defaultDeliveryWindow
	}
	if cfg.DeliveryWindow < 0 {
		cfg.DeliveryWindow = 1
	}
	tn := cfg.Transport
	ownNet := false
	if tn == nil {
		var err error
		tn, err = network.New(cfg.Net)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ownNet = true
	}
	local := make(map[clock.SiteID]bool, len(cfg.LocalSites))
	for _, s := range cfg.LocalSites {
		if s < 1 || int(s) > cfg.Sites {
			return nil, fmt.Errorf("core: local site %v outside 1..%d", s, cfg.Sites)
		}
		local[s] = true
	}
	shards, err := normShards(cfg.NumShards)
	if err != nil {
		if ownNet {
			tn.Close()
		}
		return nil, err
	}
	cfg.NumShards = shards
	c := &Cluster{
		cfg:        cfg,
		Net:        tn,
		ownNet:     ownNet,
		local:      local,
		shards:     shards,
		seqs:       make([]*clock.Sequencer, shards),
		Hist:       &history.Log{},
		sites:      make(map[clock.SiteID]*replica.Site),
		out:        make(map[clock.SiteID]map[clock.SiteID][]*link),
		inQ:        make(map[clock.SiteID][]queue.Queue),
		wals:       make(map[clock.SiteID][]*wal.WAL),
		crashed:    make(map[clock.SiteID]bool),
		etCounter:  make(map[clock.SiteID]*atomic.Uint64),
		msgCounter: make(map[clock.SiteID]*atomic.Uint64),
		seqReps:    make(map[clock.SiteID][]*seqrep.Replica),
		intents:    make(map[clock.SiteID][]*intentFile),
		xintents:   make(map[clock.SiteID]*xshardFile),
		seqRng:     rand.New(rand.NewSource(20260808)),
	}
	for s := range c.seqs {
		c.seqs[s] = &clock.Sequencer{}
	}
	c.Seq = c.seqs[0]
	if cfg.Trace > 0 {
		c.Trace = trace.NewRing(cfg.Trace)
	}
	c.met = newClusterMetrics(cfg.Metrics, cfg.Method, cfg.Sites)
	c.Net.SetMetrics(c.met.networkMetrics())
	// The transport records frame-level spans and, across processes,
	// carries each frame's causal stamp and merges inbound stamps into
	// the ring, so cross-process timelines order causally.
	c.Net.SetTrace(c.Trace)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
			return nil, fmt.Errorf("core: create queue dir: %w", err)
		}
	}
	for i := 1; i <= cfg.Sites; i++ {
		id := clock.SiteID(i)
		c.etCounter[id] = &atomic.Uint64{}
		c.msgCounter[id] = &atomic.Uint64{}
		if !c.IsLocal(id) {
			continue
		}
		ins := make([]queue.Queue, shards)
		for s := 0; s < shards; s++ {
			in, err := c.newQueue(inQueueName(id, s))
			if err != nil {
				return nil, err
			}
			if iq, ok := in.(queue.Instrumentable); ok {
				iq.SetMetrics(c.met.queueMetrics(id, "in", s))
			}
			ins[s] = in
		}
		site := replica.NewShardedSite(id, ins)
		site.Trace = c.Trace
		site.Metrics = c.met.replicaMetrics(id)
		site.Lag = c.Lag()
		c.configureSite(site)
		c.sites[id] = site
		c.inQ[id] = ins
	}
	// Outbound links: one stable queue + delivery agent per (from, to,
	// shard) triple, so each shard's traffic rides its own journal and
	// group-commit window.  Origins are the local sites only;
	// destinations are every site in the cluster, local or not — remote
	// destinations are reached through the transport's peer addressing.
	for from := range c.sites {
		c.out[from] = make(map[clock.SiteID][]*link)
		for i := 1; i <= cfg.Sites; i++ {
			to := clock.SiteID(i)
			if to == from {
				continue
			}
			ls := make([]*link, shards)
			for s := 0; s < shards; s++ {
				q, err := c.newQueue(outQueueName(from, to, s))
				if err != nil {
					return nil, err
				}
				if iq, ok := q.(queue.Instrumentable); ok {
					iq.SetMetrics(c.met.queueMetrics(from, "out-"+siteLabel(to), s))
				}
				d := queue.NewDelivery(q, func(ms []queue.Message) error {
					// Frame slices are pooled: SendBatch is synchronous and
					// the receiver keeps only the payload byte slices, never
					// the frame itself.
					fp := framePool.Get().(*[][]byte)
					payloads := (*fp)[:0]
					for _, m := range ms {
						payloads = append(payloads, m.Payload)
					}
					err := c.Net.SendBatch(from, to, payloads)
					clear(payloads) // don't pin payloads via the pool
					*fp = payloads
					framePool.Put(fp)
					return err
				}, retryBackoff, retryMax)
				d.SetMetrics(c.met.deliveryMetrics(from, to))
				d.SetTrace(c.Trace, int(from), int(to))
				d.SetWindow(cfg.DeliveryWindow)
				ls[s] = &link{q: q, d: d}
			}
			c.out[from][to] = ls
		}
	}
	// Network handlers: deliver into the site's inbound stable queue.
	for id, site := range c.sites {
		c.registerHandlers(id, site)
	}
	// The virtual order server (§3.1's "centralized order server").  The
	// request payload carries an 8-byte little-endian count so a commit
	// burst reserves its whole sequence range in one round trip; shorter
	// payloads (the legacy "seq" request) reserve one number.  The reply
	// is the first number of the reserved run.  In a multi-process
	// deployment the server rides with site 1: only the process hosting
	// site 1 answers, and every other process routes SequencerSite to
	// that node's address.
	if cfg.SeqReplicas == 0 && c.IsLocal(1) {
		c.registerSequencer()
	}
	if cfg.SeqReplicas > 0 {
		if err := c.hostSequencerReplicas(); err != nil {
			return nil, err
		}
	}
	// Reservation-intent journals: one per local site and shard on
	// durable clusters, so NextSeqNShard can note a run's owner before
	// handing it out.  The cross-shard commit journal rides alongside.
	if cfg.Dir != "" {
		for id := range c.sites {
			its := make([]*intentFile, shards)
			for s := 0; s < shards; s++ {
				it, err := openIntent(cfg.Dir, id, s)
				if err != nil {
					return nil, err
				}
				its[s] = it
			}
			c.intents[id] = its
			xf, err := openXShard(cfg.Dir, id)
			if err != nil {
				return nil, err
			}
			c.xintents[id] = xf
		}
	}
	return c, nil
}

// IsLocal reports whether the site is hosted by this cluster instance
// (always true in the single-process default).
func (c *Cluster) IsLocal(id clock.SiteID) bool {
	return len(c.local) == 0 || c.local[id]
}

// registerSequencer installs one virtual order server per shard: shard
// s answers on SequencerSiteFor(s) from its own sequence counter, so
// reservations in different domains never serialize on one allocator.
func (c *Cluster) registerSequencer() {
	c.forEachShard(func(s int) {
		seq := c.shardSeq(s)
		c.Net.Register(SequencerSiteFor(s), func(from clock.SiteID, payload []byte) ([]byte, error) {
			count := uint64(1)
			if len(payload) == 8 {
				if n := decodeU64(payload); n > 0 {
					count = n
				}
			}
			n := seq.Reserve(count)
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(n >> (8 * i))
			}
			return b[:], nil
		})
	})
}

// registerHandlers installs the site's frame handler (also used when a
// crashed site restarts).
func (c *Cluster) registerHandlers(id clock.SiteID, site *replica.Site) {
	c.Net.RegisterBatch(id, func(from clock.SiteID, payloads [][]byte) error {
		return site.ReceiveBatch(payloads)
	})
}

// decodeU64 reads a little-endian uint64 from up to 8 payload bytes.
func decodeU64(payload []byte) uint64 {
	var n uint64
	for i := 0; i < 8 && i < len(payload); i++ {
		n |= uint64(payload[i]) << (8 * i)
	}
	return n
}

func (c *Cluster) newQueue(name string) (queue.Queue, error) {
	if c.cfg.Dir == "" {
		return queue.NewMem(), nil
	}
	q, err := queue.OpenOptions(filepath.Join(c.cfg.Dir, name+".journal"),
		queue.Options{FlushWindow: c.cfg.FlushWindow})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Setup installs the ApplyFunc on every site and starts processors and
// delivery agents.  The factory receives the site so methods can keep
// per-site state.  On durable clusters (Config.Dir set) every ApplyFunc
// is wrapped with a per-site write-ahead log, enabling CrashSite/
// RestartSite.
func (c *Cluster) Setup(factory func(s *replica.Site) replica.ApplyFunc) {
	c.factory = factory
	// Cold recovery (durable clusters): a WAL that already holds records
	// belongs to a previous process incarnation killed without warning.
	// Rebuild the store from it, reload the inbound queue's indexes, and
	// stash the records so engine factories can restore per-site protocol
	// state through RecoveredRecords — the same contract RestartSite's
	// RecoverFunc provides within one process lifetime.
	// appliedBy is keyed per (site, shard): a cross-shard ET's identity
	// appears in every participating shard's WAL, so a single ET-keyed
	// map would wrongly skip the second shard's part on replay.
	appliedBy := make(map[clock.SiteID][]map[et.ID]bool)
	if c.cfg.Dir != "" {
		c.recovered = make(map[clock.SiteID][]et.MSet)
		for id, s := range c.sites {
			walsBy := make([]*wal.WAL, c.shards)
			applied := make([]map[et.ID]bool, c.shards)
			recoveredAny := false
			for sh := 0; sh < c.shards; sh++ {
				w, records, err := wal.Open(c.walPath(id, sh))
				if err != nil {
					// Surfacing an error here would change Setup's signature
					// for one unlikely failure; a durable cluster that cannot
					// open its WAL is unusable, so fail loudly.
					panic(fmt.Sprintf("core: open wal for %v shard %d: %v", id, sh, err))
				}
				w.SetMetrics(c.met.walMetrics(id, sh))
				w.SetTrace(c.Trace, int(id))
				walsBy[sh] = w
				if len(records) == 0 {
					continue
				}
				applied[sh] = wal.Rebuild(s.Store, records)
				s.RestoreEpochs(records)
				c.recovered[id] = append(c.recovered[id], records...)
				recoveredAny = true
			}
			c.wals[id] = walsBy
			if recoveredAny {
				appliedBy[id] = applied
				if err := s.Reload(); err != nil {
					panic(fmt.Sprintf("core: reload queue indexes for %v: %v", id, err))
				}
				c.restoreETCounter(id, c.recovered[id])
			}
		}
	}
	for id, s := range c.sites {
		apply := factory(s)
		if ws := c.wals[id]; ws != nil {
			apply = walApply(ws, appliedBy[id], apply)
		}
		s.SetApply(apply)
		s.Start()
	}
	for from := range c.out {
		c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
			l.d.Start()
		})
	}
	// Settle intents from the previous incarnation.  Cross-shard commit
	// records resolve FIRST: re-broadcasting a decided cross-shard burst
	// lands its parts in the origin's inbound journals, so the per-shard
	// sequence-intent resolution below finds them and re-broadcasts
	// instead of gap-filling — which would silently drop one shard's
	// half of an atomically committed ET.  Then each shard's last
	// reserved run is re-broadcast or gap-filled so no site stalls
	// forever on a number the dead process reserved but never propagated.
	for id, s := range c.sites {
		if err := c.resolveXShardIntents(id, s); err != nil {
			panic(fmt.Sprintf("core: resolve cross-shard intents for %v: %v", id, err))
		}
		for sh := 0; sh < c.shards; sh++ {
			if err := c.resolveSeqIntents(id, sh, s, c.inQueueFor(id, sh), c.recovered[id]); err != nil {
				panic(fmt.Sprintf("core: resolve seq intents for %v shard %d: %v", id, sh, err))
			}
		}
	}
}

// walApply wraps a method's ApplyFunc so every MSet it applies is
// appended to its shard's WAL before the apply reports success.  Holds
// and errors pass through unlogged; a failed append fails the apply, so
// the MSet stays queued and the log never lags the acknowledged state.
// applied holds, per shard, the MSets recovered from the WAL (nil when
// the site started fresh): their queued copies are leftovers to
// acknowledge, not re-apply.  The inner apply must be idempotent per
// MSet, since a crash between apply and append re-delivers it.
func walApply(ws []*wal.WAL, applied []map[et.ID]bool, inner replica.ApplyFunc) replica.ApplyFunc {
	return func(m et.MSet) error {
		if m.Shard < len(applied) && applied[m.Shard][m.ET] && !m.Compensation {
			return nil
		}
		if err := inner(m); err != nil {
			return err
		}
		return ws[m.Shard].Append(m)
	}
}

// restoreETCounter restarts a site's ET counter past every ID it issued
// before the crash (found in its own WAL and inbound journal — the
// inbound journal is written before any outbound link, so it is a
// superset of what other sites may hold).  Gap-fill and snapshot IDs
// live in disjoint reserved ranges and are excluded.
func (c *Cluster) restoreETCounter(id clock.SiteID, records []et.MSet) {
	max := c.etCounter[id].Load()
	note := func(m et.MSet) {
		if m.ET.Origin() != id || m.ET.IsGap() || m.ET.IsSnap() {
			return
		}
		if l := m.ET.Local(); l > max {
			max = l
		}
	}
	for _, m := range records {
		note(m)
	}
	c.forEachInQ(id, func(shard int, q queue.Queue) {
		if msgs, err := q.All(); err == nil {
			for _, msg := range msgs {
				if m, err := et.DecodeMSet(msg.Payload); err == nil {
					note(m)
				}
			}
		}
	})
	c.etCounter[id].Store(max)
}

// Site returns the site with the given ID (nil if unknown).
func (c *Cluster) Site(id clock.SiteID) *replica.Site {
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	return c.sites[id]
}

// sitesSnapshot returns the current site handles under the lock.
func (c *Cluster) sitesSnapshot() []*replica.Site {
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	out := make([]*replica.Site, 0, len(c.sites))
	for _, s := range c.sites {
		out = append(out, s)
	}
	return out
}

// SiteIDs returns all site IDs in ascending order.  It derives the list
// from the immutable configuration, not the site map, so it is safe to
// call concurrently with CrashSite/RestartSite without the site lock.
func (c *Cluster) SiteIDs() []clock.SiteID {
	out := make([]clock.SiteID, 0, c.cfg.Sites)
	for i := 1; i <= c.cfg.Sites; i++ {
		out = append(out, clock.SiteID(i))
	}
	return out
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NextET issues a fresh ET ID originating at the site.
func (c *Cluster) NextET(origin clock.SiteID) et.ID {
	return et.MakeID(origin, c.etCounter[origin].Add(1))
}

// NextSeq asks the order service for the next global sequence number,
// paying a network round trip from the requesting site.  Transient
// transport failures are retried with jittered backoff; only after
// bounded retry (or on a permanent protocol error) does the update fail
// — the centralized-sequencer availability cost ORDUP pays, now limited
// to real outages instead of any dropped packet.
func (c *Cluster) NextSeq(from clock.SiteID) (uint64, error) {
	return c.NextSeqN(from, 1)
}

// legacySeqAttempts bounds the retry loop against the unreplicated
// order server (the replicated client has its own deadline-based loop).
const legacySeqAttempts = 6

// NextSeqN reserves n consecutive global sequence numbers, returning
// the first of the run.  A commit burst of n updates pays one network
// exchange instead of n.  With Config.SeqReplicas set the reservation
// goes through the replicated sequencer's leader-discovering client and
// transparently survives leader failover; otherwise the legacy
// centralized server answers, with bounded retry around transient
// transport faults.  On durable clusters the run is recorded in the
// origin's reservation-intent journal before it is returned, so a crash
// between reserving and broadcasting can be resolved on restart
// (re-broadcast what was durably produced, gap-fill the rest).
func (c *Cluster) NextSeqN(from clock.SiteID, n uint64) (uint64, error) {
	return c.NextSeqNShard(from, 0, n)
}

// NextSeqNShard reserves n consecutive sequence numbers in one shard's
// ordering domain.  Each shard's sequence space is independent: gaps
// are permitted per shard, duplicates never occur within one, and a
// reservation in one shard neither waits on nor observes any other.
func (c *Cluster) NextSeqNShard(from clock.SiteID, shard int, n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("core: reserve of zero sequence numbers")
	}
	if shard < 0 || shard >= c.shards {
		return 0, fmt.Errorf("core: reserve on unknown shard %d (have %d)", shard, c.shards)
	}
	var start uint64
	var err error
	if cl := c.seqClientFor(shard); cl != nil {
		start, err = cl.Reserve(from, n)
	} else {
		start, err = c.legacyReserve(from, shard, n)
	}
	if err != nil {
		return 0, fmt.Errorf("core: order service unreachable: %w", err)
	}
	if c.cfg.Dir != "" {
		_, intentH := c.met.seqReserveMetrics(from, shard)
		tI := time.Now()
		if err := c.recordSeqIntent(from, shard, start, n); err != nil {
			return 0, err
		}
		intentH.Observe(int64(time.Since(tI)))
	}
	return start, nil
}

// recordSequenceSpan observes one reservation round trip on the origin's
// reserve-latency histogram and emits one sequence span per MSet of the
// stamped burst (start = when the origin asked the order service, so the
// span covers the whole ordering leg between commit and propagation).
// The per-MSet attribution is what lets cross-process timelines show the
// sequencing leg.
func (c *Cluster) recordSequenceSpan(origin clock.SiteID, msets []et.MSet, start time.Time) {
	shard := 0
	if len(msets) > 0 {
		shard = msets[0].Shard
	}
	reserveH, _ := c.met.seqReserveMetrics(origin, shard)
	reserveH.Observe(int64(time.Since(start)))
	for _, m := range msets {
		c.Trace.RecordSpan(trace.Sequence, int(origin), m.ET.String(), m.MsgID(), start,
			fmt.Sprintf("seq=%d shard=%d", m.Seq, m.Shard))
	}
}

// legacyReserve is the unreplicated reservation path: one round trip to
// the shard's virtual order server at SequencerSiteFor(shard), retried
// a bounded number of times with jittered exponential backoff.  Only
// transient transport faults (network.Transient) retry; a permanent
// error — an encode or protocol failure surfacing as a RemoteError —
// fails immediately, the distinction the old single-shot path collapsed
// into "unreachable".
func (c *Cluster) legacyReserve(from clock.SiteID, shard int, n uint64) (uint64, error) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(n >> (8 * i))
	}
	backoff := 200 * time.Microsecond
	var lastErr error
	for attempt := 0; attempt < legacySeqAttempts; attempt++ {
		if attempt > 0 {
			c.met.seqRetryCounter().Inc()
			c.seqRngMu.Lock()
			jitter := time.Duration(c.seqRng.Int63n(int64(backoff) + 1))
			c.seqRngMu.Unlock()
			time.Sleep(backoff + jitter)
			if backoff < 20*time.Millisecond {
				backoff *= 2
			}
		}
		resp, err := c.Net.Call(from, SequencerSiteFor(shard), b[:])
		if err == nil {
			return decodeU64(resp), nil
		}
		if !network.Transient(err) {
			return 0, err
		}
		lastErr = err
	}
	return 0, lastErr
}

// msgIDFor derives a queue-unique message ID from an MSet identity (see
// et.MSet.MsgID): redelivery maps to the same ID so inbound dedup holds
// across retries.
func msgIDFor(m et.MSet) uint64 { return m.MsgID() }

// Broadcast propagates one update MSet to every site; it is
// BroadcastAll of a burst of one.
func (c *Cluster) Broadcast(m et.MSet) error { return c.BroadcastAll([]et.MSet{m}) }

// BroadcastAll commits a burst of update MSets sharing one origin and
// propagates it as a single batch: the origin applies them via one
// inbound batch append, and every outbound link gets one batched
// journal record (one fsync on durable clusters) plus one delivery
// kick — the "one MSet batch per destination per commit burst"
// propagation the group-commit pipeline exists for.  A burst may mix
// shards: each MSet is enqueued only on its own shard's links, so the
// per-shard journals and delivery windows stay independent.  It
// returns once every copy is durably queued, which is the asynchronous
// commit point for the whole burst.
func (c *Cluster) BroadcastAll(msets []et.MSet) error {
	if len(msets) == 0 {
		return nil
	}
	msgs, err := encodeMSets(msets)
	if err != nil {
		return err
	}
	return c.commit(msgs, msets)
}

// encodeMSets pairs each MSet with its queue message: the encoded
// MSet under its message identity.
func encodeMSets(msets []et.MSet) ([]queue.Message, error) {
	msgs := make([]queue.Message, len(msets))
	for i, m := range msets {
		payload, err := m.Encode()
		if err != nil {
			return nil, err
		}
		msgs[i] = queue.Message{ID: msgIDFor(m), Payload: payload}
	}
	return msgs, nil
}

// commit records a fresh burst's commit — one trace event per MSet, the
// origin's Commits counter, the lag clock's start — and propagates it.
// msgs[i] is msets[i] encoded.
func (c *Cluster) commit(msgs []queue.Message, msets []et.MSet) error {
	originID := msets[0].Origin
	for _, m := range msets {
		if m.Origin != originID {
			return fmt.Errorf("core: burst mixes origins %v and %v", originID, m.Origin)
		}
	}
	origin := c.Site(originID)
	if origin == nil {
		return fmt.Errorf("core: unknown origin site %v", originID)
	}
	sm := c.SiteMetrics(originID)
	lag := c.Lag()
	for i, m := range msets {
		if c.Trace != nil {
			c.Trace.RecordMSetf(trace.Commit, int(originID), m.ET.String(), msgs[i].ID,
				"ops=%d comp=%v burst=%d", len(m.Ops), m.Compensation, len(msets))
		}
		sm.Commits.Inc()
		lag.Commit(msgs[i].ID)
	}
	return c.propagate(origin, msgs, msets)
}

// propagate hands a batch of MSets from one origin to replication: the
// origin's site receives them first (its inbound queues and applied
// index drop what it already holds), then every outbound link of each
// MSet's shard gets the shard's part as one batched enqueue and a
// delivery kick.  msgs[i] is msets[i] encoded.  Fresh commits and the
// recovery re-sends of intent runs and cross-shard bursts all come
// through here; it takes no cluster lock, so recovery may call it
// under siteMu.
func (c *Cluster) propagate(origin *replica.Site, msgs []queue.Message, msets []et.MSet) error {
	uniform := true
	for _, m := range msets {
		if m.Shard < 0 || m.Shard >= c.shards {
			return fmt.Errorf("core: mset on unknown shard %d (have %d)", m.Shard, c.shards)
		}
		uniform = uniform && m.Shard == msets[0].Shard
	}
	if err := origin.ReceiveDecodedBatch(msgs, msets); err != nil {
		return err
	}
	for sh := 0; sh < c.shards; sh++ {
		part, partM := msgs, msets
		if uniform && sh != msets[0].Shard {
			continue
		}
		if !uniform {
			part, partM = nil, nil
			for i, m := range msets {
				if m.Shard == sh {
					part, partM = append(part, msgs[i]), append(partM, m)
				}
			}
			if len(part) == 0 {
				continue
			}
		}
		var enqErr error
		c.forEachShardLink(origin.ID, sh, func(to clock.SiteID, l *link) {
			if enqErr != nil {
				return
			}
			if err := l.q.EnqueueBatch(part); err != nil {
				enqErr = fmt.Errorf("core: enqueue for %v: %w", to, err)
				return
			}
			if c.Trace != nil {
				for i, msg := range part {
					c.Trace.RecordMSetf(trace.Enqueue, int(origin.ID), partM[i].ET.String(), msg.ID,
						"to=%v", to)
				}
			}
			l.d.Kick()
		})
		if enqErr != nil {
			return enqErr
		}
	}
	return nil
}

// JournalSyncs sums the fsyncs issued by every journal in the cluster:
// the journal-backed stable queues, the WALs, and the reservation-intent
// and cross-shard journals.  On in-memory clusters it returns 0.
// Experiments use it to show the group-commit fsync amortisation.
func (c *Cluster) JournalSyncs() uint64 {
	c.siteMu.Lock()
	defer c.siteMu.Unlock()
	var total uint64
	for id, its := range c.intents {
		for _, it := range its {
			total += it.log.Syncs()
		}
		total += c.xintents[id].log.Syncs()
	}
	for _, qs := range c.inQ {
		for _, q := range qs {
			if s, ok := q.(queue.Syncer); ok {
				total += s.Syncs()
			}
		}
	}
	for from := range c.out {
		c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
			if s, ok := l.q.(queue.Syncer); ok {
				total += s.Syncs()
			}
		})
	}
	for _, ws := range c.wals {
		for _, w := range ws {
			total += w.Syncs()
		}
	}
	return total
}

// OutBacklog returns the largest outbound-queue length among the site's
// links.  Periodic senders (ORDUP's Lamport heartbeats) use it to
// self-clock to link speed instead of flooding slow links.
func (c *Cluster) OutBacklog(from clock.SiteID) int {
	max := 0
	c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
		if n := l.q.Len(); n > max {
			max = n
		}
	})
	return max
}

// OutBacklogShard is OutBacklog restricted to one shard's links, so
// per-shard periodic senders self-clock to their own domain's speed.
func (c *Cluster) OutBacklogShard(from clock.SiteID, shard int) int {
	max := 0
	c.forEachShardLink(from, shard, func(to clock.SiteID, l *link) {
		if n := l.q.Len(); n > max {
			max = n
		}
	})
	return max
}

// ErrQuiesceTimeout is returned by Quiesce when propagation does not
// drain in time (for example during a partition).
var ErrQuiesceTimeout = errors.New("core: quiesce timeout")

// Quiesce blocks until every outbound and inbound stable queue is empty —
// the paper's quiescent state, at which "all replicas converge to the
// same 1SR value" (§2.2).
func (c *Cluster) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.drained() {
			// Double-check after a settling pause to close the
			// enqueue/ack race window.
			time.Sleep(200 * time.Microsecond)
			if c.drained() {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w after %v", ErrQuiesceTimeout, timeout)
		}
		for _, s := range c.sitesSnapshot() {
			s.Kick()
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (c *Cluster) drained() bool {
	for from := range c.out {
		busy := false
		c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
			if l.q.Len() > 0 {
				busy = true
			}
		})
		if busy {
			return false
		}
	}
	for _, s := range c.sitesSnapshot() {
		if s.QueueLen() > 0 {
			return false
		}
	}
	return true
}

// Converged checks that every site holds the identical value (chain
// head) for every object any site knows.  It returns the first divergent
// object found.
func (c *Cluster) Converged() (bool, string) {
	sites := c.sitesSnapshot()
	objs := make(map[string]bool)
	for _, s := range sites {
		for _, o := range s.Store.Objects() {
			objs[o] = true
		}
	}
	for o := range objs {
		ref := sites[0].Store.Get(o)
		for _, s := range sites[1:] {
			v := s.Store.Get(o)
			if !ref.EqualUnordered(v) {
				return false, o
			}
		}
	}
	return true, ""
}

// Close stops delivery agents, processors and queues.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		for from := range c.out {
			c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
				l.d.Stop()
			})
		}
		c.siteMu.Lock()
		for _, rs := range c.seqReps {
			for _, r := range rs {
				if r != nil {
					r.Stop()
				}
			}
		}
		for id, s := range c.sites {
			if c.crashed[id] {
				continue
			}
			s.Stop()
			c.forEachWAL(id, func(shard int, w *wal.WAL) {
				w.Close()
			})
		}
		for _, its := range c.intents {
			for _, it := range its {
				it.close()
			}
		}
		for _, xf := range c.xintents {
			xf.close()
		}
		c.siteMu.Unlock()
		for from := range c.out {
			c.forEachLink(from, func(to clock.SiteID, shard int, l *link) {
				l.q.Close()
			})
		}
		if c.ownNet {
			c.Net.Close()
		}
	})
	return nil
}

// RecordUpdate appends an update ET's operations to the global history.
func (c *Cluster) RecordUpdate(id et.ID, ops []op.Op) {
	for _, o := range ops {
		c.Hist.Append(history.Event{ET: uint64(id), Class: history.Update, Op: o})
	}
}

// RecordQueryRead appends one query read to the global history.
func (c *Cluster) RecordQueryRead(id et.ID, object string) {
	c.Hist.Append(history.Event{ET: uint64(id), Class: history.Query, Op: op.ReadOp(object)})
}
