// Package esr is an implementation of asynchronous replica control under
// epsilon-serializability (ESR), reproducing Pu & Leff, "Replica Control
// in Distributed Systems: An Asynchronous Approach" (CUCS-053-90,
// SIGMOD 1991).
//
// A Cluster simulates a set of replica sites connected by an
// asynchronous, failure-prone network.  Applications interact through
// epsilon-transactions (ETs):
//
//   - Update executes an update ET at an origin site.  It returns as
//     soon as the update is durably queued for every replica; stable
//     queues propagate it asynchronously, and the chosen replica-control
//     method guarantees all replicas converge to the same
//     1-copy-serializable value at quiescence.
//   - Query executes a query ET at one site under an ε limit: the
//     maximum number of concurrent-update "inconsistency units" the
//     query may import.  ε = 0 yields strictly serializable reads;
//     higher ε trades bounded staleness for latency and availability.
//
// Four replica-control methods from the paper are available — ORDUP
// (ordered updates), COMMU (commutative operations), RITU
// (read-independent timestamped updates), and COMPE (compensation-based
// backward control) — plus two synchronous 1SR baselines (two-phase
// commit over read-one-write-all, and quorum voting) for comparison.
//
// A minimal session:
//
//	c, err := esr.Open(esr.Config{Replicas: 3, Method: esr.COMMU})
//	if err != nil { ... }
//	defer c.Close()
//	c.Update(1, esr.Inc("balance", 100))
//	res, _ := c.Query(2, []string{"balance"}, esr.Epsilon(1))
//	fmt.Println(res.Value("balance"), "±", res.Inconsistency, "updates")
package esr

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"esr/internal/clock"
	"esr/internal/commu"
	"esr/internal/compe"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/ritu"
	"esr/internal/session"
	"esr/internal/sim"
	"esr/internal/trace"
)

// Method selects the replica-control method (or synchronous baseline) a
// Cluster runs.
type Method string

// Available methods.
const (
	// ORDUP applies update MSets in one global order at every site
	// (paper §3.1); ordering comes from a centralized order server.
	ORDUP Method = "ordup"
	// ORDUPLamport is ORDUP with distributed Lamport-timestamp ordering
	// instead of a central sequencer.
	ORDUPLamport Method = "ordup-lamport"
	// COMMU restricts update ETs to commutative operations, letting
	// MSets apply in any order (paper §3.2).
	COMMU Method = "commu"
	// RITU propagates read-independent timestamped blind writes under
	// the Thomas write rule (paper §3.3, single-version mode).
	RITU Method = "ritu"
	// RITUMultiVersion keeps immutable timestamped versions with VTNC
	// visibility control (paper §3.3, multi-version mode).
	RITUMultiVersion Method = "ritu-mv"
	// COMPE runs updates optimistically before global commit and undoes
	// them with compensation MSets on abort (paper §4); commutative
	// operation discipline.
	COMPE Method = "compe"
	// COMPEGeneral is COMPE with arbitrary compensatable operations and
	// full-log rollback.
	COMPEGeneral Method = "compe-general"
	// TwoPC is the synchronous 1SR baseline: two-phase commit over
	// read-one-write-all.
	TwoPC Method = "2pc"
	// Quorum is the synchronous 1SR baseline: majority quorum voting.
	Quorum Method = "quorum"
)

// Level is a per-query consistency level from the menu the unified read
// path serves (DESIGN.md §13): strong, bounded-staleness(ε, Δt),
// session, or eventual.
type Level = consistency.Level

// The consistency-level menu, weakest to strongest.
const (
	// LevelEventual reads the latest local state with zero coordination.
	LevelEventual = consistency.Eventual
	// LevelSession guarantees read-your-writes within one session.
	LevelSession = consistency.Session
	// LevelBounded guarantees staleness at most (ε, Δt).
	LevelBounded = consistency.Bounded
	// LevelStrong observes every update the site has accepted.
	LevelStrong = consistency.Strong
)

// ParseLevel maps a flag-spelling ("strong", "bounded", "session",
// "eventual") to its Level.
func ParseLevel(s string) (Level, error) { return consistency.Parse(s) }

// ReadOptions tunes one consistency-level read; see core.ReadOptions.
type ReadOptions = core.ReadOptions

// Limit is an ε specification for queries.
type Limit = divergence.Limit

// Unlimited places no bound on the inconsistency a query may import.
const Unlimited = divergence.Unlimited

// Epsilon returns a Limit of n inconsistency units.
func Epsilon(n int) Limit { return Limit(n) }

// Op is one operation of an epsilon-transaction.
type Op = op.Op

// Value is the state of one replicated object.
type Value = op.Value

// Result is what a query ET returns: the values read, plus the
// inconsistency actually imported (always within the query's ε).
type Result = et.QueryResult

// TxID identifies an update ET, for use with the COMPE saga interface.
type TxID = et.ID

// Operation constructors.
var (
	// Read reads an object (recorded in the ET's history; updates that
	// carry reads still propagate only their update operations).
	Read = op.ReadOp
	// Write blindly overwrites an object with a number.
	Write = op.WriteOp
	// Inc adds to a numeric object.  Commutative.
	Inc = op.IncOp
	// Dec subtracts from a numeric object.  Commutative.
	Dec = op.DecOp
	// Mul multiplies a numeric object.  Commutes only with other Muls.
	Mul = op.MulOp
	// Append appends to an ordered list object.
	Append = op.AppendOp
	// Add appends to an unordered (set-like) list object.  Commutative.
	Add = op.UAppendOp
	// Remove removes one occurrence from an unordered list object.
	Remove = op.RemoveOneOp
)

// Config parameterizes a Cluster.  The zero value is not usable: set at
// least Replicas and Method.
type Config struct {
	// Replicas is the number of replica sites (numbered 1..Replicas).
	Replicas int
	// Method selects the replica-control method.
	Method Method
	// Seed seeds the simulated network's deterministic randomness.
	Seed int64
	// MinLatency and MaxLatency bound the one-way link delay.
	MinLatency, MaxLatency time.Duration
	// LossRate is the probability a message is lost in transit (stable
	// queues mask losses by retrying).
	LossRate float64
	// JournalDir, when set, makes every stable queue journal-backed
	// under the directory so queued MSets survive restarts.
	JournalDir string
	// FlushWindow, when positive, holds a journal's group-commit leader
	// open for the duration so concurrent appends coalesce into one
	// fsync.  Zero syncs each batch as soon as it is staged.
	FlushWindow time.Duration
	// DeliveryWindow caps how many queued MSets a delivery agent sends
	// per network frame and acknowledges in one batched journal update.
	// Zero keeps the default (32); negative forces one message per
	// frame.
	DeliveryWindow int
	// CounterLimit enables COMMU's update throttling (§3.2): updates
	// wait while an object has this many in-flight update ETs.
	CounterLimit int
	// TraceCapacity, when positive, records the last N protocol events
	// (commits, receives, holds, applies, compensations, query pricing)
	// in a ring readable through Trace and DumpTrace.
	TraceCapacity int
	// MetricsAddr, when set, instruments every pipeline stage and serves
	// the observability endpoint on the address (":0" picks a free port;
	// read it back with MetricsAddr).  Endpoints: /metrics (Prometheus
	// text), /metrics.json (structured snapshot, what esrtop polls),
	// /debug/vars (expvar), and /trace (incremental protocol-event dump,
	// ?since=N) when TraceCapacity is also set.
	MetricsAddr string
	// Pprof additionally mounts net/http/pprof under /debug/pprof/ on
	// the metrics endpoint.
	Pprof bool
	// ApplyWorkers sizes each replica's apply worker pool: delivered
	// MSets are partitioned into commuting conflict groups and applied
	// concurrently by up to this many workers.  Zero means GOMAXPROCS;
	// 1 forces serial apply.
	ApplyWorkers int
	// Consistency is the default level Read serves when the caller does
	// not pick one: "strong", "bounded", "session" or "eventual" (the
	// default).
	Consistency string
	// MaxStaleness is the bounded level's Δt: a bounded read proceeds
	// only while the local replica's staleness is at most this bound
	// (default 5s).
	MaxStaleness time.Duration
	// Shards partitions the keyspace into this many independent
	// ordering domains (ORDUP methods only): each shard runs its own
	// sequencer, stable queues and write-ahead journals, so updates
	// confined to one shard never coordinate with the others.  Updates
	// spanning shards commit atomically via per-shard sequence
	// reservations.  Zero or 1 keeps the single pre-sharding domain.
	Shards int
}

// Cluster is a replicated system running one replica-control method.
type Cluster struct {
	eng      core.Engine
	method   Method
	msrv     *metrics.Server
	readOpts core.ReadOptions // defaults for Read, from Config
}

// Errors returned by method-specific interfaces.
var (
	// ErrNotCompensating is returned by Begin/Commit/Abort on clusters
	// whose method is not COMPE.
	ErrNotCompensating = errors.New("esr: saga interface requires the COMPE method")
	// ErrSpecUnsupported is returned by QuerySpec on methods without
	// per-object ε support.
	ErrSpecUnsupported = errors.New("esr: per-object ε requires ORDUP or COMMU")
	// ErrNumericUnsupported is returned by QueryNumeric on methods
	// without value-bounded queries.
	ErrNumericUnsupported = errors.New("esr: numeric drift bounds require COMMU")
	// ErrRestartUnsupported is returned by CrashSite/RestartSite on
	// methods without WAL-based site recovery.
	ErrRestartUnsupported = errors.New("esr: site crash/restart requires ORDUP, COMMU or RITU")
	// ErrHistoricalUnsupported is returned by QueryAt on methods other
	// than RITU multi-version.
	ErrHistoricalUnsupported = errors.New("esr: historical queries require RITU multi-version")
)

// Open builds and starts a cluster.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Method == "" {
		return nil, fmt.Errorf("esr: Config.Method is required")
	}
	var reg *metrics.Registry
	if cfg.MetricsAddr != "" {
		reg = metrics.NewRegistry()
	}
	eng, err := sim.NewEngine(sim.EngineKind(cfg.Method), cfg.Replicas, network.Config{
		Seed:       cfg.Seed,
		MinLatency: cfg.MinLatency,
		MaxLatency: cfg.MaxLatency,
		LossRate:   cfg.LossRate,
	}, sim.Options{
		CounterLimit:   cfg.CounterLimit,
		QueueDir:       cfg.JournalDir,
		FlushWindow:    cfg.FlushWindow,
		DeliveryWindow: cfg.DeliveryWindow,
		Trace:          cfg.TraceCapacity,
		Metrics:        reg,
		ApplyWorkers:   cfg.ApplyWorkers,
		NumShards:      cfg.Shards,
	})
	if err != nil {
		return nil, err
	}
	level, err := consistency.Parse(cfg.Consistency)
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	c := &Cluster{eng: eng, method: cfg.Method,
		readOpts: core.ReadOptions{Level: level, Epsilon: divergence.Unlimited, MaxStaleness: cfg.MaxStaleness}}
	if cfg.MetricsAddr != "" {
		ring := eng.Cluster().Trace
		srv, err := metrics.Serve(cfg.MetricsAddr, metrics.ServeOptions{
			Registry: reg,
			Pprof:    cfg.Pprof,
			Extra: map[string]http.Handler{
				"/trace": trace.Handler(ring),
			},
		})
		if err != nil {
			_ = eng.Close()
			return nil, err
		}
		c.msrv = srv
	}
	return c, nil
}

// MetricsAddr returns the observability endpoint's actual listen address
// (useful with ":0"), or "" when Config.MetricsAddr was not set.
func (c *Cluster) MetricsAddr() string { return c.msrv.Addr() }

// Metrics returns the cluster's metrics registry, or nil when
// Config.MetricsAddr was not set.
func (c *Cluster) Metrics() *metrics.Registry { return c.eng.Cluster().Registry() }

// Method returns the cluster's replica-control method.
func (c *Cluster) Method() Method { return c.method }

// Sites returns the site numbers, 1..Replicas.
func (c *Cluster) Sites() []int {
	ids := c.eng.Cluster().SiteIDs()
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Update executes an update ET at the origin site.  For the
// asynchronous methods it returns once the update is locally committed
// and durably queued toward every replica; for the synchronous baselines
// it returns after global commit.
func (c *Cluster) Update(origin int, ops ...Op) (TxID, error) {
	return c.eng.Update(clock.SiteID(origin), ops)
}

// Query executes a query ET at the site, reading the given objects under
// the ε limit.  The returned Result reports the inconsistency actually
// imported, which never exceeds eps.
func (c *Cluster) Query(site int, objects []string, eps Limit) (Result, error) {
	return c.eng.Query(clock.SiteID(site), objects, eps)
}

// Read serves a read at the cluster's default consistency level
// (Config.Consistency) from the site's local replica, entirely
// lock-free: the level picks a snapshot timestamp, the SAFETIME
// watermark parks reads the replica cannot yet serve, and the site's
// version chains answer them.
func (c *Cluster) Read(site int, objects ...string) (Result, error) {
	return core.ReadAtSite(c.eng.Cluster(), clock.SiteID(site), objects, c.readOpts)
}

// ReadLevel is Read at an explicit consistency level.
func (c *Cluster) ReadLevel(site int, level Level, objects ...string) (Result, error) {
	opts := c.readOpts
	opts.Level = level
	return core.ReadAtSite(c.eng.Cluster(), clock.SiteID(site), objects, opts)
}

// ReadWith is Read with full per-query options (ε budget, Δt bound,
// session high-water mark, gate timeout).
func (c *Cluster) ReadWith(site int, objects []string, opts ReadOptions) (Result, error) {
	return core.ReadAtSite(c.eng.Cluster(), clock.SiteID(site), objects, opts)
}

// SafeTime returns the site's SAFETIME watermark: the largest timestamp
// at which a snapshot read observes every update the site has accepted.
func (c *Cluster) SafeTime(site int) Timestamp {
	if s := c.eng.Cluster().Site(clock.SiteID(site)); s != nil {
		return s.SafeTime()
	}
	return Timestamp{}
}

// Watermark returns the site's committed (applied) watermark — the
// newest MSet timestamp applied there.
func (c *Cluster) Watermark(site int) Timestamp {
	if s := c.eng.Cluster().Site(clock.SiteID(site)); s != nil {
		return s.Watermark()
	}
	return Timestamp{}
}

// Staleness reports how long the site's oldest accepted-but-unapplied
// update has been waiting (zero when fully caught up).
func (c *Cluster) Staleness(site int) time.Duration {
	if s := c.eng.Cluster().Site(clock.SiteID(site)); s != nil {
		return s.Staleness()
	}
	return 0
}

// GCVersions prunes multi-version history below each site's SAFETIME
// watermark, per object keeping the newest version still readable
// there.  Live snapshot pins clamp the horizon, so in-flight snapshot
// reads never observe a pruned version.  Returns the number of versions
// collected across all sites.
func (c *Cluster) GCVersions() int {
	n := 0
	cl := c.eng.Cluster()
	for _, id := range cl.SiteIDs() {
		if s := cl.Site(id); s != nil {
			n += s.Store.GC(s.SafeTime())
		}
	}
	return n
}

// Spec is a per-object ε specification: different objects may tolerate
// different inconsistency (spatial consistency).
type Spec = divergence.Spec

// QuerySpec executes a query ET under a per-object ε specification.
// Available under ORDUP and COMMU; other methods return
// ErrSpecUnsupported.
func (c *Cluster) QuerySpec(site int, objects []string, spec Spec) (Result, error) {
	type specQuerier interface {
		QuerySpec(site clock.SiteID, objects []string, spec divergence.Spec) (et.QueryResult, error)
	}
	sq, ok := c.eng.(specQuerier)
	if !ok {
		return Result{}, ErrSpecUnsupported
	}
	return sq.QuerySpec(clock.SiteID(site), objects, spec)
}

// NumericResult reports a value-bounded query: Drift is the absolute
// numeric change the reads may be missing, never exceeding the bound.
type NumericResult = commu.NumericResult

// QueryNumeric executes a query whose divergence bound is expressed in
// value units rather than update counts (COMMU only): the reads may
// collectively miss at most maxDrift of absolute numeric change.
func (c *Cluster) QueryNumeric(site int, objects []string, maxDrift int64) (NumericResult, error) {
	ce, ok := c.eng.(*commu.Engine)
	if !ok {
		return NumericResult{}, ErrNumericUnsupported
	}
	return ce.QueryNumeric(clock.SiteID(site), objects, maxDrift)
}

// Begin starts a tentative (saga-style) update ET under COMPE: it
// applies optimistically everywhere and must later be resolved with
// Commit or Abort.
func (c *Cluster) Begin(origin int, ops ...Op) (TxID, error) {
	ce, ok := c.eng.(*compe.Engine)
	if !ok {
		return 0, ErrNotCompensating
	}
	return ce.Begin(clock.SiteID(origin), ops)
}

// Commit resolves a tentative COMPE update as committed.
func (c *Cluster) Commit(id TxID) error {
	ce, ok := c.eng.(*compe.Engine)
	if !ok {
		return ErrNotCompensating
	}
	return ce.Commit(id)
}

// Abort resolves a tentative COMPE update as aborted; compensation MSets
// undo it at every replica.
func (c *Cluster) Abort(id TxID) error {
	ce, ok := c.eng.(*compe.Engine)
	if !ok {
		return ErrNotCompensating
	}
	return ce.Abort(id)
}

// CrashSite simulates a site failure on a durable cluster (JournalDir
// set): the site loses all in-memory state and stops answering.
// Supported by ORDUP, COMMU and RITU.
func (c *Cluster) CrashSite(site int) error {
	type crasher interface{ CrashSite(clock.SiteID) error }
	cr, ok := c.eng.(crasher)
	if !ok {
		return ErrRestartUnsupported
	}
	return cr.CrashSite(clock.SiteID(site))
}

// RestartSite recovers a crashed site from its write-ahead log and
// inbound journal; it resumes with its pre-crash state and drains
// whatever queued while it was down.
func (c *Cluster) RestartSite(site int) error {
	type restarter interface{ RestartSite(clock.SiteID) error }
	r, ok := c.eng.(restarter)
	if !ok {
		return ErrRestartUnsupported
	}
	return r.RestartSite(clock.SiteID(site))
}

// Quiesce blocks until every queued MSet has been delivered and applied
// — the paper's quiescent state, at which all replicas hold identical,
// 1-copy-serializable values.  It fails with a timeout while a partition
// blocks propagation.
func (c *Cluster) Quiesce(timeout time.Duration) error {
	return c.eng.Cluster().Quiesce(timeout)
}

// Converged reports whether every replica of every object holds the same
// value, returning the first divergent object otherwise.
func (c *Cluster) Converged() (bool, string) {
	return c.eng.Cluster().Converged()
}

// Value returns the object's current value at one site, bypassing ET
// machinery (for inspection and tests).
func (c *Cluster) Value(site int, object string) Value {
	s := c.eng.Cluster().Site(clock.SiteID(site))
	if s == nil {
		return Value{}
	}
	return s.Store.Get(object)
}

// Partition splits the network into groups of sites; messages between
// groups fail until Heal.  Sites not listed join the first group.
func (c *Cluster) Partition(groups ...[]int) {
	conv := make([][]clock.SiteID, len(groups))
	for i, g := range groups {
		for _, s := range g {
			conv[i] = append(conv[i], clock.SiteID(s))
		}
	}
	// The virtual order server rides with the first group so ORDUP's
	// sequencer-side behaviour is deterministic.
	if len(conv) > 0 {
		conv[0] = append(conv[0], core.SequencerSite)
	}
	c.eng.Cluster().Net.Partition(conv...)
}

// Heal removes all partitions; stable queues then drain automatically.
func (c *Cluster) Heal() {
	c.eng.Cluster().Net.Heal()
}

// Timestamp is a logical version timestamp (RITU multi-version).
type Timestamp = clock.Timestamp

// QueryAt executes a historical query under RITU multi-version: every
// object reads as of the given timestamp — a serializable snapshot of
// the past that never blocks ("queries that are serialized in the past
// do not block", §5.2).
func (c *Cluster) QueryAt(site int, objects []string, ts Timestamp) (Result, error) {
	re, ok := c.eng.(*ritu.Engine)
	if !ok {
		return Result{}, ErrHistoricalUnsupported
	}
	return re.QueryAt(clock.SiteID(site), objects, ts)
}

// Session provides per-client ordering guarantees (read-your-writes and
// monotonic reads) over the cluster, layered on ESR's bounded
// inconsistency.  Create one per logical client with NewSession.
type Session struct {
	s *session.S
}

// NewSession opens a session with both guarantees enabled.  Supported by
// ORDUP, COMMU and RITU.
func (c *Cluster) NewSession() (*Session, error) {
	s, err := session.New(c.eng)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Update executes an update ET through the session, recording it for the
// read-your-writes guarantee.
func (s *Session) Update(origin int, ops ...Op) (TxID, error) {
	return s.s.Update(clock.SiteID(origin), ops)
}

// Query executes a query ET after establishing the session's guarantees
// at the site: it never misses this session's own writes and never reads
// backwards relative to this session's previous reads.
func (s *Session) Query(site int, objects []string, eps Limit) (Result, error) {
	return s.s.Query(clock.SiteID(site), objects, eps)
}

// Read serves a session-consistency read through the unified read path:
// the session's guarantees (read-your-writes, monotonic reads) are
// established at the site first, then the snapshot read runs lock-free
// at the session level.
func (s *Session) Read(site int, objects ...string) (Result, error) {
	return s.s.Read(clock.SiteID(site), objects)
}

// TraceEvent is one recorded protocol event.
type TraceEvent = trace.Event

// Trace returns the retained protocol events, oldest first (empty when
// TraceCapacity was not set).
func (c *Cluster) Trace() []TraceEvent {
	return c.eng.Cluster().Trace.Snapshot()
}

// DumpTrace writes the retained protocol events to w, one per line.
func (c *Cluster) DumpTrace(w io.Writer) {
	c.eng.Cluster().Trace.Dump(w, 0)
}

// Engine exposes the underlying engine for advanced use (experiment
// harnesses, method-specific statistics).
func (c *Cluster) Engine() core.Engine { return c.eng }

// Close shuts the cluster down, including its metrics endpoint.
func (c *Cluster) Close() error {
	err := c.msrv.Close()
	if cerr := c.eng.Close(); err == nil {
		err = cerr
	}
	return err
}
