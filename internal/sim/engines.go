// Package sim provides the workload generator, metrics collection and
// experiment harness that regenerate the paper's tables and validate its
// claims (see DESIGN.md's experiment index).
package sim

import (
	"fmt"
	"time"

	"esr/internal/clock"
	"esr/internal/coherency"
	"esr/internal/commu"
	"esr/internal/compe"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/ordup"
	"esr/internal/ritu"
)

// EngineKind names a runnable engine configuration.
type EngineKind string

// Engine kinds accepted by NewEngine.
const (
	ORDUPSeq     EngineKind = "ordup"         // ORDUP with the centralized sequencer
	ORDUPLamport EngineKind = "ordup-lamport" // ORDUP with Lamport ordering
	COMMU        EngineKind = "commu"         // commutative operations
	RITUSV       EngineKind = "ritu"          // RITU, single-version (Thomas write rule)
	RITUMV       EngineKind = "ritu-mv"       // RITU, multi-version with VTNC
	COMPE        EngineKind = "compe"         // compensation, commutative discipline
	COMPEGeneral EngineKind = "compe-general" // compensation, general discipline
	TwoPC        EngineKind = "2pc"           // baseline: 2PC read-one-write-all
	QuorumMaj    EngineKind = "quorum"        // baseline: majority quorum voting
)

// AllMethods lists the paper's four replica-control methods in Table 1
// order.
var AllMethods = []EngineKind{ORDUPSeq, COMMU, RITUSV, COMPE}

// Options tunes engine construction beyond the common knobs.
type Options struct {
	// CounterLimit throttles COMMU updates (0 disables).
	CounterLimit int
	// Heartbeat overrides the ORDUP Lamport heartbeat interval.
	Heartbeat time.Duration
	// QueueDir makes stable queues journal-backed.
	QueueDir string
	// DeliveryWindow overrides the outbound in-flight window (0 keeps
	// the core default; negative forces single-message delivery).
	DeliveryWindow int
	// FlushWindow sets the journal group-commit flush window.
	FlushWindow time.Duration
	// Trace enables event tracing with a ring of this capacity.
	Trace int
	// Metrics instruments the cluster: every pipeline stage registers
	// its counters, gauges and latency histograms there, labeled with
	// the engine kind via the registry's const labels (nil disables
	// instrumentation entirely — the no-op path costs nothing).
	Metrics *metrics.Registry
	// ApplyWorkers sizes each site's apply worker pool (0 means
	// GOMAXPROCS; 1 forces serial apply).
	ApplyWorkers int
	// Transport replaces the default simulated network (e.g. a
	// network.TCP in a cmd/esrnode process).  The caller owns and
	// closes it; nil builds a simulator from the net Config.
	Transport network.Transport
	// LocalSites restricts the cluster instance to hosting the listed
	// sites (multi-process deployment).  Empty hosts all sites.
	LocalSites []clock.SiteID
	// SeqReplicas replicates ORDUP's order service across this many
	// ensemble members co-hosted with sites 1..SeqReplicas (0 keeps
	// the single virtual order server).
	SeqReplicas int
	// NumShards partitions the keyspace into this many independent
	// ordering domains, each with its own sequencer, journals and
	// delivery windows (ORDUP kinds only; 0 or 1 keeps the single
	// domain).
	NumShards int
}

// BurstUpdater is implemented by engines that can submit a commit burst
// of update ETs as one propagation batch per destination (the
// group-commit pipeline).  All four replica-control methods implement
// it over core's write path (Cluster.Submit); the synchronous baselines
// do not.
type BurstUpdater interface {
	UpdateBurst(origin clock.SiteID, bursts [][]op.Op) ([]et.ID, error)
}

// NewEngine constructs an engine of the given kind over a fresh cluster.
func NewEngine(kind EngineKind, sites int, net network.Config, opt Options) (core.Engine, error) {
	cc := core.Config{Sites: sites, Net: net, Dir: opt.QueueDir, Trace: opt.Trace,
		DeliveryWindow: opt.DeliveryWindow, FlushWindow: opt.FlushWindow,
		Metrics: opt.Metrics, Method: string(kind),
		ApplyWorkers: opt.ApplyWorkers,
		Transport:    opt.Transport, LocalSites: opt.LocalSites,
		SeqReplicas: opt.SeqReplicas}
	switch kind {
	case ORDUPSeq:
		cc.NumShards = opt.NumShards
		return ordup.New(ordup.Config{Core: cc, Ordering: ordup.Sequencer, Heartbeat: opt.Heartbeat})
	case ORDUPLamport:
		cc.NumShards = opt.NumShards
		return ordup.New(ordup.Config{Core: cc, Ordering: ordup.Lamport, Heartbeat: opt.Heartbeat})
	case COMMU:
		return commu.New(commu.Config{Core: cc, CounterLimit: opt.CounterLimit})
	case RITUSV:
		return ritu.New(ritu.Config{Core: cc, Mode: ritu.SingleVersion})
	case RITUMV:
		return ritu.New(ritu.Config{Core: cc, Mode: ritu.MultiVersion})
	case COMPE:
		return compe.New(compe.Config{Core: cc, Mode: compe.Commutative, AutoCommit: true})
	case COMPEGeneral:
		return compe.New(compe.Config{Core: cc, Mode: compe.General, AutoCommit: true})
	case TwoPC:
		return coherency.New(coherency.Config{Core: cc, Protocol: coherency.TwoPC})
	case QuorumMaj:
		maj := sites/2 + 1
		return coherency.New(coherency.Config{
			Core: cc, Protocol: coherency.Quorum,
			ReadQuorum: maj, WriteQuorum: maj,
		})
	default:
		return nil, fmt.Errorf("sim: unknown engine kind %q", kind)
	}
}
