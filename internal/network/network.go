// Package network is the message transport underneath replica control.
//
// The paper's model (§2.2) is "a number of sites connected by a network,
// where both individual sites and network links may fail" and the methods
// must be "robust in face of very slow links, network partitions, and site
// failures".  The package defines the Transport interface the rest of the
// system (core, the replica chassis, the experiment harness and the esr
// facade) depends on, plus two implementations:
//
//   - Sim, the in-process simulator with seeded, configurable per-message
//     latency, transient message loss, and explicit network partitions —
//     the deterministic default every experiment runs on; and
//   - TCP, a real transport on the standard library's net package with
//     length-prefixed versioned frames and per-peer connection pools, so
//     a cluster of cmd/esrnode processes spans machine boundaries.
//
// Message loss, partitions and connection failures surface as
// SendBatch/Call errors, which the stable-queue delivery agents mask by
// retrying, exactly as the paper prescribes.  Delivery is therefore
// at-least-once: receivers own deduplication (the replica layer's
// seen-set), never the transport.
package network

import (
	"errors"
	"fmt"
	"time"

	"esr/internal/clock"
	"esr/internal/metrics"
	"esr/internal/trace"
)

// Errors returned by SendBatch and Call.  All are transient: the
// caller is expected to retry (stable-queue semantics).  The TCP
// transport maps these across the wire, so errors.Is works identically
// against both implementations.
var (
	// ErrPartitioned reports that the source and destination are in
	// different partitions.
	ErrPartitioned = errors.New("network: sites partitioned")
	// ErrLost reports that the message was dropped en route.
	ErrLost = errors.New("network: message lost")
	// ErrUnknownSite reports a destination with no registered handler
	// and no known peer address.
	ErrUnknownSite = errors.New("network: unknown site")
	// ErrSiteDown reports that the destination site is crashed.
	ErrSiteDown = errors.New("network: site down")
	// ErrClosed reports an operation on a closed transport.
	ErrClosed = errors.New("network: transport closed")
	// ErrUnreachable reports that the peer's connection is down and a
	// reconnect attempt is pending (dial backoff).  Retry later.
	ErrUnreachable = errors.New("network: peer unreachable")
)

// RemoteError is a destination-side failure relayed back over a real
// transport: the remote handler (or the remote transport's dispatch)
// rejected the message.  The sender retries exactly as it would for a
// local handler error.
type RemoteError struct {
	// Msg is the remote error text.
	Msg string
}

func (e *RemoteError) Error() string { return "network: remote: " + e.Msg }

// Transient reports whether a SendBatch/Call failure is worth
// retrying: the fault sentinels above (crash, partition, loss, dial
// backoff) plus ErrUnknownSite, which during a rolling restart means
// "the peer has not registered its handler yet".  Everything else —
// encode failures, protocol violations, a closed transport — is
// permanent and retrying it can only repeat the failure.  RemoteError
// is not transient: the message reached the destination and its handler
// rejected it, so the request itself is at fault.
func Transient(err error) bool {
	return errors.Is(err, ErrPartitioned) ||
		errors.Is(err, ErrLost) ||
		errors.Is(err, ErrSiteDown) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrUnknownSite)
}

// Handler processes an incoming message at a site and returns a response
// payload (may be nil for one-way messages) or an error, which is
// propagated to the sender as a failed delivery.
type Handler func(from clock.SiteID, payload []byte) ([]byte, error)

// BatchHandler processes a whole frame of messages delivered together by
// SendBatch.  An error fails the entire frame: the sender retries all of
// it, and receiver-side dedup absorbs the duplicates (at-least-once).
type BatchHandler func(from clock.SiteID, payloads [][]byte) error

// Transport connects a set of sites.  Implementations are safe for
// concurrent use.
//
// The contract every implementation (and the conformance suite in
// conformance_test.go) holds to:
//
//   - SendBatch returns nil only after the destination handler ran and
//     succeeded — the implicit acknowledgement.  It is all-or-nothing
//     per frame: one transit covers the whole batch, and any error means
//     the frame may or may not have been delivered and must be retried
//     whole; the receiver's dedup absorbs repeats (at-least-once).  A
//     single message is a frame of one.  When the destination has no
//     batch handler the frame falls back to its per-message handler,
//     still as one transit.
//   - Call is a synchronous round trip returning the handler's response.
//   - Partition/Heal/Crash/Restart are fault-injection hooks.  The
//     simulator applies them to the whole (in-process) network; a
//     distributed transport applies them to this instance's local view,
//     which is what tests and operators hold a handle to.
type Transport interface {
	// SendBatch delivers a whole frame of messages in one transit,
	// all-or-nothing; nil means the destination handler ran and
	// succeeded.
	SendBatch(from, to clock.SiteID, payloads [][]byte) error
	// Call performs a synchronous round trip and returns the handler's
	// response payload.
	Call(from, to clock.SiteID, payload []byte) ([]byte, error)
	// Register installs the message handler for a site hosted behind
	// this transport, used by Call and by frames to a site without a
	// batch handler.  Re-registering replaces the handler (crashed-site
	// restart).
	Register(site clock.SiteID, h Handler)
	// RegisterBatch installs the frame handler for a site, used by
	// SendBatch.
	RegisterBatch(site clock.SiteID, h BatchHandler)
	// SetMetrics installs instrumentation.  Call before concurrent use.
	SetMetrics(m Metrics)
	// SetTrace installs the trace ring: the transport records
	// frame-level net-send/net-recv spans in it and, across processes,
	// carries its causal stamp on every frame.  Call before concurrent
	// use.
	SetTrace(r *trace.Ring)
	// Stats returns a snapshot of the cumulative transport statistics.
	Stats() Stats
	// Partition splits the sites into groups; messages between different
	// groups fail with ErrPartitioned until Heal.
	Partition(groups ...[]clock.SiteID)
	// Heal removes all partitions.
	Heal()
	// Crash marks a site as down; messages to and from it fail with
	// ErrSiteDown until Restart.
	Crash(site clock.SiteID)
	// Restart marks a crashed site as up again.
	Restart(site clock.SiteID)
	// Close shuts the transport down; in-flight operations fail with
	// ErrClosed.  Close is idempotent.
	Close() error
}

// Config parameterizes the simulated transport (Sim).
type Config struct {
	// Seed seeds the deterministic random source used for latency and
	// loss decisions.
	Seed int64
	// MinLatency and MaxLatency bound the uniform one-way delay applied
	// to each message.  Both zero means instantaneous delivery.
	MinLatency, MaxLatency time.Duration
	// LossRate is the probability in [0,1] that a message is dropped en
	// route (after its latency has elapsed, like a real timeout).
	LossRate float64
}

// Validate rejects configurations that would silently misbehave at send
// time: inverted latency bounds, negative delays, and probabilities
// outside [0,1].
func (c Config) Validate() error {
	if c.MinLatency < 0 || c.MaxLatency < 0 {
		return fmt.Errorf("network: negative latency bound (min %v, max %v)", c.MinLatency, c.MaxLatency)
	}
	if c.MaxLatency < c.MinLatency {
		return fmt.Errorf("network: MinLatency %v exceeds MaxLatency %v", c.MinLatency, c.MaxLatency)
	}
	if c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("network: LossRate %v outside [0,1]", c.LossRate)
	}
	return nil
}

// Stats counts transport activity.  All fields are cumulative.  On a
// distributed transport each instance counts its own view: Sent on the
// sender, Delivered/Bytes/Frames on the receiver (an in-process local
// delivery counts both sides at once).
type Stats struct {
	Sent        uint64 // messages handed to SendBatch/Call
	Delivered   uint64 // messages that reached a handler
	Lost        uint64 // messages dropped by the loss model
	Partitioned uint64 // messages rejected because of a partition
	Bytes       uint64 // payload bytes delivered
	Frames      uint64 // frames delivered (one per SendBatch success)
	Dials       uint64 // connection (re)establishments (TCP only)
}

// Metrics instruments a transport alongside Stats.  All fields optional
// (nil fields are no-ops).  On the simulator the latency histogram
// observes the sampled (injected) link delay, never the wall clock, so
// simulation determinism (the A4 rule) is preserved; on the TCP
// transport it observes the measured round-trip time.
type Metrics struct {
	// Sent counts messages handed to SendBatch/Call.
	Sent *metrics.Counter
	// Delivered counts messages that reached a handler successfully.
	Delivered *metrics.Counter
	// Lost counts messages dropped by the loss model.
	Lost *metrics.Counter
	// Partitioned counts messages rejected because of a partition.
	Partitioned *metrics.Counter
	// Bytes counts payload bytes delivered.
	Bytes *metrics.Counter
	// Frames counts frames delivered (one per SendBatch success).
	Frames *metrics.Counter
	// LatencySeconds observes the per-transit delay in nanoseconds, one
	// observation per transit (frame or message), whatever its outcome.
	LatencySeconds *metrics.Histogram
}
