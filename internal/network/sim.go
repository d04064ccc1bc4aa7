package network

import (
	"fmt"
	"math/rand"
	"time"

	"esr/internal/clock"
	"esr/internal/stopwatch"
	"esr/internal/trace"
)

// Sim is the in-process simulated transport: seeded per-frame latency,
// transient loss, explicit partitions and site crashes — the real
// multi-site network replaced, per the reproduction's substitution rule,
// by a deterministic model.  It is safe for concurrent use and
// implements Transport.  Sender and receiver share one process, so it
// carries no causal stamps: an installed trace ring records net-send
// spans only.
type Sim struct {
	sites
	cfg Config
	rng *rand.Rand // guarded by sites.mu
}

var _ Transport = (*Sim)(nil)

// New returns a simulated transport with the given configuration, or an
// error when the configuration is invalid (see Config.Validate).
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	t.init()
	return t, nil
}

// Close shuts the simulator down.  The simulator holds no external
// resources (no sockets, no goroutines), so Close only satisfies the
// Transport contract; the instance stays usable for draining tests.
func (t *Sim) Close() error { return nil }

// Send delivers one message as a frame of one.
func (t *Sim) Send(from, to clock.SiteID, payload []byte) error {
	return t.SendBatch(from, to, [][]byte{payload})
}

// Call performs a synchronous round trip: request latency, handler,
// response latency.  It returns the handler's response payload.  The
// synchronous coherency-control baselines (2PC, quorum voting) are built
// on Call; the asynchronous replica-control methods use SendBatch via
// stable queues.
func (t *Sim) Call(from, to clock.SiteID, payload []byte) ([]byte, error) {
	return t.transit(from, to, [][]byte{payload}, true)
}

// SendBatch delivers a whole frame of messages in one network transit:
// one latency sample, one loss decision, and one partition check cover
// the entire frame, which is what makes batched propagation cheap on
// slow links.  The frame is all-or-nothing — on any error the caller
// retries the whole frame and dedup at the receiver absorbs repeats.
func (t *Sim) SendBatch(from, to clock.SiteID, payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	_, err := t.transit(from, to, payloads, false)
	return err
}

// transit carries one frame (a call is a frame of one with two legs)
// through the fault model and on to the destination's handler.
func (t *Sim) transit(from, to clock.SiteID, payloads [][]byte, call bool) ([]byte, error) {
	sw := stopwatch.Start()
	n := uint64(len(payloads))
	legs := time.Duration(1)
	if call {
		legs = 2
	}
	t.mu.Lock()
	lat := t.sampleLatencyLocked() * legs
	lost := t.cfg.LossRate > 0 && t.rng.Float64() < t.cfg.LossRate
	t.mu.Unlock()
	t.met.LatencySeconds.Observe(int64(lat))
	if err := t.send(from, to, n); err != nil {
		return nil, err
	}
	time.Sleep(lat)
	if lost {
		t.count(func(s *Stats) { s.Lost += n })
		t.met.Lost.Add(n)
		return nil, ErrLost
	}
	if lat > 0 {
		// A partition that formed while the frame was in flight kills it.
		if err := t.fault(from, to, n); err != nil {
			return nil, err
		}
	}
	resp, err := t.dispatch(from, to, payloads, call)
	if ring := t.ring.Load(); err == nil && !call && ring != nil {
		ring.RecordSpan(trace.NetSend, int(from), "", 0, sw.Began(), fmt.Sprintf("to=%d n=%d", to, n))
	}
	return resp, err
}

func (t *Sim) sampleLatencyLocked() time.Duration {
	if t.cfg.MaxLatency == 0 {
		return 0
	}
	if t.cfg.MaxLatency == t.cfg.MinLatency {
		return t.cfg.MinLatency
	}
	span := int64(t.cfg.MaxLatency - t.cfg.MinLatency)
	return t.cfg.MinLatency + time.Duration(t.rng.Int63n(span))
}
