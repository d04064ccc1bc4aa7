package network

import (
	"fmt"
	"sync"
	"sync/atomic"

	"esr/internal/clock"
	"esr/internal/trace"
)

// sites is the site table Sim and TCP both embed: the handlers of the
// sites hosted here, the fault view (partition groups and crashed
// sites), the counters and the trace ring.  It implements Transport's
// registration, fault-injection and instrumentation methods once, plus
// the one fault check (fault) and the one place a frame meets a
// handler (dispatch).
type sites struct {
	mu       sync.Mutex
	handlers map[clock.SiteID]Handler
	batch    map[clock.SiteID]BatchHandler
	group    map[clock.SiteID]int // partition group; absent means group 0
	down     map[clock.SiteID]bool
	stats    Stats
	met      Metrics
	ring     atomic.Pointer[trace.Ring]
}

func (s *sites) init() {
	s.handlers = make(map[clock.SiteID]Handler)
	s.batch = make(map[clock.SiteID]BatchHandler)
	s.group = make(map[clock.SiteID]int)
	s.down = make(map[clock.SiteID]bool)
}

// Register installs the message handler for a site hosted here.
// Re-registering replaces the handler (used when a crashed site
// restarts).
func (s *sites) Register(site clock.SiteID, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[site] = h
}

// RegisterBatch installs the frame handler for a site hosted here.
// Re-registering replaces the handler.
func (s *sites) RegisterBatch(site clock.SiteID, h BatchHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batch[site] = h
}

// SetMetrics installs instrumentation.  Call before concurrent use.
func (s *sites) SetMetrics(m Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = m
}

// SetTrace installs the trace ring.  Each frame that crosses the
// transport, calls excepted, records a net-send span on the sender.
// Over TCP every frame also carries the sender's causal stamp, which
// the receiver merges before its handler runs, and a received frame
// records a net-recv event.
func (s *sites) SetTrace(r *trace.Ring) { s.ring.Store(r) }

// Stats returns a snapshot of the cumulative transport statistics.
func (s *sites) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Partition splits the sites into the given groups.  Sites not
// mentioned land in group 0 alongside the first group.  Messages
// between different groups fail with ErrPartitioned until Heal.
func (s *sites) Partition(groups ...[]clock.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.group = make(map[clock.SiteID]int)
	for g, ids := range groups {
		for _, id := range ids {
			s.group[id] = g
		}
	}
}

// Heal removes all partitions.
func (s *sites) Heal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.group = make(map[clock.SiteID]int)
}

// Crash marks a site as down: messages to and from it fail with
// ErrSiteDown until Restart.  (Local site state is owned by the replica
// layer; Crash only models the network-visible effect.)
func (s *sites) Crash(site clock.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[site] = true
}

// Restart marks a crashed site as up again.
func (s *sites) Restart(site clock.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.down, site)
}

// send counts n messages handed over for from → to and applies the
// fault view to them (see fault).
func (s *sites) send(from, to clock.SiteID, n uint64) error {
	s.met.Sent.Add(n)
	return s.check(from, to, n, n)
}

// fault applies this view's faults to a transit of n messages from →
// to: ErrPartitioned (counted) when the two sit in different groups,
// ErrSiteDown when either is crashed, nil otherwise.
func (s *sites) fault(from, to clock.SiteID, n uint64) error {
	return s.check(from, to, 0, n)
}

func (s *sites) check(from, to clock.SiteID, sent, n uint64) error {
	s.mu.Lock()
	s.stats.Sent += sent
	partitioned := s.group[from] != s.group[to]
	if partitioned {
		s.stats.Partitioned += n
	}
	isDown := s.down[from] || s.down[to]
	s.mu.Unlock()
	if partitioned {
		s.met.Partitioned.Add(n)
		return ErrPartitioned
	}
	if isDown {
		return ErrSiteDown
	}
	return nil
}

// dispatch hands one frame to the site's handlers and counts it as
// delivered.  A call goes to the per-message handler, whose response it
// returns.  Any other frame goes to the batch handler, or, when the
// site has none, to the per-message handler once per payload in order
// (the fallback); either way it is one frame.  A site with no handler
// fails with ErrUnknownSite; any other error is the handler's.
func (s *sites) dispatch(from, to clock.SiteID, payloads [][]byte, call bool) ([]byte, error) {
	s.mu.Lock()
	h, bh := s.handlers[to], s.batch[to]
	s.mu.Unlock()
	var resp []byte
	switch {
	case call && h != nil:
		r, err := h(from, payloads[0])
		if err != nil {
			return nil, err
		}
		resp = r
	case !call && bh != nil:
		if err := bh(from, payloads); err != nil {
			return nil, err
		}
	case !call && h != nil:
		for _, p := range payloads {
			if _, err := h(from, p); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownSite, to)
	}
	n, bytes := uint64(len(payloads)), uint64(0)
	for _, p := range payloads {
		bytes += uint64(len(p))
	}
	var frames uint64
	if !call {
		frames = 1
	}
	s.mu.Lock()
	s.stats.Delivered += n
	s.stats.Bytes += bytes
	s.stats.Frames += frames
	s.mu.Unlock()
	s.met.Delivered.Add(n)
	s.met.Bytes.Add(bytes)
	s.met.Frames.Add(frames)
	return resp, nil
}

func (s *sites) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
