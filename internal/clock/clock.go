// Package clock provides the logical-time machinery used to order update
// MSets in asynchronous replica control.
//
// The paper (Pu & Leff, CUCS-053-90, §3.1) names two ways of generating the
// global execution order that ORDUP requires: a centralized order server,
// and Lamport-style distributed timestamps.  Both are implemented here, plus
// a hybrid logical clock useful for RITU's read-independent timestamped
// updates.
package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SiteID identifies a replica site.  Site identifiers take part in
// timestamp tie-breaking, so they must be unique across the system.
type SiteID int

// String implements fmt.Stringer.
func (s SiteID) String() string { return fmt.Sprintf("site%d", int(s)) }

// Timestamp is a Lamport timestamp extended with a site identifier so that
// timestamps form a total order.  The zero Timestamp sorts before every
// timestamp produced by a clock.
type Timestamp struct {
	// Time is the logical time component.
	Time uint64
	// Site breaks ties between equal logical times.
	Site SiteID
}

// Less reports whether t is strictly earlier than u in the total order.
func (t Timestamp) Less(u Timestamp) bool {
	if t.Time != u.Time {
		return t.Time < u.Time
	}
	return t.Site < u.Site
}

// Compare returns -1, 0 or +1 as t sorts before, equal to, or after u.
func (t Timestamp) Compare(u Timestamp) int {
	switch {
	case t.Less(u):
		return -1
	case u.Less(t):
		return 1
	default:
		return 0
	}
}

// IsZero reports whether t is the zero timestamp.
func (t Timestamp) IsZero() bool { return t.Time == 0 && t.Site == 0 }

// Latest sorts after every clock-produced timestamp: a read at Latest
// sees the newest local state.
var Latest = Timestamp{Time: ^uint64(0), Site: SiteID(^uint(0) >> 1)}

// String implements fmt.Stringer.
func (t Timestamp) String() string { return fmt.Sprintf("%d.%d", t.Time, int(t.Site)) }

// Lamport is a Lamport logical clock bound to one site.  It is safe for
// concurrent use.
type Lamport struct {
	site SiteID
	time atomic.Uint64
}

// NewLamport returns a Lamport clock for the given site.
func NewLamport(site SiteID) *Lamport {
	return &Lamport{site: site}
}

// Site returns the site this clock is bound to.
func (l *Lamport) Site() SiteID { return l.site }

// Tick advances the clock for a local event and returns the new timestamp.
func (l *Lamport) Tick() Timestamp {
	return Timestamp{Time: l.time.Add(1), Site: l.site}
}

// Observe merges a timestamp received from another site into the clock,
// per Lamport's receive rule, and returns the clock's new timestamp.
func (l *Lamport) Observe(remote Timestamp) Timestamp {
	for {
		cur := l.time.Load()
		next := cur + 1
		if remote.Time >= next {
			next = remote.Time + 1
		}
		if l.time.CompareAndSwap(cur, next) {
			return Timestamp{Time: next, Site: l.site}
		}
	}
}

// Now returns the current timestamp without advancing the clock.
func (l *Lamport) Now() Timestamp {
	return Timestamp{Time: l.time.Load(), Site: l.site}
}

// Sequencer is the centralized order server of §3.1: a monotone counter
// that hands out globally unique, gap-free sequence numbers.  It is safe
// for concurrent use.
//
// In a deployed system the sequencer would be reached by RPC; in this
// reproduction the network layer simulates that round trip.  The zero
// Sequencer is ready to use and issues 1, 2, 3, ...
type Sequencer struct {
	next atomic.Uint64
}

// Next returns the next sequence number, starting at 1.
func (s *Sequencer) Next() uint64 {
	return s.next.Add(1)
}

// Reserve atomically allocates n consecutive sequence numbers and
// returns the first of the run.  A commit burst reserves its whole range
// in one round trip instead of n; Reserve(1) is equivalent to Next.
func (s *Sequencer) Reserve(n uint64) uint64 {
	return s.next.Add(n) - n + 1
}

// Current returns the most recently issued sequence number (0 if none).
func (s *Sequencer) Current() uint64 { return s.next.Load() }

// HLC is a hybrid logical clock: a logical counter paired with a
// caller-supplied physical time source.  RITU uses it to produce
// timestamped versions that respect real-time order between sites whose
// physical clocks are loosely synchronized, while never going backwards.
type HLC struct {
	mu   sync.Mutex
	site SiteID
	wall func() uint64 // physical time source, monotone per call site
	l    uint64        // last physical component issued
	c    uint64        // logical component
}

// NewHLC returns a hybrid logical clock for site using the given physical
// time source.  The source should return a monotone non-decreasing value
// (for example, nanoseconds since start); it need not be synchronized
// across sites.
func NewHLC(site SiteID, wall func() uint64) *HLC {
	return &HLC{site: site, wall: wall}
}

// Tick returns a new timestamp for a local or send event.  The returned
// Timestamp packs the physical and logical components into the Time field
// (physical in the high 48 bits, logical in the low 16), which preserves
// Less ordering.
func (h *HLC) Tick() Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := h.wall()
	if w > h.l {
		h.l = w
		h.c = 0
	} else {
		h.c++
	}
	return h.pack()
}

// Observe merges a remote timestamp into the clock per the HLC receive
// rule and returns the new local timestamp.
func (h *HLC) Observe(remote Timestamp) Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	rl, rc := unpack(remote.Time)
	w := h.wall()
	switch {
	case w > h.l && w > rl:
		h.l = w
		h.c = 0
	case rl > h.l:
		h.l = rl
		h.c = rc + 1
	case h.l > rl:
		h.c++
	default: // h.l == rl
		if rc > h.c {
			h.c = rc
		}
		h.c++
	}
	return h.pack()
}

func (h *HLC) pack() Timestamp {
	return Timestamp{Time: h.l<<16 | (h.c & 0xffff), Site: h.site}
}

func unpack(t uint64) (l, c uint64) { return t >> 16, t & 0xffff }
