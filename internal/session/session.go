// Package session layers per-client ordering guarantees over an ESR
// engine: read-your-writes and monotonic reads.
//
// ESR bounds how much inconsistency a query may import, but an ε > 0
// query can still miss the caller's own just-committed update, or
// observe state older than a previous read at another replica.  Session
// guarantees close those two gaps without global synchronization — a
// natural companion to bounded inconsistency, and the kind of client-
// centric contract later systems built on exactly the asynchronous
// propagation substrate this reproduction implements.
//
//   - Read-your-writes: before a session query runs at a site, the
//     session waits (bounded) until every update it committed has been
//     applied at that site.
//   - Monotonic reads: the session remembers, per object, the highest
//     update epoch it has observed; a query at any site waits until that
//     site has applied at least as many updates to the object.
//
// Both guarantees apply per session; other clients' queries are
// untouched and keep paying only their ε.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/op"
)

// appliedAtTracker is implemented by engines that can report per-site
// and global application of an update ET (ORDUP, COMMU, RITU).
type appliedAtTracker interface {
	AppliedAt(id et.ID, site clock.SiteID) bool
	AppliedEverywhere(id et.ID) bool
}

// Errors returned by sessions.
var (
	// ErrUnsupported reports an engine without per-site applied
	// tracking.
	ErrUnsupported = errors.New("session: engine does not track per-site application")
	// ErrGuaranteeTimeout reports that a session guarantee could not be
	// established at the chosen site in time (for example, the site is
	// partitioned away from the session's writes).
	ErrGuaranteeTimeout = errors.New("session: guarantee wait timed out")
)

// Config tunes a session.
type Config struct {
	// WaitTimeout bounds how long a query waits to establish its
	// guarantees (default 5s).
	WaitTimeout time.Duration
	// ReadYourWrites enables the read-your-writes guarantee (default
	// on when created through New).
	ReadYourWrites bool
	// MonotonicReads enables the monotonic-reads guarantee.
	MonotonicReads bool
}

// S is one client session.  It is safe for concurrent use, though the
// guarantees are most meaningful for a single logical client.
type S struct {
	eng     core.Engine
	tracker appliedAtTracker
	cfg     Config

	mu        sync.Mutex
	unapplied []et.ID           // session writes possibly not yet everywhere
	seenEpoch map[string]uint64 // object -> highest epoch observed
}

// New creates a session with both guarantees enabled.
func New(eng core.Engine) (*S, error) {
	return NewWith(eng, Config{ReadYourWrites: true, MonotonicReads: true})
}

// NewWith creates a session with explicit configuration.
func NewWith(eng core.Engine, cfg Config) (*S, error) {
	tracker, ok := eng.(appliedAtTracker)
	if !ok {
		return nil, ErrUnsupported
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 5 * time.Second
	}
	return &S{
		eng:       eng,
		tracker:   tracker,
		cfg:       cfg,
		seenEpoch: make(map[string]uint64),
	}, nil
}

// Update executes an update ET through the session, recording it for
// the read-your-writes guarantee.
func (s *S) Update(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	id, err := s.eng.Update(origin, ops)
	if err != nil {
		return 0, err
	}
	if s.cfg.ReadYourWrites {
		s.mu.Lock()
		s.unapplied = append(s.unapplied, id)
		s.mu.Unlock()
	}
	return id, nil
}

// Query executes a query ET with the session's guarantees established
// at the chosen site first.
func (s *S) Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	deadline := time.Now().Add(s.cfg.WaitTimeout)
	if s.cfg.ReadYourWrites {
		if err := s.waitForWrites(site, deadline); err != nil {
			return et.QueryResult{}, err
		}
	}
	if s.cfg.MonotonicReads {
		if err := s.waitForEpochs(site, objects, deadline); err != nil {
			return et.QueryResult{}, err
		}
	}
	res, err := s.eng.Query(site, objects, eps)
	if err != nil {
		return res, err
	}
	if s.cfg.MonotonicReads {
		sp := s.eng.Cluster().Site(site)
		s.mu.Lock()
		for _, obj := range objects {
			if ep := sp.Epoch(obj); ep > s.seenEpoch[obj] {
				s.seenEpoch[obj] = ep
			}
		}
		s.mu.Unlock()
	}
	return res, nil
}

// Read serves a session-consistency read through the unified read path
// (core.ReadAtSite at the session level): the session's guarantees are
// established at the site first — the same bounded waits Query uses —
// and the lock-free snapshot read then runs against state that already
// includes every session write.
func (s *S) Read(site clock.SiteID, objects []string) (et.QueryResult, error) {
	deadline := time.Now().Add(s.cfg.WaitTimeout)
	if s.cfg.ReadYourWrites {
		if err := s.waitForWrites(site, deadline); err != nil {
			return et.QueryResult{}, err
		}
	}
	if s.cfg.MonotonicReads {
		if err := s.waitForEpochs(site, objects, deadline); err != nil {
			return et.QueryResult{}, err
		}
	}
	res, err := core.ReadAtSite(s.eng.Cluster(), site, objects, core.ReadOptions{
		Level:       consistency.Session,
		Epsilon:     divergence.Unlimited,
		WaitTimeout: s.cfg.WaitTimeout,
	})
	if err != nil {
		return res, err
	}
	if s.cfg.MonotonicReads {
		sp := s.eng.Cluster().Site(site)
		s.mu.Lock()
		for _, obj := range objects {
			if ep := sp.Epoch(obj); ep > s.seenEpoch[obj] {
				s.seenEpoch[obj] = ep
			}
		}
		s.mu.Unlock()
	}
	return res, nil
}

// waitForWrites blocks until every recorded session write is applied at
// the site.  Writes that have reached every replica are pruned from the
// session's list — they can never block any future query.
func (s *S) waitForWrites(site clock.SiteID, deadline time.Time) error {
	for {
		s.mu.Lock()
		kept := s.unapplied[:0]
		blocking := 0
		for _, id := range s.unapplied {
			if s.tracker.AppliedEverywhere(id) {
				continue
			}
			kept = append(kept, id)
			if !s.tracker.AppliedAt(id, site) {
				blocking++
			}
		}
		s.unapplied = kept
		s.mu.Unlock()
		if blocking == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d session write(s) not yet applied at %v",
				ErrGuaranteeTimeout, blocking, site)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitForEpochs blocks until the site's per-object applied epochs reach
// everything this session has already observed.
func (s *S) waitForEpochs(site clock.SiteID, objects []string, deadline time.Time) error {
	sp := s.eng.Cluster().Site(site)
	if sp == nil {
		return fmt.Errorf("session: unknown site %v", site)
	}
	for {
		behind := ""
		s.mu.Lock()
		for _, obj := range objects {
			if sp.Epoch(obj) < s.seenEpoch[obj] {
				behind = obj
				break
			}
		}
		s.mu.Unlock()
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: site %v behind this session on %q",
				ErrGuaranteeTimeout, site, behind)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
