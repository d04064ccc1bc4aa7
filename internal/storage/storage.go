// Package storage provides the per-site object store used by the replica
// layer.
//
// A site's state is one multi-version store: each object is a chain of
// versions ordered by timestamp, and the chain head is the object's
// current value.  Every write lands in the chain — an apply at an MSet's
// timestamp, a blind write under the Thomas write rule (RITU's
// single-version mode, §3.3: "An RITU update trying to overwrite a newer
// version is ignored"), an immutable version at its own timestamp (RITU's
// multi-version mode), or a compensation "adding another version with the
// same timestamp but bearing the previous value" (§4.2).  A visible
// transaction number counter (VTNC), after the Modular Synchronization
// Method the paper cites for RITU's multi-version mode, splits the chain:
// versions at or below it are stable and yield serializable reads;
// versions above it are visible only to queries willing to pay
// inconsistency for freshness.  Snapshot reads pin a timestamp so GC
// keeps what they can see.
//
// The store shards its chains into per-object stripes (fnv-hash of the
// object name), each guarded by its own RWMutex, so the parallel apply
// scheduler's workers touching different objects never contend on a
// global store lock.  All access goes through the stripe accessor;
// esrvet rule A7 flags code that reaches into the stripe slice directly.
package storage

import (
	"sort"
	"sync"

	"esr/internal/clock"
	"esr/internal/op"
)

// defaultStripes is the store's stripe count.  Sixteen keeps per-stripe
// maps small while making same-stripe collisions between objects that
// parallel apply groups touch rare.
const defaultStripes = 16

// stripeIndex maps an object name to a stripe slot (fnv-1a, allocation
// free).
func stripeIndex(object string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(object); i++ {
		h ^= uint32(object[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// Version is one committed version of an object.
type Version struct {
	// TS is the version's timestamp; versions of an object are totally
	// ordered by TS.
	TS clock.Timestamp
	// Val is the full object value as of this version.
	Val op.Value
}

// Store is a site's multi-version object store.  The zero value is not
// usable; call NewStore.  It is safe for concurrent use.  Version chains
// are sharded into per-object stripes; the VTNC and the pin table are
// store-global and have their own locks.
type Store struct {
	stripes []*chainStripe

	vtncMu sync.RWMutex
	vtnc   clock.Timestamp

	pinMu   sync.Mutex
	pins    map[uint64]clock.Timestamp // live snapshot pins, by handle
	nextPin uint64
}

// MVStore is Store under its older name, which benchmark/ still uses.
type MVStore = Store

// chainStripe holds the version chains for the objects hashing to one
// stripe.  An object is in objs once it has a version.
type chainStripe struct {
	mu   sync.RWMutex
	objs map[string]chain
}

// chain is one object's versions: the newest inline in the map entry, so
// a latest read or an apply at the head costs one map lookup, and the
// older ones below it.
type chain struct {
	head  Version
	below []Version // ascending by TS, all older than head
}

// at returns the newest version at or below ts.
func (c chain) at(ts clock.Timestamp) (Version, bool) {
	if !ts.Less(c.head.TS) {
		return c.head, true
	}
	i := sort.Search(len(c.below), func(i int) bool { return ts.Less(c.below[i].TS) })
	if i == 0 {
		return Version{}, false
	}
	return c.below[i-1], true
}

// NewStore returns an empty store with a zero VTNC.  Objects spring into
// existence with the zero value on first write.
func NewStore() *Store {
	s := &Store{stripes: make([]*chainStripe, defaultStripes), pins: make(map[uint64]clock.Timestamp)}
	for i := range s.stripes {
		s.stripes[i] = &chainStripe{objs: make(map[string]chain)}
	}
	return s
}

// NewMVStore is NewStore under its older name, which benchmark/ still
// uses.
func NewMVStore() *Store { return NewStore() }

// stripe is the accessor every method resolves objects through (A7).
func (s *Store) stripe(object string) *chainStripe {
	return s.stripes[stripeIndex(object, len(s.stripes))]
}

// forEachStripe visits every stripe in slot order (whole-store scans).
func (s *Store) forEachStripe(f func(*chainStripe)) {
	for _, st := range s.stripes {
		f(st)
	}
}

// Get returns the object's current value: its chain head, or the zero
// Value if it was never written.
func (s *Store) Get(object string) op.Value {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.objs[object].head.Val.Clone()
}

// Apply applies the operation to the object's head in place, keeping the
// head's timestamp (the zero timestamp on an empty chain), and returns
// the new value: ApplyAt at the zero timestamp, which no head is below.
func (s *Store) Apply(o op.Op) op.Value { return s.ApplyAt(o, clock.Timestamp{}) }

// ApplyAt applies the operation to the object's head and installs the
// result at ts by InstallMonotone's rule, all under one stripe lock.  It
// returns the new value.  Read returns the current value unchanged.
func (s *Store) ApplyAt(o op.Op, ts clock.Timestamp) op.Value {
	if o.Kind == op.Read {
		return s.Get(o.Object)
	}
	st := s.stripe(o.Object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c, found := st.objs[o.Object]
	v := op.ApplyFull(o, c.head.Val)
	st.installMonotone(o.Object, c, found, ts, v)
	return v.Clone()
}

// InstallNewer installs a full value at ts under the Thomas write rule:
// only if ts is newer than the object's head.  It reports whether the
// value was installed (false means it was ignored as stale).  RITU's
// single-version mode, WAL replay and the merge protocol install
// timestamped blind writes through it; the quorum baselines install
// version-numbered copies at Timestamp{Time: version}.
func (s *Store) InstallNewer(object string, ts clock.Timestamp, val op.Value) bool {
	st := s.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c, found := st.objs[object]
	if found && !c.head.TS.Less(ts) {
		return false // stale write: ignore (Thomas write rule)
	}
	st.installMonotone(object, c, found, ts, val)
	return true
}

// Install inserts a version.  Installing a version with a timestamp the
// object already has replaces that version's value — which is exactly the
// compensation mechanism §4.2 describes: "adding another version with the
// same timestamp but bearing the previous value".  Install is idempotent
// for identical (ts, val) pairs, giving at-least-once MSet delivery a
// safe landing.
func (s *Store) Install(object string, ts clock.Timestamp, val op.Value) {
	st := s.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c, found := st.objs[object]
	if !found || !ts.Less(c.head.TS) {
		st.installMonotone(object, c, found, ts, val)
		return
	}
	i := sort.Search(len(c.below), func(i int) bool { return !c.below[i].TS.Less(ts) })
	if i < len(c.below) && c.below[i].TS == ts {
		c.below[i].Val = val.Clone()
		return
	}
	c.below = append(c.below, Version{})
	copy(c.below[i+1:], c.below[i:])
	c.below[i] = Version{TS: ts, Val: val.Clone()}
	st.objs[object] = c
}

// InstallMonotone records the latest applied value for the object.  If
// the chain's newest version is already at or past ts — methods that
// apply out of timestamp order (commutative, compensation) produce this
// — the value replaces that newest version instead of landing mid-chain,
// so the chain head always holds the replica's latest applied state and
// every version value is a real past state of the replica.  Snapshot
// reads depend on both properties.
func (s *Store) InstallMonotone(object string, ts clock.Timestamp, val op.Value) {
	st := s.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c, found := st.objs[object]
	st.installMonotone(object, c, found, ts, val)
}

// installMonotone is InstallMonotone's rule on the object's chain c
// (found: the object has one); the caller holds st.mu.  The installed
// value is a clone, so a new version never shares a list backing array
// with the version below it.
func (st *chainStripe) installMonotone(object string, c chain, found bool, ts clock.Timestamp, val op.Value) {
	v := Version{TS: ts, Val: val.Clone()}
	switch {
	case !found:
		c.head = v
	case !c.head.TS.Less(ts):
		c.head.Val = v.Val
	default:
		c.below = append(c.below, c.head)
		c.head = v
	}
	st.objs[object] = c
}

// Delete removes the version with the given timestamp, if present, and
// reports whether it did.  This is the other compensation mechanism of
// §4.2 ("deleting the version").  An object whose last version goes
// stops existing.
func (s *Store) Delete(object string, ts clock.Timestamp) bool {
	st := s.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c, found := st.objs[object]
	switch {
	case !found:
		return false
	case c.head.TS == ts && len(c.below) == 0:
		delete(st.objs, object)
		return true
	case c.head.TS == ts:
		c.head = c.below[len(c.below)-1]
		c.below = c.below[:len(c.below)-1]
	default:
		i := sort.Search(len(c.below), func(i int) bool { return !c.below[i].TS.Less(ts) })
		if i == len(c.below) || c.below[i].TS != ts {
			return false
		}
		c.below = append(c.below[:i], c.below[i+1:]...)
	}
	st.objs[object] = c
	return true
}

// SetVTNC advances the visible transaction number counter.  The VTNC
// never moves backwards; attempts to lower it are ignored.
func (s *Store) SetVTNC(ts clock.Timestamp) {
	s.vtncMu.Lock()
	defer s.vtncMu.Unlock()
	if s.vtnc.Less(ts) {
		s.vtnc = ts
	}
}

// VTNC returns the current visible transaction number counter.
func (s *Store) VTNC() clock.Timestamp {
	s.vtncMu.RLock()
	defer s.vtncMu.RUnlock()
	return s.vtnc
}

// ReadVisible returns the newest version at or below the VTNC.  ok is
// false if the object has no such version.  Reads through ReadVisible are
// serializable (§3.3: the VTNC "produces SR queries").
func (s *Store) ReadVisible(object string) (Version, bool) {
	return s.ReadAt(object, s.VTNC())
}

// ReadAt returns the newest version at or below the given timestamp;
// ReadAt(object, clock.Latest) is the chain head.
func (s *Store) ReadAt(object string, ts clock.Timestamp) (Version, bool) {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	c, found := st.objs[object]
	if !found {
		return Version{}, false
	}
	v, ok := c.at(ts)
	v.Val = v.Val.Clone()
	return v, ok
}

// ReadLatest returns the newest version of the object regardless of the
// VTNC, along with beyond=true when that version is newer than the VTNC —
// i.e. when reading it would cost the query one unit of inconsistency.
func (s *Store) ReadLatest(object string) (v Version, beyond, ok bool) {
	v, ok = s.ReadAt(object, clock.Latest)
	return v, ok && s.VTNC().Less(v.TS), ok
}

// Versions returns a copy of the object's full version chain, oldest
// first.
func (s *Store) Versions(object string) []Version {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	c, found := st.objs[object]
	if !found {
		return []Version{}
	}
	out := make([]Version, 0, len(c.below)+1)
	for _, v := range c.below {
		out = append(out, Version{TS: v.TS, Val: v.Val.Clone()})
	}
	return append(out, Version{TS: c.head.TS, Val: c.head.Val.Clone()})
}

// Objects returns the names of all objects with at least one version, in
// sorted order.
func (s *Store) Objects() []string {
	var out []string
	s.forEachStripe(func(st *chainStripe) {
		st.mu.RLock()
		for k := range st.objs {
			out = append(out, k)
		}
		st.mu.RUnlock()
	})
	sort.Strings(out)
	return out
}

// Snapshot returns a deep copy of every object's current value (its
// chain head).
func (s *Store) Snapshot() map[string]op.Value {
	out := make(map[string]op.Value)
	s.forEachStripe(func(st *chainStripe) {
		st.mu.RLock()
		for k, c := range st.objs {
			out[k] = c.head.Val.Clone()
		}
		st.mu.RUnlock()
	})
	return out
}

// Pin registers a snapshot reader at the timestamp and returns a handle
// the reader releases with Unpin when its read completes.  While a pin
// at ts is live, GC never discards the version chain state a ReadAt(ts)
// needs: the effective GC horizon is clamped to the oldest live pin.
func (s *Store) Pin(ts clock.Timestamp) uint64 {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	s.nextPin++
	h := s.nextPin
	s.pins[h] = ts
	return h
}

// Unpin releases a snapshot pin.  Unknown handles are ignored (Unpin is
// idempotent).
func (s *Store) Unpin(h uint64) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	delete(s.pins, h)
}

// Pins reports the number of live snapshot pins.
func (s *Store) Pins() int {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return len(s.pins)
}

// GC discards all versions strictly older than the newest version at or
// below the horizon, per object.  The newest version ≤ horizon must be
// kept because it remains readable.  Live snapshot pins clamp the
// horizon: a pinned reader at an older timestamp keeps every version it
// could observe.  GC holds the pin table for its whole run, so a Pin
// taken meanwhile waits for it instead of going unseen by a collection
// already in flight.  It returns the number of versions collected.
func (s *Store) GC(horizon clock.Timestamp) int {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	for _, pin := range s.pins {
		if pin.Less(horizon) {
			horizon = pin
		}
	}
	var n int
	s.forEachStripe(func(st *chainStripe) {
		st.mu.Lock()
		for obj, c := range st.objs {
			// Keep the newest version ≤ horizon and everything above it.
			keep := len(c.below)
			if horizon.Less(c.head.TS) {
				keep = sort.Search(len(c.below), func(i int) bool { return horizon.Less(c.below[i].TS) }) - 1
			}
			if keep > 0 {
				n += keep
				c.below = append([]Version(nil), c.below[keep:]...)
				st.objs[obj] = c
			}
		}
		st.mu.Unlock()
	})
	return n
}
