// Package storage provides the per-site object stores used by the replica
// layer.
//
// Store is a single-version store with optional timestamped overwrite
// semantics (the Thomas write rule RITU's single-version mode needs,
// §3.3: "An RITU update trying to overwrite a newer version is ignored").
// MVStore is a multi-version store with a visible transaction number
// counter (VTNC) after the Modular Synchronization Method the paper cites
// for RITU's multi-version mode: versions at or below the VTNC are stable
// and yield serializable reads; versions above it are visible only to
// queries willing to pay inconsistency for freshness.
//
// Both stores shard their object maps into per-object stripes (fnv-hash
// of the object name), each guarded by its own RWMutex, so the parallel
// apply scheduler's workers touching different objects never contend on
// a global store lock.  All access goes through the stripe accessor;
// esrvet rule A7 flags code that reaches into the stripe slices
// directly.
package storage

import (
	"sort"
	"sync"

	"esr/internal/clock"
	"esr/internal/op"
)

// defaultStripes is the stripe count for both store kinds.  Sixteen
// keeps per-stripe maps small while making same-stripe collisions between
// objects that parallel apply groups touch rare.
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

// Store is a single-version object store.  The zero value is not usable;
// call NewStore.  It is safe for concurrent use.
type Store struct {
	stripes []*storeStripe
}

// storeStripe holds the cells for the objects hashing to one stripe.
type storeStripe struct {
	mu    sync.RWMutex
	cells map[string]cell
}

type cell struct {
	val     op.Value
	writeTS clock.Timestamp // timestamp of the last timestamped write
}

// NewStore returns an empty store.  Objects spring into existence with
// the zero value on first access.
func NewStore() *Store {
	s := &Store{stripes: make([]*storeStripe, defaultStripes)}
	for i := range s.stripes {
		s.stripes[i] = &storeStripe{cells: make(map[string]cell)}
	}
	return s
}

// stripe is the accessor every method resolves objects through (A7).
func (s *Store) stripe(object string) *storeStripe {
	return s.stripes[stripeIndex(object, len(s.stripes))]
}

// forEachStripe visits every stripe in slot order (whole-store scans).
func (s *Store) forEachStripe(f func(*storeStripe)) {
	for _, st := range s.stripes {
		f(st)
	}
}

// Get returns the current value of the object (zero Value if never
// written).
func (s *Store) Get(object string) op.Value {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.cells[object].val.Clone()
}

// Has reports whether the object has ever been written in this store.
// Read paths use it to tell a genuine zero value from an object whose
// state lives only in a multi-version side store.
func (s *Store) Has(object string) bool {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	_, ok := st.cells[object]
	return ok
}

// Apply applies the operation to its object and returns the new value.
// Read returns the current value unchanged.
func (s *Store) Apply(o op.Op) op.Value {
	if o.Kind == op.Read {
		return s.Get(o.Object)
	}
	st := s.stripe(o.Object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.cells[o.Object]
	c.val = op.ApplyFull(o, c.val)
	st.cells[o.Object] = c
	return c.val.Clone()
}

// ApplyTimestamped applies a timestamped blind write under the Thomas
// write rule: the write takes effect only if its timestamp is newer than
// the object's last write timestamp.  It reports whether the write was
// applied (false means it was ignored as stale).  Non-Write operations
// are applied unconditionally, like Apply.
func (s *Store) ApplyTimestamped(o op.Op) bool {
	if o.Kind == op.Read {
		return true
	}
	st := s.stripe(o.Object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.cells[o.Object]
	if o.Kind == op.Write && !o.TS.IsZero() {
		if !c.writeTS.Less(o.TS) {
			return false // stale write: ignore (Thomas write rule)
		}
		c.writeTS = o.TS
	}
	c.val = op.ApplyFull(o, c.val)
	st.cells[o.Object] = c
	return true
}

// SetVersioned installs a full value under a version number with
// last-writer-wins semantics: the write takes effect only if version is
// strictly newer than the object's current version.  Quorum voting
// (weighted voting baselines) uses it to install version-stamped copies.
func (s *Store) SetVersioned(object string, v op.Value, version uint64) bool {
	st := s.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.cells[object]
	if c.writeTS.Time >= version {
		return false
	}
	c.writeTS = clock.Timestamp{Time: version}
	c.val = v.Clone()
	st.cells[object] = c
	return true
}

// Version returns the object's current version number as installed by
// SetVersioned (0 if never versioned).
func (s *Store) Version(object string) uint64 {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.cells[object].writeTS.Time
}

// WriteTS returns the timestamp of the last applied timestamped write to
// the object (zero if none).
func (s *Store) WriteTS(object string) clock.Timestamp {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.cells[object].writeTS
}

// Objects returns the names of all objects that have been written, in
// sorted order.
func (s *Store) Objects() []string {
	var out []string
	s.forEachStripe(func(st *storeStripe) {
		st.mu.RLock()
		for k := range st.cells {
			out = append(out, k)
		}
		st.mu.RUnlock()
	})
	sort.Strings(out)
	return out
}

// Snapshot returns a deep copy of the store's contents.
func (s *Store) Snapshot() map[string]op.Value {
	out := make(map[string]op.Value)
	s.forEachStripe(func(st *storeStripe) {
		st.mu.RLock()
		for k, c := range st.cells {
			out[k] = c.val.Clone()
		}
		st.mu.RUnlock()
	})
	return out
}

// Version is one committed version of an object in an MVStore.
type Version struct {
	// TS is the version's timestamp; versions of an object are totally
	// ordered by TS.
	TS clock.Timestamp
	// Val is the full object value as of this version.
	Val op.Value
}

// MVStore is a multi-version object store with VTNC visibility control.
// It is safe for concurrent use.  Version chains are sharded into
// per-object stripes like Store; the VTNC is store-global and has its
// own lock.
type MVStore struct {
	stripes []*mvStripe

	vtncMu sync.RWMutex
	vtnc   clock.Timestamp

	pinMu   sync.Mutex
	pins    map[uint64]clock.Timestamp // live snapshot pins, by handle
	nextPin uint64
}

// mvStripe holds the version chains for the objects hashing to one
// stripe.
type mvStripe struct {
	mu   sync.RWMutex
	objs map[string][]Version // sorted ascending by TS
}

// NewMVStore returns an empty multi-version store with a zero VTNC.
func NewMVStore() *MVStore {
	m := &MVStore{stripes: make([]*mvStripe, defaultStripes), pins: make(map[uint64]clock.Timestamp)}
	for i := range m.stripes {
		m.stripes[i] = &mvStripe{objs: make(map[string][]Version)}
	}
	return m
}

// stripe is the accessor every method resolves objects through (A7).
func (m *MVStore) stripe(object string) *mvStripe {
	return m.stripes[stripeIndex(object, len(m.stripes))]
}

// forEachStripe visits every stripe in slot order (whole-store scans).
func (m *MVStore) forEachStripe(f func(*mvStripe)) {
	for _, st := range m.stripes {
		f(st)
	}
}

// Install inserts a version.  Installing a version with a timestamp the
// object already has replaces that version's value — which is exactly the
// compensation mechanism §4.2 describes: "adding another version with the
// same timestamp but bearing the previous value".  Install is idempotent
// for identical (ts, val) pairs, giving at-least-once MSet delivery a
// safe landing.
func (m *MVStore) Install(object string, ts clock.Timestamp, val op.Value) {
	st := m.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	vs := st.objs[object]
	i := sort.Search(len(vs), func(i int) bool { return !vs[i].TS.Less(ts) })
	if i < len(vs) && vs[i].TS == ts {
		vs[i].Val = val.Clone()
		st.objs[object] = vs
		return
	}
	vs = append(vs, Version{})
	copy(vs[i+1:], vs[i:])
	vs[i] = Version{TS: ts, Val: val.Clone()}
	st.objs[object] = vs
}

// InstallMonotone records the latest applied value for the object.  If
// the chain's newest version is already at or past ts — methods that
// apply out of timestamp order (commutative, compensation) produce this
// — the value replaces that newest version instead of landing mid-chain,
// so the chain head always holds the replica's latest applied state and
// every version value is a real past state of the replica.  Snapshot
// reads depend on both properties.
func (m *MVStore) InstallMonotone(object string, ts clock.Timestamp, val op.Value) {
	st := m.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	vs := st.objs[object]
	if n := len(vs); n > 0 && !vs[n-1].TS.Less(ts) {
		vs[n-1].Val = val.Clone()
		st.objs[object] = vs
		return
	}
	st.objs[object] = append(vs, Version{TS: ts, Val: val.Clone()})
}

// Delete removes the version with the given timestamp, if present, and
// reports whether it did.  This is the other compensation mechanism of
// §4.2 ("deleting the version").
func (m *MVStore) Delete(object string, ts clock.Timestamp) bool {
	st := m.stripe(object)
	st.mu.Lock()
	defer st.mu.Unlock()
	vs := st.objs[object]
	for i, v := range vs {
		if v.TS == ts {
			st.objs[object] = append(vs[:i], vs[i+1:]...)
			return true
		}
	}
	return false
}

// SetVTNC advances the visible transaction number counter.  The VTNC
// never moves backwards; attempts to lower it are ignored.
func (m *MVStore) SetVTNC(ts clock.Timestamp) {
	m.vtncMu.Lock()
	defer m.vtncMu.Unlock()
	if m.vtnc.Less(ts) {
		m.vtnc = ts
	}
}

// VTNC returns the current visible transaction number counter.
func (m *MVStore) VTNC() clock.Timestamp {
	m.vtncMu.RLock()
	defer m.vtncMu.RUnlock()
	return m.vtnc
}

// ReadVisible returns the newest version at or below the VTNC.  ok is
// false if the object has no such version.  Reads through ReadVisible are
// serializable (§3.3: the VTNC "produces SR queries").
func (m *MVStore) ReadVisible(object string) (Version, bool) {
	vtnc := m.VTNC()
	st := m.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return latestAtOrBelow(st.objs[object], vtnc)
}

// ReadAt returns the newest version at or below the given timestamp.
func (m *MVStore) ReadAt(object string, ts clock.Timestamp) (Version, bool) {
	st := m.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return latestAtOrBelow(st.objs[object], ts)
}

// ReadLatest returns the newest version of the object regardless of the
// VTNC, along with beyond=true when that version is newer than the VTNC —
// i.e. when reading it would cost the query one unit of inconsistency.
func (m *MVStore) ReadLatest(object string) (v Version, beyond, ok bool) {
	vtnc := m.VTNC()
	st := m.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	vs := st.objs[object]
	if len(vs) == 0 {
		return Version{}, false, false
	}
	v = vs[len(vs)-1]
	v.Val = v.Val.Clone()
	return v, vtnc.Less(v.TS), true
}

// Versions returns a copy of the object's full version chain, oldest
// first.
func (m *MVStore) Versions(object string) []Version {
	st := m.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	vs := st.objs[object]
	out := make([]Version, len(vs))
	for i, v := range vs {
		out[i] = Version{TS: v.TS, Val: v.Val.Clone()}
	}
	return out
}

// Objects returns the names of all objects with at least one version, in
// sorted order.
func (m *MVStore) Objects() []string {
	var out []string
	m.forEachStripe(func(st *mvStripe) {
		st.mu.RLock()
		for k := range st.objs {
			out = append(out, k)
		}
		st.mu.RUnlock()
	})
	sort.Strings(out)
	return out
}

// Pin registers a snapshot reader at the timestamp and returns a handle
// the reader releases with Unpin when its read completes.  While a pin
// at ts is live, GC never discards the version chain state a ReadAt(ts)
// needs: the effective GC horizon is clamped to the oldest live pin.
func (m *MVStore) Pin(ts clock.Timestamp) uint64 {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	m.nextPin++
	h := m.nextPin
	m.pins[h] = ts
	return h
}

// Unpin releases a snapshot pin.  Unknown handles are ignored (Unpin is
// idempotent).
func (m *MVStore) Unpin(h uint64) {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	delete(m.pins, h)
}

// Pins reports the number of live snapshot pins.
func (m *MVStore) Pins() int {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	return len(m.pins)
}

// minPin returns the oldest live pin timestamp, ok=false if none.
func (m *MVStore) minPin() (clock.Timestamp, bool) {
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	var min clock.Timestamp
	found := false
	for _, ts := range m.pins {
		if !found || ts.Less(min) {
			min, found = ts, true
		}
	}
	return min, found
}

// GC discards all versions strictly older than the newest version at or
// below the horizon, per object.  The newest version ≤ horizon must be
// kept because it remains readable.  Live snapshot pins clamp the
// horizon: a pinned reader at an older timestamp keeps every version it
// could observe.  It returns the number of versions collected.
func (m *MVStore) GC(horizon clock.Timestamp) int {
	if pin, ok := m.minPin(); ok && pin.Less(horizon) {
		horizon = pin
	}
	var n int
	m.forEachStripe(func(st *mvStripe) {
		st.mu.Lock()
		for obj, vs := range st.objs {
			// Index of newest version ≤ horizon.
			keep := -1
			for i, v := range vs {
				if !horizon.Less(v.TS) {
					keep = i
				} else {
					break
				}
			}
			if keep > 0 {
				n += keep
				st.objs[obj] = append([]Version(nil), vs[keep:]...)
			}
		}
		st.mu.Unlock()
	})
	return n
}

func latestAtOrBelow(vs []Version, ts clock.Timestamp) (Version, bool) {
	// Versions are sorted ascending; find the last with TS <= ts.
	i := sort.Search(len(vs), func(i int) bool { return ts.Less(vs[i].TS) })
	if i == 0 {
		return Version{}, false
	}
	v := vs[i-1]
	v.Val = v.Val.Clone()
	return v, true
}
