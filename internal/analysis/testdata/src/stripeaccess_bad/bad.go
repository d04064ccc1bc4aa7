// Package stripeaccess_bad violates rule A7: code that indexes the
// striped store's stripe array by hand, duplicating the hash-to-stripe
// mapping the accessors single-source.
package stripeaccess_bad

import "sync"

// Store mirrors the striped store: objects hash to stripes, each with
// its own mutex and version chains.
type Store struct {
	stripes []*chainStripe
}

// MVStore is the store under an older name; an alias changes nothing.
type MVStore = Store

type chainStripe struct {
	mu   sync.RWMutex
	objs map[string][]int64
}

// NewStore builds the stripe array — constructors are allowlisted.
func NewStore(n int) *Store {
	s := &Store{stripes: make([]*chainStripe, n)}
	for i := range s.stripes {
		s.stripes[i] = &chainStripe{objs: make(map[string][]int64)}
	}
	return s
}

// stripe is the accessor readLatest should have used.
func (s *Store) stripe(object string) *chainStripe {
	h := uint32(2166136261)
	for i := 0; i < len(object); i++ {
		h ^= uint32(object[i])
		h *= 16777619
	}
	return s.stripes[int(h%uint32(len(s.stripes)))]
}

// readLatest resolves the stripe by hand with a different hash than the
// accessor: reads and writes of the same object land on different
// stripes.
func readLatest(s *Store, object string) int64 {
	st := s.stripes[len(object)%len(s.stripes)] // want A7 A7
	st.mu.RLock()
	defer st.mu.RUnlock()
	versions := st.objs[object]
	if len(versions) == 0 {
		return 0
	}
	return versions[len(versions)-1]
}

// countVersions ranges the field directly instead of going through
// forEachStripe, reaching the store through its alias.
func countVersions(m *MVStore) int {
	n := 0
	for _, st := range m.stripes { // want A7
		st.mu.RLock()
		for _, vs := range st.objs {
			n += len(vs)
		}
		st.mu.RUnlock()
	}
	return n
}
