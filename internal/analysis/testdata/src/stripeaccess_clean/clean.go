// Package stripeaccess_clean exercises every access idiom rule A7 must
// accept: the constructor building the stripe array, resolution through
// the stripe accessor, whole-store scans through forEachStripe, and the
// ignore directive for a deliberate direct read.
package stripeaccess_clean

import "sync"

// Store mirrors the striped store: objects hash to stripes, each with
// its own mutex and version chains.
type Store struct {
	stripes []*chainStripe
}

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

// stripe is the accessor every method resolves objects through.
func (s *Store) stripe(object string) *chainStripe {
	h := uint32(2166136261)
	for i := 0; i < len(object); i++ {
		h ^= uint32(object[i])
		h *= 16777619
	}
	return s.stripes[int(h%uint32(len(s.stripes)))]
}

// forEachStripe visits every stripe in slot order.
func (s *Store) forEachStripe(f func(*chainStripe)) {
	for _, st := range s.stripes {
		f(st)
	}
}

// get resolves through the accessor, the idiom A7 enforces, and reads
// the chain head.
func get(s *Store, object string) int64 {
	st := s.stripe(object)
	st.mu.RLock()
	defer st.mu.RUnlock()
	vs := st.objs[object]
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1]
}

// objects scans through forEachStripe rather than ranging the field.
func objects(s *Store) []string {
	var out []string
	s.forEachStripe(func(st *chainStripe) {
		st.mu.RLock()
		for obj := range st.objs {
			out = append(out, obj)
		}
		st.mu.RUnlock()
	})
	return out
}

// stripeCount documents a deliberate direct read with the ignore
// directive, the sanctioned escape hatch.
func stripeCount(s *Store) int {
	return len(s.stripes) //esrvet:ignore A7 stripe count only, no cell access
}
