package storage

import (
	"sync"
	"testing"
	"testing/quick"

	"esr/internal/clock"
	"esr/internal/op"
)

func ts(t uint64, s int) clock.Timestamp {
	return clock.Timestamp{Time: t, Site: clock.SiteID(s)}
}

func TestStoreGetZeroValue(t *testing.T) {
	s := NewStore()
	if got := s.Get("nope"); !got.Equal(op.Value{}) {
		t.Errorf("Get(missing) = %v, want zero", got)
	}
}

func TestStoreApply(t *testing.T) {
	s := NewStore()
	s.Apply(op.WriteOp("x", 10))
	s.Apply(op.IncOp("x", 5))
	if got := s.Get("x"); !got.Equal(op.NumValue(15)) {
		t.Errorf("x = %v, want 15", got)
	}
	if got := s.Apply(op.ReadOp("x")); !got.Equal(op.NumValue(15)) {
		t.Errorf("Apply(Read) = %v, want 15", got)
	}
}

func TestStoreApplyReturnsNewValue(t *testing.T) {
	s := NewStore()
	if got := s.Apply(op.IncOp("x", 3)); !got.Equal(op.NumValue(3)) {
		t.Errorf("Apply returned %v, want 3", got)
	}
}

// thomas installs a timestamped blind write under the Thomas write rule,
// the way RITU's single-version mode, WAL replay and merge do.
func thomas(s *Store, w op.Op) bool { return s.InstallNewer(w.Object, w.TS, op.NumValue(w.Arg)) }

func TestThomasWriteRule(t *testing.T) {
	s := NewStore()
	w1 := op.WriteOp("x", 1)
	w1.TS = ts(10, 1)
	w2 := op.WriteOp("x", 2)
	w2.TS = ts(5, 1) // older
	w3 := op.WriteOp("x", 3)
	w3.TS = ts(20, 1)

	if !thomas(s, w1) {
		t.Fatalf("first write must apply")
	}
	if thomas(s, w2) {
		t.Errorf("stale write must be ignored")
	}
	if got := s.Get("x"); !got.Equal(op.NumValue(1)) {
		t.Errorf("x = %v after stale write, want 1", got)
	}
	if thomas(s, w1) {
		t.Errorf("a write at the head's own timestamp must be ignored")
	}
	if !thomas(s, w3) {
		t.Errorf("newer write must apply")
	}
	if head, _ := s.ReadAt("x", clock.Latest); head.TS != ts(20, 1) || !head.Val.Equal(op.NumValue(3)) {
		t.Errorf("head = %v, want 3 at 20.1", head)
	}
	// An apply at a timestamp advances the head the Thomas rule compares
	// against: a blind write below it is stale.
	s.ApplyAt(op.IncOp("x", 1), ts(30, 2))
	w4 := op.WriteOp("x", 4)
	w4.TS = ts(25, 1)
	if thomas(s, w4) {
		t.Errorf("write below an applied version must be ignored")
	}
	if got := s.Get("x"); !got.Equal(op.NumValue(4)) {
		t.Errorf("x = %v, want 4 (3 + 1)", got)
	}
}

func TestThomasWriteRuleConvergence(t *testing.T) {
	// Blind timestamped writes applied in any order converge — the RITU
	// single-version claim (§3.3).
	writes := []op.Op{}
	for i := 1; i <= 6; i++ {
		w := op.WriteOp("x", int64(i*100))
		w.TS = ts(uint64(i), i%3)
		writes = append(writes, w)
	}
	perms := [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 5, 0, 3, 1, 4}}
	var vals []op.Value
	for _, p := range perms {
		s := NewStore()
		for _, i := range p {
			thomas(s, writes[i])
		}
		vals = append(vals, s.Get("x"))
	}
	for i := 1; i < len(vals); i++ {
		if !vals[0].Equal(vals[i]) {
			t.Fatalf("order %d diverged: %v vs %v", i, vals[0], vals[i])
		}
	}
	if !vals[0].Equal(op.NumValue(600)) {
		t.Errorf("converged value = %v, want 600 (newest write)", vals[0])
	}
}

func TestStoreSnapshotAndObjects(t *testing.T) {
	s := NewStore()
	s.Apply(op.WriteOp("b", 2))
	s.Apply(op.WriteOp("a", 1))
	objs := s.Objects()
	if len(objs) != 2 || objs[0] != "a" || objs[1] != "b" {
		t.Errorf("Objects = %v, want [a b]", objs)
	}
	snap := s.Snapshot()
	if !snap["a"].Equal(op.NumValue(1)) || !snap["b"].Equal(op.NumValue(2)) {
		t.Errorf("Snapshot = %v", snap)
	}
	// Snapshot must be a deep copy.
	s2 := NewStore()
	s2.Apply(op.AppendOp("l", "x"))
	snap2 := s2.Snapshot()
	snap2["l"].List[0] = "mutated"
	if got := s2.Get("l"); got.List[0] != "x" {
		t.Errorf("Snapshot aliases store state")
	}
}

func TestStoreConcurrentApply(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Apply(op.IncOp("x", 1))
			}
		}()
	}
	wg.Wait()
	if got := s.Get("x"); !got.Equal(op.NumValue(800)) {
		t.Errorf("x = %v, want 800", got)
	}
}

func TestMVInstallAndReadAt(t *testing.T) {
	m := NewStore()
	m.Install("x", ts(10, 1), op.NumValue(1))
	m.Install("x", ts(30, 1), op.NumValue(3))
	m.Install("x", ts(20, 1), op.NumValue(2)) // out of order

	tests := []struct {
		at     clock.Timestamp
		want   int64
		wantOK bool
	}{
		{ts(5, 1), 0, false},
		{ts(10, 1), 1, true},
		{ts(15, 1), 1, true},
		{ts(20, 1), 2, true},
		{ts(25, 9), 2, true},
		{ts(30, 1), 3, true},
		{ts(99, 1), 3, true},
	}
	for _, tt := range tests {
		v, ok := m.ReadAt("x", tt.at)
		if ok != tt.wantOK {
			t.Errorf("ReadAt(%v) ok = %v, want %v", tt.at, ok, tt.wantOK)
			continue
		}
		if ok && !v.Val.Equal(op.NumValue(tt.want)) {
			t.Errorf("ReadAt(%v) = %v, want %d", tt.at, v.Val, tt.want)
		}
	}
}

func TestMVVTNCVisibility(t *testing.T) {
	m := NewStore()
	m.Install("x", ts(10, 1), op.NumValue(1))
	m.Install("x", ts(20, 1), op.NumValue(2))
	m.SetVTNC(ts(15, 0))

	v, ok := m.ReadVisible("x")
	if !ok || !v.Val.Equal(op.NumValue(1)) {
		t.Errorf("ReadVisible = %v ok=%v, want version 1", v, ok)
	}
	latest, beyond, ok := m.ReadLatest("x")
	if !ok || !latest.Val.Equal(op.NumValue(2)) {
		t.Fatalf("ReadLatest = %v ok=%v", latest, ok)
	}
	if !beyond {
		t.Errorf("latest version is newer than VTNC; beyond must be true")
	}

	m.SetVTNC(ts(20, 1))
	_, beyond, _ = m.ReadLatest("x")
	if beyond {
		t.Errorf("after VTNC advance the latest version is visible; beyond must be false")
	}
}

func TestMVVTNCNeverRegresses(t *testing.T) {
	m := NewStore()
	m.SetVTNC(ts(20, 1))
	m.SetVTNC(ts(10, 1))
	if got := m.VTNC(); got != ts(20, 1) {
		t.Errorf("VTNC regressed to %v", got)
	}
}

func TestMVInstallSameTimestampReplaces(t *testing.T) {
	// Compensation by re-install: "adding another version with the same
	// timestamp but bearing the previous value" (§4.2).
	m := NewStore()
	m.Install("x", ts(10, 1), op.NumValue(1))
	m.Install("x", ts(10, 1), op.NumValue(99))
	vs := m.Versions("x")
	if len(vs) != 1 {
		t.Fatalf("expected a single version, got %d", len(vs))
	}
	if !vs[0].Val.Equal(op.NumValue(99)) {
		t.Errorf("version value = %v, want 99", vs[0].Val)
	}
}

func TestMVDelete(t *testing.T) {
	m := NewStore()
	m.Install("x", ts(10, 1), op.NumValue(1))
	m.Install("x", ts(20, 1), op.NumValue(2))
	if !m.Delete("x", ts(20, 1)) {
		t.Fatalf("Delete existing version must succeed")
	}
	if m.Delete("x", ts(20, 1)) {
		t.Errorf("Delete must be idempotent-false on missing version")
	}
	v, _, ok := m.ReadLatest("x")
	if !ok || !v.Val.Equal(op.NumValue(1)) {
		t.Errorf("after delete latest = %v, want 1", v)
	}
	// A version below the head goes without touching the head; the last
	// version's removal removes the object.
	m.Install("x", ts(30, 1), op.NumValue(3))
	if !m.Delete("x", ts(10, 1)) {
		t.Fatalf("Delete of a version below the head must succeed")
	}
	if vs := m.Versions("x"); len(vs) != 1 || vs[0].TS != ts(30, 1) {
		t.Errorf("versions after deleting below the head = %v, want only 30.1", vs)
	}
	if !m.Delete("x", ts(30, 1)) || len(m.Objects()) != 0 || !m.Get("x").Equal(op.Value{}) {
		t.Errorf("deleting the last version must remove the object: objects %v, x = %v", m.Objects(), m.Get("x"))
	}
}

func TestMVGC(t *testing.T) {
	m := NewStore()
	for i := uint64(1); i <= 5; i++ {
		m.Install("x", ts(i*10, 1), op.NumValue(int64(i)))
	}
	n := m.GC(ts(35, 0))
	if n != 2 {
		t.Errorf("GC collected %d, want 2 (versions 10,20; 30 stays readable)", n)
	}
	if v, ok := m.ReadAt("x", ts(35, 0)); !ok || !v.Val.Equal(op.NumValue(3)) {
		t.Errorf("newest version <= horizon must survive GC, got %v ok=%v", v, ok)
	}
	if len(m.Versions("x")) != 3 {
		t.Errorf("versions after GC = %d, want 3", len(m.Versions("x")))
	}
}

func TestMVObjects(t *testing.T) {
	m := NewStore()
	m.Install("b", ts(1, 0), op.NumValue(1))
	m.Install("a", ts(1, 0), op.NumValue(1))
	objs := m.Objects()
	if len(objs) != 2 || objs[0] != "a" || objs[1] != "b" {
		t.Errorf("Objects = %v", objs)
	}
}

func TestMVInstallOrderIndependence(t *testing.T) {
	// Installing the same version set in any order yields identical
	// chains — RITU multi-version convergence.
	type iv struct {
		T uint8
		V int8
	}
	f := func(items []iv, perm []int) bool {
		if len(items) == 0 {
			return true
		}
		m1, m2 := NewStore(), NewStore()
		for _, it := range items {
			m1.Install("x", ts(uint64(it.T)+1, 0), op.NumValue(int64(it.V)))
		}
		// Apply a permutation of items to m2.
		order := make([]iv, len(items))
		copy(order, items)
		for i := range order {
			j := 0
			if len(perm) > 0 {
				j = ((perm[i%len(perm)] % len(order)) + len(order)) % len(order)
			}
			order[i], order[j] = order[j], order[i]
		}
		for _, it := range order {
			m2.Install("x", ts(uint64(it.T)+1, 0), op.NumValue(int64(it.V)))
		}
		v1 := m1.Versions("x")
		v2 := m2.Versions("x")
		if len(v1) != len(v2) {
			return false
		}
		for i := range v1 {
			if v1[i].TS != v2[i].TS {
				return false
			}
			// Same-timestamp installs with different values are
			// last-writer-wins, so values may differ when the random
			// items collide on T with different V; only compare values
			// when each timestamp appears once.
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMVConcurrent(t *testing.T) {
	m := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.Install("x", ts(uint64(i+1), g), op.NumValue(int64(i)))
				m.ReadLatest("x")
				m.ReadVisible("x")
			}
		}(g)
	}
	wg.Wait()
	if got := len(m.Versions("x")); got != 400 {
		t.Errorf("versions = %d, want 400", got)
	}
}

func TestMVPinBlocksGC(t *testing.T) {
	m := NewStore()
	for i := uint64(1); i <= 5; i++ {
		m.Install("x", ts(i*10, 1), op.NumValue(int64(i)))
	}
	// A long-running snapshot reader pins ts=15 (sees version 10).
	pin := m.Pin(ts(15, 0))
	if n := m.GC(ts(50, 0)); n != 0 {
		t.Errorf("GC under pin at 15 collected %d versions, want 0", n)
	}
	if v, ok := m.ReadAt("x", ts(15, 0)); !ok || !v.Val.Equal(op.NumValue(1)) {
		t.Fatalf("pinned snapshot read observed a pruned version: %v ok=%v", v, ok)
	}
	// Release: the clamp lifts and the full horizon applies.
	m.Unpin(pin)
	if n := m.GC(ts(50, 1)); n != 4 {
		t.Errorf("GC after unpin collected %d, want 4", n)
	}
	if m.Pins() != 0 {
		t.Errorf("pins = %d after unpin, want 0", m.Pins())
	}
}

func TestMVPinLongRunningReaderNeverSeesPrunedVersion(t *testing.T) {
	m := NewStore()
	m.Install("x", ts(10, 1), op.NumValue(1))
	pin := m.Pin(ts(10, 1))
	defer m.Unpin(pin)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := uint64(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Install("x", ts(10*i, 1), op.NumValue(int64(i)))
			m.GC(ts(10*i, 1))
			i++
		}
	}()
	for i := 0; i < 1000; i++ {
		if v, ok := m.ReadAt("x", ts(10, 1)); !ok || !v.Val.Equal(op.NumValue(1)) {
			close(stop)
			wg.Wait()
			t.Fatalf("iteration %d: pinned reader observed pruned state: %v ok=%v", i, v, ok)
		}
	}
	close(stop)
	wg.Wait()
}

// refCell is one object of the single-value reference model: the value
// and the timestamp a Thomas write must beat.  An apply at a timestamp
// advances that timestamp the way it advances the chain head.
type refCell struct {
	val op.Value
	ts  clock.Timestamp
}

// refModel is the single-value store the version chain's heads must
// track.
type refModel map[string]refCell

func (m refModel) apply(o op.Op) {
	c := m[o.Object]
	c.val = op.ApplyFull(o, c.val)
	m[o.Object] = c
}

func (m refModel) applyAt(o op.Op, at clock.Timestamp) {
	c := m[o.Object]
	c.val = op.ApplyFull(o, c.val)
	if c.ts.Less(at) {
		c.ts = at
	}
	m[o.Object] = c
}

func (m refModel) thomas(obj string, at clock.Timestamp, v op.Value) bool {
	if c, ok := m[obj]; ok && !c.ts.Less(at) {
		return false
	}
	m[obj] = refCell{val: v, ts: at}
	return true
}

// step is one random store operation: Kind picks the call, Obj the
// object (two numeric, two list), TS and Arg its operands.
type step struct {
	Kind, Obj, TS uint8
	Arg           int8
}

var refObjects = []string{"n0", "n1", "l0", "l1"}

// stepOp draws an update op for the step's object: numeric objects take
// writes, increments and multiplies; list objects take appends and
// removals, so every apply of a list builds a fresh list value.
func stepOp(st step) op.Op {
	obj := refObjects[int(st.Obj)%len(refObjects)]
	el := string(rune('a' + int(st.TS)%3))
	switch {
	case obj[0] == 'l' && st.Arg%3 == 0:
		return op.Op{Kind: op.RemoveOne, Object: obj, Str: el}
	case obj[0] == 'l':
		return op.AppendOp(obj, el)
	case st.Arg%3 == 0:
		return op.WriteOp(obj, int64(st.Arg))
	case st.Arg%3 == 1:
		return op.MulOp(obj, 2)
	default:
		return op.IncOp(obj, int64(st.Arg))
	}
}

// scribble overwrites a returned list in place: if the store handed out
// its own backing array, a later read shows the damage.
func scribble(v op.Value) {
	for i := range v.List {
		v.List[i] = "scribbled"
	}
}

// pinnedRead is a value a pinned reader saw below the chain head; no
// later apply or GC may change it.
type pinnedRead struct {
	obj string
	at  clock.Timestamp
	val op.Value
}

// TestStoreMatchesReferenceModel runs random sequences of applies at the
// head, applies at a timestamp, Thomas writes, list appends, pins and GC.
// After every step each chain head must equal the single-value model, and
// every version a live pin read below a head must read the same again.
func TestStoreMatchesReferenceModel(t *testing.T) {
	f := func(steps []step) bool {
		s, model := NewStore(), refModel{}
		pins := map[uint64][]pinnedRead{}
		var handles []uint64
		for i, st := range steps {
			at := ts(uint64(st.TS%32), int(st.Obj%3))
			o := stepOp(st)
			switch st.Kind % 7 {
			case 0:
				scribble(s.Apply(o))
				model.apply(o)
			case 1, 2:
				scribble(s.ApplyAt(o, at))
				model.applyAt(o, at)
			case 3:
				if o.Kind != op.Write {
					o = op.WriteOp(refObjects[int(st.Obj)%2], int64(st.Arg))
				}
				v := op.NumValue(o.Arg)
				if got, want := s.InstallNewer(o.Object, at, v), model.thomas(o.Object, at, v); got != want {
					t.Logf("step %d: InstallNewer(%s, %v) = %v, model %v", i, o.Object, at, got, want)
					return false
				}
			case 4:
				h := s.Pin(at)
				handles = append(handles, h)
				for _, obj := range refObjects {
					v, ok := s.ReadAt(obj, at)
					if head, _ := s.ReadAt(obj, clock.Latest); ok && v.TS != head.TS {
						pins[h] = append(pins[h], pinnedRead{obj, at, v.Val})
					}
				}
			case 5:
				if len(handles) > 0 {
					k := int(st.Arg) & 0x7f % len(handles)
					s.Unpin(handles[k])
					delete(pins, handles[k])
					handles = append(handles[:k], handles[k+1:]...)
				}
			case 6:
				s.GC(at)
			}
			snap := s.Snapshot()
			if len(snap) != len(model) {
				t.Logf("step %d: %d objects, model %d", i, len(snap), len(model))
				return false
			}
			for obj, c := range model {
				got := s.Get(obj)
				if !got.Equal(c.val) || !snap[obj].Equal(c.val) {
					t.Logf("step %d (%+v): head %s = %v (snapshot %v), model %v", i, st, obj, got, snap[obj], c.val)
					return false
				}
				scribble(got)
				scribble(snap[obj])
			}
			for _, rs := range pins {
				for _, r := range rs {
					if v, ok := s.ReadAt(r.obj, r.at); !ok || !v.Val.Equal(r.val) {
						t.Logf("step %d: pinned ReadAt(%s, %v) = %v ok=%v, first read %v", i, r.obj, r.at, v.Val, ok, r.val)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestStoreConcurrentApplyReadGC runs parallel applies on distinct
// objects beside snapshot readers and GC; under -race it checks the
// stripe locking, and each reader's pinned view must stay fixed.
func TestStoreConcurrentApplyReadGC(t *testing.T) {
	s := NewStore()
	const writers, rounds = 4, 200
	objs := make([]string, writers)
	for w := range objs {
		objs[w] = string(rune('a' + w))
		s.ApplyAt(op.WriteOp(objs[w], 0), ts(1, 0))
	}
	var writing, reading sync.WaitGroup
	for _, obj := range objs {
		writing.Add(1)
		go func(obj string) {
			defer writing.Done()
			for i := 2; i <= rounds; i++ {
				s.ApplyAt(op.IncOp(obj, 1), ts(uint64(i), 0))
			}
		}(obj)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, obj := range objs {
					// Pin at or below the head: the writer only adds
					// versions above it, so the pinned view is fixed.
					head, _ := s.ReadAt(obj, clock.Latest)
					at := head.TS
					if back := uint64(i % 4); at.Time > back {
						at.Time -= back
					}
					h := s.Pin(at)
					v1, ok1 := s.ReadAt(obj, at)
					s.GC(ts(rounds, 0))
					if v2, ok2 := s.ReadAt(obj, at); ok1 != ok2 || !v1.Val.Equal(v2.Val) {
						t.Errorf("%s: pinned read at %v changed under GC: %v then %v", obj, at, v1.Val, v2.Val)
					}
					s.Unpin(h)
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	for _, obj := range objs {
		if got := s.Get(obj); got.Num != rounds-1 {
			t.Errorf("%s = %v, want %d", obj, got, rounds-1)
		}
	}
	if s.Pins() != 0 {
		t.Errorf("pins = %d after every reader unpinned, want 0", s.Pins())
	}
}

// BenchmarkApplyAt measures the write path's store call: an increment
// applied to the head and installed at a fresh timestamp.
func BenchmarkApplyAt(b *testing.B) {
	s := NewStore()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "k" + string(rune('a'+i%26)) + string(rune('a'+i/26%26))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ApplyAt(op.IncOp(keys[i%len(keys)], 1), ts(uint64(i+1), 1))
		if i%len(keys) == len(keys)-1 {
			s.GC(ts(uint64(i+1), 1))
		}
	}
}

// BenchmarkReadLatest measures a latest read: ReadAt at clock.Latest on
// an eight-version chain.
func BenchmarkReadLatest(b *testing.B) {
	s := NewStore()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "k" + string(rune('a'+i%26)) + string(rune('a'+i/26%26))
		for v := 1; v <= 8; v++ {
			s.ApplyAt(op.IncOp(keys[i], 1), ts(uint64(v), 1))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ReadAt(keys[i%len(keys)], clock.Latest)
	}
}
