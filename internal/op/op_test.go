package op

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestApplySemantics(t *testing.T) {
	tests := []struct {
		name string
		op   Op
		in   Value
		want Value
	}{
		{"write over zero", WriteOp("x", 7), Value{}, NumValue(7)},
		{"write over value", WriteOp("x", 7), NumValue(3), NumValue(7)},
		{"inc", IncOp("x", 5), NumValue(10), NumValue(15)},
		{"inc zero value", IncOp("x", 5), Value{}, NumValue(5)},
		{"dec", DecOp("x", 4), NumValue(10), NumValue(6)},
		{"mul", MulOp("x", 3), NumValue(10), NumValue(30)},
		{"mul by zero", MulOp("x", 0), NumValue(10), NumValue(0)},
		{"append to empty", AppendOp("x", "a"), Value{Kind: List}, ListValue("a")},
		{"append", AppendOp("x", "b"), ListValue("a"), ListValue("a", "b")},
		{"uappend", UAppendOp("x", "b"), ListValue("a"), ListValue("a", "b")},
		{"read is identity", ReadOp("x"), NumValue(42), NumValue(42)},
		{"remove one", RemoveOneOp("x", "a"), ListValue("a", "b", "a"), ListValue("b", "a")},
		{"remove absent is noop", RemoveOneOp("x", "z"), ListValue("a"), ListValue("a")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.op.Apply(tt.in); !got.Equal(tt.want) {
				t.Errorf("%v.Apply(%v) = %v, want %v", tt.op, tt.in, got, tt.want)
			}
		})
	}
}

func TestApplyDoesNotAliasListInput(t *testing.T) {
	in := ListValue("a")
	out := AppendOp("x", "b").Apply(in)
	out.List[0] = "mutated"
	if in.List[0] != "a" {
		t.Errorf("Apply aliased the input list: input became %v", in)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := ListValue("a", "b")
	c := v.Clone()
	c.List[0] = "z"
	if v.List[0] != "a" {
		t.Errorf("Clone shares backing array with original")
	}
}

func TestPaperIncMulExample(t *testing.T) {
	// §4.1: Inc(x,10) · Mul(x,2) · Dec(x,10) != Mul(x,2), but
	// Inc(x,10) · Mul(x,2) · Div(x,2) · Dec(x,10) · Mul(x,2) == Mul(x,2).
	start := NumValue(1)

	naive := DecOp("x", 10).Apply(MulOp("x", 2).Apply(IncOp("x", 10).Apply(start)))
	direct := MulOp("x", 2).Apply(start)
	if naive.Equal(direct) {
		t.Fatalf("naive compensation should NOT equal Mul alone: both %v", naive)
	}

	// Full rollback: undo Mul, undo Inc, redo Mul.
	v := IncOp("x", 10).Apply(start)
	v = MulOp("x", 2).Apply(v)
	div, ok := MulOp("x", 2).Compensate(Value{})
	if !ok {
		t.Fatalf("Mul(2) must be compensatable")
	}
	v = ApplyFull(div, v)
	dec, _ := IncOp("x", 10).Compensate(Value{})
	v = ApplyFull(dec, v)
	v = MulOp("x", 2).Apply(v)
	if !v.Equal(direct) {
		t.Errorf("full rollback+replay = %v, want %v", v, direct)
	}
}

func TestCommutesDistinctObjects(t *testing.T) {
	a := WriteOp("x", 1)
	b := WriteOp("y", 2)
	if !a.Commutes(b) {
		t.Errorf("operations on distinct objects must commute")
	}
}

func TestCommutesMatrix(t *testing.T) {
	tests := []struct {
		a, b Op
		want bool
	}{
		{IncOp("x", 1), IncOp("x", 2), true},
		{IncOp("x", 1), DecOp("x", 2), true},
		{DecOp("x", 1), DecOp("x", 2), true},
		{MulOp("x", 2), MulOp("x", 3), true},
		{IncOp("x", 1), MulOp("x", 2), false},
		{WriteOp("x", 1), IncOp("x", 1), false},
		{WriteOp("x", 1), WriteOp("x", 2), false},
		{WriteOp("x", 5), WriteOp("x", 5), true}, // same value
		{AppendOp("x", "a"), AppendOp("x", "b"), false},
		{UAppendOp("x", "a"), UAppendOp("x", "b"), true},
		{RemoveOneOp("x", "a"), RemoveOneOp("x", "b"), true},
		{UAppendOp("x", "a"), RemoveOneOp("x", "b"), true},
		{UAppendOp("x", "a"), RemoveOneOp("x", "a"), false},
		{ReadOp("x"), ReadOp("x"), true},
		{ReadOp("x"), IncOp("x", 1), false},
	}
	for _, tt := range tests {
		if got := tt.a.Commutes(tt.b); got != tt.want {
			t.Errorf("Commutes(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// commutesTable pins Op.Commutes on one object: row kind against column
// kind, for two operations with different arguments (Arg 2 and 3, Str
// "a" and "b").  Columns follow Kind order.  COMMU's Table 3 grants
// WU/WU compatibility exactly where this relation says true, so a kind
// added without a row here fails TestCommutesTable.
var commutesTable = map[Kind][8]bool{
	//               read   write  inc    dec    mul    append uappend remove1
	Read:            {true, false, false, false, false, false, false, false},
	Write:           {false, false, false, false, false, false, false, false},
	Increment:       {false, false, true, true, false, false, false, false},
	Decrement:       {false, false, true, true, false, false, false, false},
	Multiply:        {false, false, false, false, true, false, false, false},
	Append:          {false, false, false, false, false, false, false, false},
	UnorderedAppend: {false, false, false, false, false, false, true, true},
	RemoveOne:       {false, false, false, false, false, false, true, true},
}

func TestCommutesTable(t *testing.T) {
	if len(commutesTable) != len(kindNames) {
		t.Fatalf("commutesTable has %d rows, want one per kind (%d)", len(commutesTable), len(kindNames))
	}
	for a := range kindNames {
		row, ok := commutesTable[Kind(a)]
		if !ok {
			t.Fatalf("kind %v has no row in commutesTable", Kind(a))
		}
		for b := range kindNames {
			x := Op{Kind: Kind(a), Object: "x", Arg: 2, Str: "a"}
			y := Op{Kind: Kind(b), Object: "x", Arg: 3, Str: "b"}
			if got := x.Commutes(y); got != row[b] {
				t.Errorf("Commutes(%v, %v) = %v, want %v", x, y, got, row[b])
			}
		}
	}
}

// TestCompensateEveryUpdateKind: backward replica control can undo any
// committed update, so every update kind has an inverse.
func TestCompensateEveryUpdateKind(t *testing.T) {
	for k := range kindNames {
		o := Op{Kind: Kind(k), Object: "x", Arg: 2, Str: "a"}
		if !o.Kind.IsUpdate() {
			continue
		}
		if _, ok := o.Compensate(NumValue(7)); !ok {
			t.Errorf("Compensate(%v) is not ok", o)
		}
	}
}

func TestCommutesSymmetric(t *testing.T) {
	if err := quick.Check(func(s opSeed, u opSeed) bool {
		a, b := s.op(), u.op()
		return a.Commutes(b) == b.Commutes(a)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestCommutesSoundness is the key property: if Commutes says true, then
// applying the two operations in either order to a random value produces
// the same result.  (The relation may be conservative — false negatives
// are allowed — but never unsound.)
func TestCommutesSoundness(t *testing.T) {
	apply := func(st map[string]Value, o Op) {
		st[o.Object] = o.Apply(st[o.Object])
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(func(s, u opSeed, n int64) bool {
		a, b := s.op(), u.op()
		if !a.Commutes(b) {
			return true
		}
		for _, v := range []Value{NumValue(n), {}, ListValue("s0")} {
			ab := map[string]Value{"x": v.Clone(), "y": v.Clone()}
			ba := map[string]Value{"x": v.Clone(), "y": v.Clone()}
			apply(ab, a)
			apply(ab, b)
			apply(ba, b)
			apply(ba, a)
			for _, obj := range []string{"x", "y"} {
				eq := ab[obj].Equal(ba[obj])
				if a.Kind == UnorderedAppend || b.Kind == UnorderedAppend {
					eq = ab[obj].EqualUnordered(ba[obj])
				}
				if !eq {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// opSeed generates arbitrary operations for quick.Check via its Generate
// hook being unnecessary: quick fills the exported fields.
type opSeed struct {
	K   uint8
	Obj bool // two-object universe keeps same-object collisions frequent
	Arg int8
	S   uint8
}

func (s opSeed) op() Op {
	k := Kind(int(s.K) % len(kindNames))
	obj := "x"
	if s.Obj {
		obj = "y"
	}
	return Op{Kind: k, Object: obj, Arg: int64(s.Arg), Str: string(rune('a' + s.S%26))}
}

func TestCompensateInverts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(func(s opSeed, n int64) bool {
		o := s.op()
		for _, prev := range []Value{NumValue(n), {}, ListValue("e1", "e2")} {
			comp, ok := o.Compensate(prev)
			if !ok {
				continue
			}
			got := ApplyFull(comp, o.Apply(prev))
			if o.Kind == Multiply {
				// Integer Mul/Div only inverts exactly along the
				// rollback path, which it is here by construction,
				// except for overflow; skip overflowing products.
				if prev.Num != 0 && (prev.Num*o.Arg)/o.Arg != prev.Num {
					continue
				}
				// Mul coerces lists to numeric; compare numerically.
				if got.Kind == Numeric && prev.Kind == List {
					continue
				}
			}
			if o.Kind == Increment || o.Kind == Decrement || o.Kind == Multiply {
				// Additive/multiplicative ops coerce list values to
				// numeric, so only numeric prevs round-trip.
				if prev.Kind == List {
					continue
				}
			}
			if o.Kind == UnorderedAppend {
				// UAppend coerces numerics to lists, and its RemoveOne
				// inverse works on multisets.
				if prev.Kind != List {
					continue
				}
				if !got.EqualUnordered(prev) {
					return false
				}
				continue
			}
			if !got.Equal(prev) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestCompensateRefusals(t *testing.T) {
	if _, ok := ReadOp("x").Compensate(Value{}); ok {
		t.Errorf("Read must not be compensatable")
	}
	if _, ok := MulOp("x", 0).Compensate(Value{}); ok {
		t.Errorf("Mul by zero must not be compensatable")
	}
	if ReadOp("x").Compensatable() {
		t.Errorf("Compensatable(Read) = true")
	}
	if MulOp("x", 0).Compensatable() {
		t.Errorf("Compensatable(Mul 0) = true")
	}
	if !IncOp("x", 1).Compensatable() {
		t.Errorf("Compensatable(Inc) = false")
	}
}

func TestCompensationOpsApplyViaApplyFull(t *testing.T) {
	// Compensations of Write and Append restore the recorded prior value.
	prev := ListValue("a", "b")
	comp, ok := AppendOp("x", "c").Compensate(prev)
	if !ok {
		t.Fatalf("Append must be compensatable")
	}
	if !comp.IsCompensation() {
		t.Errorf("restore op must self-identify as compensation")
	}
	after := AppendOp("x", "c").Apply(prev)
	if got := ApplyFull(comp, after); !got.Equal(prev) {
		t.Errorf("restore = %v, want %v", got, prev)
	}

	prevNum := NumValue(9)
	comp2, _ := WriteOp("x", 1).Compensate(prevNum)
	if got := ApplyFull(comp2, NumValue(1)); !got.Equal(prevNum) {
		t.Errorf("numeric restore = %v, want %v", got, prevNum)
	}
}

func TestUAppendCompensationIsValueIndependent(t *testing.T) {
	// UnorderedAppend compensates to RemoveOne regardless of prev value,
	// and the pair round-trips on multisets.
	add := UAppendOp("x", "e")
	comp, ok := add.Compensate(ListValue("a", "b"))
	if !ok || comp.Kind != RemoveOne || comp.Str != "e" {
		t.Fatalf("Compensate(UAppend) = %v ok=%v, want RemoveOne(e)", comp, ok)
	}
	for _, prev := range []Value{ListValue(), ListValue("e"), ListValue("a", "e", "b")} {
		got := ApplyFull(comp, add.Apply(prev))
		if !got.EqualUnordered(prev) {
			t.Errorf("round trip from %v = %v", prev, got)
		}
	}
}

func TestReadIndependent(t *testing.T) {
	tests := []struct {
		op   Op
		want bool
	}{
		{WriteOp("x", 1), true},
		{AppendOp("x", "a"), true},
		{UAppendOp("x", "a"), true},
		{IncOp("x", 1), false},
		{MulOp("x", 2), false},
		{ReadOp("x"), false},
	}
	for _, tt := range tests {
		if got := tt.op.ReadIndependent(); got != tt.want {
			t.Errorf("ReadIndependent(%v) = %v, want %v", tt.op, got, tt.want)
		}
	}
}

func TestEqualUnordered(t *testing.T) {
	a := ListValue("x", "y", "z")
	b := ListValue("z", "x", "y")
	if !a.EqualUnordered(b) {
		t.Errorf("permuted lists must be EqualUnordered")
	}
	if a.Equal(b) {
		t.Errorf("permuted lists must not be Equal")
	}
	c := ListValue("x", "x", "y")
	d := ListValue("x", "y", "y")
	if c.EqualUnordered(d) {
		t.Errorf("different multisets must not be EqualUnordered")
	}
	if !NumValue(3).EqualUnordered(NumValue(3)) {
		t.Errorf("equal numerics must be EqualUnordered")
	}
	if NumValue(3).EqualUnordered(ListValue()) {
		t.Errorf("different kinds must not be EqualUnordered")
	}
}

func TestValueString(t *testing.T) {
	if got := NumValue(5).String(); got != "5" {
		t.Errorf("NumValue(5).String() = %q", got)
	}
	if got := ListValue("a", "b").String(); got != "[a,b]" {
		t.Errorf("ListValue.String() = %q", got)
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{ReadOp("x"), "R(x)"},
		{IncOp("x", 3), "inc(x,3)"},
		{AppendOp("x", "a"), `append(x,"a")`},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestIsUpdate(t *testing.T) {
	if Read.IsUpdate() {
		t.Errorf("Read must not be an update")
	}
	for _, k := range []Kind{Write, Increment, Decrement, Multiply, Append, UnorderedAppend} {
		if !k.IsUpdate() {
			t.Errorf("%v must be an update", k)
		}
	}
}

// TestCommutativeBatchOrderIndependence replays a random batch of
// commutative operations in two random orders and checks convergence —
// the foundation of COMMU (§3.2).
func TestCommutativeBatchOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		batch := make([]Op, n)
		for i := range batch {
			obj := []string{"x", "y"}[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				batch[i] = IncOp(obj, int64(rng.Intn(10)))
			} else {
				batch[i] = DecOp(obj, int64(rng.Intn(10)))
			}
		}
		perm := rng.Perm(n)
		v1, v2 := map[string]Value{}, map[string]Value{}
		for i := 0; i < n; i++ {
			o1, o2 := batch[i], batch[perm[i]]
			v1[o1.Object] = o1.Apply(v1[o1.Object])
			v2[o2.Object] = o2.Apply(v2[o2.Object])
		}
		for _, obj := range []string{"x", "y"} {
			if !v1[obj].Equal(v2[obj]) {
				t.Fatalf("trial %d: object %s diverged: %v vs %v", trial, obj, v1[obj], v2[obj])
			}
		}
	}
}
