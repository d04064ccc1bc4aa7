// Package op defines the operation model shared by every replica-control
// method in this reproduction.
//
// The paper's methods differ in which operations they admit: ORDUP accepts
// arbitrary read/write operations, COMMU restricts update MSets to
// commutative operations (increment, decrement, append, ...), RITU to
// read-independent "blind" timestamped writes, and COMPE requires every
// operation to carry a compensation (§4.1).  This package provides all of
// those operation kinds with deterministic apply semantics, an explicit
// commutativity relation, and compensation construction.
package op

import (
	"fmt"
	"slices"
	"strings"

	"esr/internal/clock"
)

// Kind enumerates the operation kinds supported by the system.
type Kind int

// Operation kinds.  Read is the only query operation; the remainder are
// update operations that may appear inside update MSets.
const (
	// Read reads the current value of an object.
	Read Kind = iota
	// Write overwrites an object with Arg (a numeric blind write when
	// timestamped per RITU, otherwise an ordinary read-dependent write).
	Write
	// Increment adds Arg to a numeric object.  Commutative.
	Increment
	// Decrement subtracts Arg from a numeric object.  Commutative.
	Decrement
	// Multiply multiplies a numeric object by Arg.  Commutes with other
	// multiplies but not with increments/decrements (the paper's §4.1
	// Inc/Mul example).
	Multiply
	// Append appends Str to a list object.  Commutes with numeric
	// operations on other objects but not with other appends to the same
	// object (order is observable), unless the application opts in via
	// UnorderedAppend.
	Append
	// UnorderedAppend appends Str to a set-like list object where element
	// order is not observable; commutative.
	UnorderedAppend
	// RemoveOne removes one occurrence of Str from a list object (no-op
	// if absent).  It is the value-independent compensation of
	// UnorderedAppend, so backward replica control can undo unordered
	// appends without recording prior values.
	RemoveOne
)

var kindNames = [...]string{
	Read:            "read",
	Write:           "write",
	Increment:       "inc",
	Decrement:       "dec",
	Multiply:        "mul",
	Append:          "append",
	UnorderedAppend: "uappend",
	RemoveOne:       "remove1",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// IsUpdate reports whether the kind mutates object state.
func (k Kind) IsUpdate() bool { return k != Read }

// ValueKind discriminates the two object value shapes.
type ValueKind int

const (
	// Numeric objects hold a single int64.
	Numeric ValueKind = iota
	// List objects hold an ordered sequence of strings.
	List
)

// Value is the state of one logical object.  The zero Value is a Numeric
// zero, which every operation accepts, so objects need no explicit
// initialization.
type Value struct {
	Kind ValueKind
	Num  int64
	List []string
}

// NumValue returns a numeric value.
func NumValue(n int64) Value { return Value{Kind: Numeric, Num: n} }

// ListValue returns a list value holding the given elements.
func ListValue(elems ...string) Value {
	return Value{Kind: List, List: append([]string(nil), elems...)}
}

// Equal reports whether two values are identical.  List values compare
// element-wise; for values produced only by UnorderedAppend callers should
// use EqualUnordered instead.
func (v Value) Equal(u Value) bool {
	if v.Kind != u.Kind {
		return false
	}
	if v.Kind == Numeric {
		return v.Num == u.Num
	}
	if len(v.List) != len(u.List) {
		return false
	}
	for i := range v.List {
		if v.List[i] != u.List[i] {
			return false
		}
	}
	return true
}

// EqualUnordered reports whether two values are equal treating lists as
// multisets.  It is the convergence predicate for objects updated through
// UnorderedAppend.
func (v Value) EqualUnordered(u Value) bool {
	if v.Kind != u.Kind {
		return false
	}
	if v.Kind == Numeric {
		return v.Num == u.Num
	}
	if len(v.List) != len(u.List) {
		return false
	}
	counts := make(map[string]int, len(v.List))
	for _, e := range v.List {
		counts[e]++
	}
	for _, e := range u.List {
		counts[e]--
		if counts[e] < 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the value.
func (v Value) Clone() Value {
	if v.Kind == List {
		v.List = append([]string(nil), v.List...)
	}
	return v
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.Kind == Numeric {
		return fmt.Sprintf("%d", v.Num)
	}
	return "[" + strings.Join(v.List, ",") + "]"
}

// Op is a single operation on one logical object.
type Op struct {
	// Kind is the operation kind.
	Kind Kind
	// Object names the logical object operated on.
	Object string
	// Arg is the numeric operand for Write/Increment/Decrement/Multiply.
	Arg int64
	// Str is the operand for Append/UnorderedAppend.
	Str string
	// TS is the version timestamp for RITU timestamped writes; zero for
	// operations that are not timestamped.
	TS clock.Timestamp
}

// Objects returns the distinct objects ops name, sorted.  Reads count
// only when reads is set: a read fences scheduling like an update, but it
// neither locks nor dirties an object.
func Objects(ops []Op, reads bool) []string {
	out := make([]string, 0, len(ops))
	for _, o := range ops {
		if reads || o.Kind != Read {
			out = append(out, o.Object)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ReadOp returns a read of object.
func ReadOp(object string) Op { return Op{Kind: Read, Object: object} }

// WriteOp returns a blind write of n to object.
func WriteOp(object string, n int64) Op { return Op{Kind: Write, Object: object, Arg: n} }

// IncOp returns an increment of object by n.
func IncOp(object string, n int64) Op { return Op{Kind: Increment, Object: object, Arg: n} }

// DecOp returns a decrement of object by n.
func DecOp(object string, n int64) Op { return Op{Kind: Decrement, Object: object, Arg: n} }

// MulOp returns a multiplication of object by n.
func MulOp(object string, n int64) Op { return Op{Kind: Multiply, Object: object, Arg: n} }

// AppendOp returns an ordered append of s to object.
func AppendOp(object, s string) Op { return Op{Kind: Append, Object: object, Str: s} }

// UAppendOp returns an unordered (set-like) append of s to object.
func UAppendOp(object, s string) Op { return Op{Kind: UnorderedAppend, Object: object, Str: s} }

// RemoveOneOp returns an operation removing one occurrence of s from
// object.
func RemoveOneOp(object, s string) Op { return Op{Kind: RemoveOne, Object: object, Str: s} }

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o.Kind {
	case Read:
		return fmt.Sprintf("R(%s)", o.Object)
	case Append, UnorderedAppend:
		return fmt.Sprintf("%s(%s,%q)", o.Kind, o.Object, o.Str)
	default:
		return fmt.Sprintf("%s(%s,%d)", o.Kind, o.Object, o.Arg)
	}
}

// Apply returns the value of the object after applying o to v.  Read
// returns v unchanged.  Apply never fails: the operation model is total so
// that replicas can always make progress on queued MSets.
func (o Op) Apply(v Value) Value {
	switch o.Kind {
	case Read:
		return v
	case Write:
		return NumValue(o.Arg)
	case Increment:
		v = v.Clone()
		v.Kind = Numeric
		v.Num += o.Arg
		return v
	case Decrement:
		v = v.Clone()
		v.Kind = Numeric
		v.Num -= o.Arg
		return v
	case Multiply:
		v = v.Clone()
		v.Kind = Numeric
		v.Num *= o.Arg
		return v
	case Append, UnorderedAppend:
		nv := Value{Kind: List, List: make([]string, 0, len(v.List)+1)}
		nv.List = append(nv.List, v.List...)
		nv.List = append(nv.List, o.Str)
		return nv
	case RemoveOne:
		nv := Value{Kind: List, List: make([]string, 0, len(v.List))}
		removed := false
		for _, e := range v.List {
			if !removed && e == o.Str {
				removed = true
				continue
			}
			nv.List = append(nv.List, e)
		}
		return nv
	default:
		return v
	}
}

// Commutes reports whether o and p commute: applying them in either order
// to any value yields the same final value.  Operations on distinct
// objects always commute.  Reads commute with reads.
//
// The relation is deliberately conservative for Multiply: Mul commutes
// with Mul (multiplication is commutative) but not with Inc/Dec/Write,
// reproducing the paper's Inc(x,10)·Mul(x,2) example (§4.1).
func (o Op) Commutes(p Op) bool {
	if o.Object != p.Object {
		return true
	}
	a, b := o.Kind, p.Kind
	if a == Read && b == Read {
		return true
	}
	if a == Read || b == Read {
		// A read does not commute with an update of the same object:
		// the read observes different states in the two orders.
		return false
	}
	switch {
	case a == Append || b == Append:
		// Ordered appends expose element order, so an append commutes
		// with no other update of the same object — not even another
		// append.  Order-insensitive callers opt into UnorderedAppend.
		return false
	case isAdditive(a) && isAdditive(b):
		return true
	case a == Multiply && b == Multiply:
		return true
	case a == UnorderedAppend && b == UnorderedAppend:
		return true
	case a == RemoveOne && b == RemoveOne:
		return true
	case (a == UnorderedAppend && b == RemoveOne) || (a == RemoveOne && b == UnorderedAppend):
		// Adding and removing commute on multisets only when they touch
		// different elements: remove(s)·add(s) differs from add(s)·
		// remove(s) when s was absent.
		return o.Str != p.Str
	case a == Write && b == Write:
		// Two blind writes do not commute in general (last writer
		// wins), unless they write the same value.
		return o.Arg == p.Arg
	default:
		return false
	}
}

func isAdditive(k Kind) bool { return k == Increment || k == Decrement }

// ReadIndependent reports whether the operation's effect is independent of
// the value it is applied to — the "blind write" property RITU requires
// (§3.3).  Write and the appends qualify; Increment/Decrement/Multiply
// read the prior value and do not.
func (o Op) ReadIndependent() bool {
	switch o.Kind {
	case Write, Append, UnorderedAppend:
		return true
	default:
		return false
	}
}

// Compensatable reports whether a compensation operation can be built for
// o.  Multiply by zero destroys information and cannot be compensated
// without the recorded prior value; Write likewise requires the prior
// value, which Compensate takes as an argument, so both report true here.
// Read has no effect and needs no compensation.
func (o Op) Compensatable() bool {
	if o.Kind == Read {
		return false
	}
	if o.Kind == Multiply && o.Arg == 0 {
		return false
	}
	return true
}

// Compensate returns the compensation operation that undoes o, given the
// value prev the object held immediately before o was applied.  The
// returned operation satisfies comp.Apply(o.Apply(prev)) == prev.
// It returns false if o cannot be compensated (Read, or Multiply by zero).
//
// For Write and Append the prior value is required (the paper notes that
// "in order to rollback RITU with overwrite we must also record the value
// being overwritten on the log", §4.2); for the self-inverting kinds
// (Inc/Dec/Mul) prev is ignored.
func (o Op) Compensate(prev Value) (Op, bool) {
	switch o.Kind {
	case Increment:
		return Op{Kind: Decrement, Object: o.Object, Arg: o.Arg}, true
	case Decrement:
		return Op{Kind: Increment, Object: o.Object, Arg: o.Arg}, true
	case Multiply:
		if o.Arg == 0 {
			return Op{}, false
		}
		// Integer division is the inverse only when the product is
		// exact, which holds along a rollback path because we divide
		// the very value the multiply produced.
		return Op{Kind: divideKind, Object: o.Object, Arg: o.Arg}, true
	case Write:
		return restoreOp(o.Object, prev), true
	case UnorderedAppend:
		// Value-independent inverse: remove the element we added.  This
		// keeps compensation MSets commutative, which is what lets COMMU
		// logs "simply apply the compensation without any overhead"
		//  (§4.2).
		return Op{Kind: RemoveOne, Object: o.Object, Str: o.Str}, true
	case Append, RemoveOne:
		return restoreOp(o.Object, prev), true
	default:
		return Op{}, false
	}
}

// divideKind and restore are internal operation kinds used only by
// compensation MSets; they are not part of the public workload vocabulary
// but replicas must be able to apply them.
const (
	divideKind Kind = iota + 100
	restoreNumKind
	restoreListKind
)

func restoreOp(object string, prev Value) Op {
	if prev.Kind == Numeric {
		return Op{Kind: restoreNumKind, Object: object, Arg: prev.Num}
	}
	return Op{Kind: restoreListKind, Object: object, Str: encodeList(prev.List)}
}

func encodeList(elems []string) string { return strings.Join(elems, "\x1f") }

func decodeList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\x1f")
}

// applyInternal extends Apply for the compensation-only kinds.
func applyInternal(o Op, v Value) (Value, bool) {
	switch o.Kind {
	case divideKind:
		v = v.Clone()
		v.Kind = Numeric
		if o.Arg != 0 {
			v.Num /= o.Arg
		}
		return v, true
	case restoreNumKind:
		return NumValue(o.Arg), true
	case restoreListKind:
		return Value{Kind: List, List: decodeList(o.Str)}, true
	default:
		return v, false
	}
}

// ApplyFull applies o including the internal compensation kinds.  Replica
// executors use ApplyFull; application code applying its own operations
// can use Apply.
func ApplyFull(o Op, v Value) Value {
	if nv, ok := applyInternal(o, v); ok {
		return nv
	}
	return o.Apply(v)
}

// IsCompensation reports whether o is one of the internal compensation
// kinds produced by Compensate.
func (o Op) IsCompensation() bool {
	switch o.Kind {
	case Decrement, Increment:
		// Additive compensations are indistinguishable from workload
		// increments/decrements; they are not flagged.
		return false
	case divideKind, restoreNumKind, restoreListKind:
		return true
	default:
		return false
	}
}
