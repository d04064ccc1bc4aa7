package et

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"esr/internal/clock"
	"esr/internal/op"
)

func TestMakeIDRoundTrip(t *testing.T) {
	f := func(site uint8, local uint32) bool {
		id := MakeID(clock.SiteID(site), uint64(local))
		return id.Origin() == clock.SiteID(site)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeIDUniqueAcrossSites(t *testing.T) {
	a := MakeID(1, 7)
	b := MakeID(2, 7)
	if a == b {
		t.Errorf("same local counter on different sites must differ")
	}
	if a.String() != "et1.7" {
		t.Errorf("String() = %q, want et1.7", a.String())
	}
}

func TestClassify(t *testing.T) {
	if got := Classify([]op.Op{op.ReadOp("x"), op.ReadOp("y")}); got != Query {
		t.Errorf("all-reads must classify as Query, got %v", got)
	}
	if got := Classify([]op.Op{op.ReadOp("x"), op.IncOp("y", 1)}); got != Update {
		t.Errorf("any update must classify as Update, got %v", got)
	}
	if got := Classify(nil); got != Query {
		t.Errorf("empty ET classifies as Query, got %v", got)
	}
}

// fullMSet sets every MSet and op.Op field to a non-zero value.
func fullMSet() MSet {
	return MSet{
		ET:     MakeID(3, 42),
		Origin: 3,
		Seq:    9,
		TS:     clock.Timestamp{Time: 5, Site: 3},
		Ops: []op.Op{
			op.IncOp("x", 10),
			op.AppendOp("log", "hello"),
			{Kind: op.Write, Object: "w", Arg: -7, Str: "s", TS: clock.Timestamp{Time: 1 << 40, Site: -2}},
		},
		SeqFloor:     8,
		Shard:        5,
		Compensation: true,
		Target:       MakeID(3, 41),
	}
}

func roundTrip(t *testing.T, m MSet) MSet {
	t.Helper()
	b, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(b) != cap(b) {
		t.Errorf("Encode returned len %d, cap %d: want an exact-size slice", len(b), cap(b))
	}
	got, err := DecodeMSet(b)
	if err != nil {
		t.Fatalf("DecodeMSet: %v", err)
	}
	return got
}

func TestMSetEncodeDecode(t *testing.T) {
	m := fullMSet()
	if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
	}
	if got := roundTrip(t, MSet{}); !reflect.DeepEqual(got, MSet{}) {
		t.Errorf("zero MSet round trip: %+v", got)
	}
}

func TestMSetEncodeDecodeQuick(t *testing.T) {
	f := func(et, seq, floor, target, tsTime uint64, origin, shard, tsSite int, comp bool,
		kinds []uint8, objs, strs []string, args []int64, opTimes []uint64, opSites []int) bool {
		m := MSet{ET: ID(et), Origin: clock.SiteID(origin), Seq: seq, SeqFloor: floor,
			Shard: shard, Compensation: comp, Target: ID(target),
			TS: clock.Timestamp{Time: tsTime, Site: clock.SiteID(tsSite)}}
		n := min(len(kinds), len(objs), len(strs), len(args), len(opTimes), len(opSites))
		for i := 0; i < n; i++ {
			m.Ops = append(m.Ops, op.Op{Kind: op.Kind(kinds[i] % uint8(op.RemoveOne+1)),
				Object: objs[i], Arg: args[i], Str: strs[i],
				TS: clock.Timestamp{Time: opTimes[i], Site: clock.SiteID(opSites[i])}})
		}
		return reflect.DeepEqual(roundTrip(t, m), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// incMSet is a commuting MSet of n one-object increments.
func incMSet(n int) MSet {
	m := MSet{ET: MakeID(2, 1000), Origin: 2, TS: clock.Timestamp{Time: 77, Site: 2}}
	for i := 0; i < n; i++ {
		m.Ops = append(m.Ops, op.IncOp(fmt.Sprintf("k%d", i), 1))
	}
	return m
}

func TestMSetCodecSizeAndAllocs(t *testing.T) {
	b1, _ := incMSet(1).Encode()
	if len(b1) > 48 {
		t.Errorf("1-op MSet encodes to %d B, want <= 48", len(b1))
	}
	m4 := incMSet(4)
	b4, _ := m4.Encode()
	if len(b4) > 96 {
		t.Errorf("4-op MSet encodes to %d B, want <= 96", len(b4))
	}
	if n := testing.AllocsPerRun(100, func() { m4.Encode() }); n > 1 {
		t.Errorf("Encode: %v allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeMSet(b4) }); n > 5 {
		t.Errorf("DecodeMSet of a 4-op MSet: %v allocs, want <= 5", n)
	}
}

func TestDecodeMSetGarbage(t *testing.T) {
	good, _ := fullMSet().Encode()
	bad := map[string][]byte{
		"empty":           nil,
		"gob-era bytes":   []byte("not our layout"),
		"trailing byte":   append(append([]byte(nil), good...), 0),
		"unknown flags":   func() []byte { b, _ := MSet{}.Encode(); b[len(b)-2] = 2; return b }(),
		"huge op count":   append(func() []byte { b, _ := MSet{}.Encode(); return b[:len(b)-1] }(), 0xff, 0xff, 0x7f),
		"unknown kind":    func() []byte { b, _ := MSet{Ops: []op.Op{{Kind: op.RemoveOne + 1}}}.Encode(); return b }(),
		"overlong string": func() []byte { b, _ := MSet{Ops: []op.Op{op.IncOp("x", 1)}}.Encode(); b[len(b)-6] = 9; return b }(),
	}
	for i := 1; i < len(good); i++ {
		bad[fmt.Sprintf("truncated to %d", i)] = good[:i]
	}
	for name, b := range bad {
		if m, err := DecodeMSet(b); err == nil {
			t.Errorf("%s: decoded %+v, want an error", name, m)
		}
	}
}

// FuzzMSetCodec checks the decoder on arbitrary bytes: it never panics,
// and whatever it accepts re-encodes and decodes back to an equal MSet.
func FuzzMSetCodec(f *testing.F) {
	for _, m := range []MSet{{}, fullMSet(), incMSet(1), incMSet(4)} {
		b, _ := m.Encode()
		f.Add(b)
	}
	f.Add([]byte{msetVersion})
	f.Add([]byte("not our layout"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMSet(b)
		if err != nil {
			return
		}
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("re-encoded MSet decodes differently:\n got %+v\nwant %+v", got, m)
		}
	})
}

func TestQueryResultValue(t *testing.T) {
	r := QueryResult{Values: map[string]op.Value{"x": op.NumValue(5)}}
	if got := r.Value("x"); !got.Equal(op.NumValue(5)) {
		t.Errorf("Value(x) = %v", got)
	}
	if got := r.Value("missing"); !got.Equal(op.Value{}) {
		t.Errorf("Value(missing) = %v, want zero", got)
	}
}
