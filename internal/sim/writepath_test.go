package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/commu"
	"esr/internal/compe"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/ordup"
	"esr/internal/ritu"
)

// writeCase is one engine configuration the write-path golden drives.
type writeCase struct {
	name string
	open func() (core.Engine, error)
	// upd builds the method's update op (blind writes for RITU).
	upd func(obj string, n int64) op.Op
	// rejects are ETs submitted after the first burst, one per admission
	// rule; each must fail as a whole.
	rejects [][][]op.Op
	// racy marks Lamport ordering: its heartbeats tick the clocks and
	// consume ET ids, so ids print relative to their burst and version
	// timestamps are omitted.
	racy bool
	want []string
}

// TestWritePathGolden pins what every method's write path does on a
// 3-site cluster with serial apply: the ids a burst returns, the
// sentinel each admission rule rejects with, the per-site applied
// tracking while site 3 is partitioned away (AppliedAt, Outstanding,
// lock-counters, numeric drift, VTNC, compensation risk), and every
// site's store and version chains after heal and quiescence.  The
// transcript is compared line by line against literals, so any change
// in how a method admits, stamps, tracks or applies an update shows up.
func TestWritePathGolden(t *testing.T) {
	net := network.Config{Seed: 1}
	kind := func(k EngineKind, opt Options) func() (core.Engine, error) {
		opt.ApplyWorkers = 1
		return func() (core.Engine, error) { return NewEngine(k, 3, net, opt) }
	}
	inc := func(obj string, n int64) op.Op { return op.IncOp(obj, n) }
	write := func(obj string, n int64) op.Op { return op.WriteOp(obj, n) }
	readOnly := [][]op.Op{{op.ReadOp("x")}}
	ordupRejects := [][][]op.Op{readOnly, {{op.ReadOp("x")}, {op.IncOp("x", 1)}}}
	rituRejects := [][][]op.Op{{{op.IncOp("x", 1)}}, readOnly, {{op.ReadOp("x"), op.IncOp("y", 1)}}, {{op.WriteOp("x", 1), op.IncOp("x", 1)}}}
	compeRejects := [][][]op.Op{readOnly, {{op.MulOp("x", 0)}}, {{op.ReadOp("x")}, {op.IncOp("x", 1)}}}
	cases := []writeCase{
		{name: "ordup", open: kind(ORDUPSeq, Options{}), upd: inc, rejects: ordupRejects,
			want: []string{
				"tracked=true",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[R(x)]]: ids=[] err=ordup.ErrNotUpdate",
				"reject [[R(x)] [inc(x,1)]]: ids=[] err=ordup.ErrNotUpdate",
				"b2: ids=[et1.4 et1.5] err=nil",
				"partitioned applied [et1.1]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.2]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.3]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.4]: 1=true 2=true 3=false all=false",
				"partitioned applied [et1.5]: 1=true 2=true 3=false all=false",
				"partitioned outstanding=2",
				"healed applied [et1.1]: 1=true 2=true 3=true all=true",
				"healed applied [et1.2]: 1=true 2=true 3=true all=true",
				"healed applied [et1.3]: 1=true 2=true 3=true all=true",
				"healed applied [et1.4]: 1=true 2=true 3=true all=true",
				"healed applied [et1.5]: 1=true 2=true 3=true all=true",
				"healed outstanding=0",
				"site1 store {x=14 y=22 z=34}",
				"site1 mv x: 1.1=1 2.1=4 7.1=14",
				"site1 mv y: 2.1=2 8.1=22",
				"site1 mv z: 3.1=4 8.1=34",
				"site2 store {x=14 y=22 z=34}",
				"site2 mv x: 1.1=1 2.1=4 7.1=14",
				"site2 mv y: 2.1=2 8.1=22",
				"site2 mv z: 3.1=4 8.1=34",
				"site3 store {x=14 y=22 z=34}",
				"site3 mv x: 1.1=1 2.1=4 7.1=14",
				"site3 mv y: 2.1=2 8.1=22",
				"site3 mv z: 3.1=4 8.1=34",
			}},
		{name: "ordup-lamport", open: kind(ORDUPLamport, Options{}), upd: inc, rejects: ordupRejects, racy: true,
			want: []string{
				"tracked=true",
				"b1: ids=[et1.+0 et1.+1 et1.+2] err=nil",
				"reject [[R(x)]]: ids=[] err=ordup.ErrNotUpdate",
				"reject [[R(x)] [inc(x,1)]]: ids=[] err=ordup.ErrNotUpdate",
				"b2: ids=[et1.+0 et1.+1] err=nil",
				"partitioned applied [et1.+0]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.+0]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.+0]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.+0]: 1=false 2=false 3=false all=false",
				"partitioned applied [et1.+0]: 1=false 2=false 3=false all=false",
				"partitioned outstanding=2",
				"healed applied [et1.+0]: 1=true 2=true 3=true all=true",
				"healed applied [et1.+0]: 1=true 2=true 3=true all=true",
				"healed applied [et1.+0]: 1=true 2=true 3=true all=true",
				"healed applied [et1.+0]: 1=true 2=true 3=true all=true",
				"healed applied [et1.+0]: 1=true 2=true 3=true all=true",
				"healed outstanding=0",
				"site1 store {x=14 y=22 z=34}",
				"site1 mv x: 1 4 14",
				"site1 mv y: 2 22",
				"site1 mv z: 4 34",
				"site2 store {x=14 y=22 z=34}",
				"site2 mv x: 1 4 14",
				"site2 mv y: 2 22",
				"site2 mv z: 4 34",
				"site3 store {x=14 y=22 z=34}",
				"site3 mv x: 1 4 14",
				"site3 mv y: 2 22",
				"site3 mv z: 4 34",
			}},
		{name: "ordup-shards2", open: kind(ORDUPSeq, Options{NumShards: 2}), upd: inc, rejects: ordupRejects,
			want: []string{
				"tracked=true",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[R(x)]]: ids=[] err=ordup.ErrNotUpdate",
				"reject [[R(x)] [inc(x,1)]]: ids=[] err=ordup.ErrNotUpdate",
				"b2: ids=[et1.4 et1.5] err=nil",
				"partitioned applied [et1.1]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.2]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.3]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.4]: 1=true 2=true 3=false all=false",
				"partitioned applied [et1.5]: 1=true 2=true 3=false all=false",
				"partitioned outstanding=2",
				"healed applied [et1.1]: 1=true 2=true 3=true all=true",
				"healed applied [et1.2]: 1=true 2=true 3=true all=true",
				"healed applied [et1.3]: 1=true 2=true 3=true all=true",
				"healed applied [et1.4]: 1=true 2=true 3=true all=true",
				"healed applied [et1.5]: 1=true 2=true 3=true all=true",
				"healed outstanding=0",
				"site1 store {x=14 y=22 z=34}",
				"site1 mv x: 1.1=1 2.1=4 8.1=14",
				"site1 mv y: 2.1=2 9.1=22",
				"site1 mv z: 3.1=4 9.1=34",
				"site2 store {x=14 y=22 z=34}",
				"site2 mv x: 1.1=1 2.1=4 8.1=14",
				"site2 mv y: 2.1=2 9.1=22",
				"site2 mv z: 3.1=4 9.1=34",
				"site3 store {x=14 y=22 z=34}",
				"site3 mv x: 1.1=1 2.1=4 8.1=14",
				"site3 mv y: 2.1=2 9.1=22",
				"site3 mv z: 3.1=4 9.1=34",
			}},
		{name: "commu-limit", open: func() (core.Engine, error) {
			return commu.New(commu.Config{Core: core.Config{Sites: 3, Net: net, ApplyWorkers: 1},
				CounterLimit: 1, ThrottleTimeout: 20 * time.Millisecond})
		}, upd: inc, rejects: [][][]op.Op{readOnly, {{op.WriteOp("x", 1)}}, {{op.MulOp("x", 2)}},
			{{op.IncOp("v", 1), op.MulOp("v", 2)}}, {{op.AppendOp("v", "a")}, {op.IncOp("v", 1)}}},
			want: []string{
				"tracked=true",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[R(x)]]: ids=[] err=commu.ErrNotUpdate",
				"reject [[write(x,1)]]: ids=[] err=commu.ErrNotCommutative",
				"reject [[mul(x,2)]]: ids=[] err=commu.ErrNotCommutative",
				"reject [[inc(v,1) mul(v,2)]]: ids=[] err=commu.ErrNotCommutative",
				"reject [[append(v,\"a\")] [inc(v,1)]]: ids=[] err=commu.ErrNotCommutative",
				"b2: ids=[et1.4 et1.5] err=nil",
				"over counter limit: ids=[] err=commu.ErrThrottled",
				"partitioned applied [et1.1]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.2]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.3]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.4]: 1=true 2=true 3=false all=false",
				"partitioned applied [et1.5]: 1=true 2=true 3=false all=false",
				"partitioned counters x=1 y=1 z=1",
				"partitioned numeric(3, 100): drift=60 vals={x=4 y=2 z=4} err=<nil>",
				"partitioned numeric(3, 15): drift=10 vals={x=4 y=2 z=4} err=<nil>",
				"healed applied [et1.1]: 1=true 2=true 3=true all=true",
				"healed applied [et1.2]: 1=true 2=true 3=true all=true",
				"healed applied [et1.3]: 1=true 2=true 3=true all=true",
				"healed applied [et1.4]: 1=true 2=true 3=true all=true",
				"healed applied [et1.5]: 1=true 2=true 3=true all=true",
				"healed counters x=0 y=0 z=0",
				"healed numeric(3, 100): drift=0 vals={x=14 y=22 z=34} err=<nil>",
				"healed numeric(3, 15): drift=0 vals={x=14 y=22 z=34} err=<nil>",
				"site1 store {x=14 y=22 z=34}",
				"site1 mv x: 1.1=1 2.1=4 7.1=14",
				"site1 mv y: 2.1=2 8.1=22",
				"site1 mv z: 3.1=4 8.1=34",
				"site2 store {x=14 y=22 z=34}",
				"site2 mv x: 1.1=1 2.1=4 7.1=14",
				"site2 mv y: 2.1=2 8.1=22",
				"site2 mv z: 3.1=4 8.1=34",
				"site3 store {x=14 y=22 z=34}",
				"site3 mv x: 1.1=1 2.1=4 7.1=14",
				"site3 mv y: 2.1=2 8.1=22",
				"site3 mv z: 3.1=4 8.1=34",
			}},
		{name: "ritu", open: kind(RITUSV, Options{}), upd: write, rejects: rituRejects,
			want: []string{
				"tracked=true",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[inc(x,1)]]: ids=[] err=ritu.ErrNotReadIndependent",
				"reject [[R(x)]]: ids=[] err=ritu.ErrNotUpdate",
				"reject [[R(x) inc(y,1)]]: ids=[] err=ritu.ErrNotReadIndependent",
				"reject [[write(x,1) inc(x,1)]]: ids=[] err=ritu.ErrNotReadIndependent",
				"b2: ids=[et1.4 et1.5] err=nil",
				"partitioned applied [et1.1]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.2]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.3]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.4]: 1=true 2=true 3=false all=false",
				"partitioned applied [et1.5]: 1=true 2=true 3=false all=false",
				"partitioned vtnc=6.1073741824",
				"healed applied [et1.1]: 1=true 2=true 3=true all=true",
				"healed applied [et1.2]: 1=true 2=true 3=true all=true",
				"healed applied [et1.3]: 1=true 2=true 3=true all=true",
				"healed applied [et1.4]: 1=true 2=true 3=true all=true",
				"healed applied [et1.5]: 1=true 2=true 3=true all=true",
				"healed vtnc=8.1",
				"site1 store {x=10 y=20 z=30}",
				"site1 mv x: 1.1=1 2.1=3 7.1=10",
				"site1 mv y: 2.1=2 8.1=20",
				"site1 mv z: 3.1=4 8.1=30",
				"site2 store {x=10 y=20 z=30}",
				"site2 mv x: 1.1=1 2.1=3 7.1=10",
				"site2 mv y: 2.1=2 8.1=20",
				"site2 mv z: 3.1=4 8.1=30",
				"site3 store {x=10 y=20 z=30}",
				"site3 mv x: 1.1=1 2.1=3 7.1=10",
				"site3 mv y: 2.1=2 8.1=20",
				"site3 mv z: 3.1=4 8.1=30",
			}},
		{name: "ritu-mv", open: kind(RITUMV, Options{}), upd: write, rejects: rituRejects,
			want: []string{
				"tracked=true",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[inc(x,1)]]: ids=[] err=ritu.ErrNotReadIndependent",
				"reject [[R(x)]]: ids=[] err=ritu.ErrNotUpdate",
				"reject [[R(x) inc(y,1)]]: ids=[] err=ritu.ErrNotReadIndependent",
				"reject [[write(x,1) inc(x,1)]]: ids=[] err=ritu.ErrNotReadIndependent",
				"b2: ids=[et1.4 et1.5] err=nil",
				"partitioned applied [et1.1]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.2]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.3]: 1=true 2=true 3=true all=true",
				"partitioned applied [et1.4]: 1=true 2=true 3=false all=false",
				"partitioned applied [et1.5]: 1=true 2=true 3=false all=false",
				"partitioned vtnc=6.1073741824",
				"healed applied [et1.1]: 1=true 2=true 3=true all=true",
				"healed applied [et1.2]: 1=true 2=true 3=true all=true",
				"healed applied [et1.3]: 1=true 2=true 3=true all=true",
				"healed applied [et1.4]: 1=true 2=true 3=true all=true",
				"healed applied [et1.5]: 1=true 2=true 3=true all=true",
				"healed vtnc=8.1",
				"site1 store {x=10 y=20 z=30}",
				"site1 mv x: 1.1=1 2.1=3 7.1=10",
				"site1 mv y: 2.1=2 8.1=20",
				"site1 mv z: 3.1=4 8.1=30",
				"site2 store {x=10 y=20 z=30}",
				"site2 mv x: 1.1=1 2.1=3 7.1=10",
				"site2 mv y: 2.1=2 8.1=20",
				"site2 mv z: 3.1=4 8.1=30",
				"site3 store {x=10 y=20 z=30}",
				"site3 mv x: 1.1=1 2.1=3 7.1=10",
				"site3 mv y: 2.1=2 8.1=20",
				"site3 mv z: 3.1=4 8.1=30",
			}},
		{name: "compe", open: kind(COMPE, Options{}), upd: inc,
			rejects: append(compeRejects, [][]op.Op{{op.WriteOp("x", 1)}}, [][]op.Op{{op.UAppendOp("x", "a")}}),
			want: []string{
				"tracked=false",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[R(x)]]: ids=[] err=compe.ErrNotUpdate",
				"reject [[mul(x,0)]]: ids=[] err=compe.ErrNotCompensatable",
				"reject [[R(x)] [inc(x,1)]]: ids=[] err=compe.ErrNotUpdate",
				"reject [[write(x,1)]]: ids=[] err=compe.ErrNotCompensatable",
				"reject [[uappend(x,\"a\")]]: ids=[] err=compe.ErrNotCompensatable",
				"b2: ids=[et1.7 et1.8] err=nil",
				"tentative: ids=[et1.11] err=nil",
				"after tentative: ids=[et1.12] err=nil",
				"partitioned site1 risk x=0 y=0 z=0 w=1 log=2",
				"partitioned site2 risk x=0 y=0 z=0 w=1 log=2",
				"partitioned site3 risk x=0 y=0 z=0 w=0 log=0",
				"partitioned stats {Aborts:0 Commits:6 OpsUndon:0 OpsRedon:0}",
				"abort: err=<nil>",
				"healed site1 risk x=0 y=0 z=0 w=0 log=0",
				"healed site2 risk x=0 y=0 z=0 w=0 log=0",
				"healed site3 risk x=0 y=0 z=0 w=0 log=0",
				"healed stats {Aborts:1 Commits:6 OpsUndon:3 OpsRedon:0}",
				"site1 store {w=7 x=14 y=22 z=34}",
				"site1 mv w: 21.1=5 23.1=12 27.1=7",
				"site1 mv x: 1.1=1 2.1=4 13.1=14",
				"site1 mv y: 2.1=2 14.1=22",
				"site1 mv z: 3.1=4 14.1=34",
				"site2 store {w=7 x=14 y=22 z=34}",
				"site2 mv w: 21.1=5 23.1=12 27.1=7",
				"site2 mv x: 1.1=1 2.1=4 13.1=14",
				"site2 mv y: 2.1=2 14.1=22",
				"site2 mv z: 3.1=4 14.1=34",
				"site3 store {w=7 x=14 y=22 z=34}",
				"site3 mv w: 21.1=5 23.1=12 27.1=7",
				"site3 mv x: 1.1=1 2.1=4 13.1=14",
				"site3 mv y: 2.1=2 14.1=22",
				"site3 mv z: 3.1=4 14.1=34",
			}},
		{name: "compe-general", open: kind(COMPEGeneral, Options{}), upd: inc, rejects: compeRejects,
			want: []string{
				"tracked=false",
				"b1: ids=[et1.1 et1.2 et1.3] err=nil",
				"reject [[R(x)]]: ids=[] err=compe.ErrNotUpdate",
				"reject [[mul(x,0)]]: ids=[] err=compe.ErrNotCompensatable",
				"reject [[R(x)] [inc(x,1)]]: ids=[] err=compe.ErrNotUpdate",
				"b2: ids=[et1.7 et1.8] err=nil",
				"tentative: ids=[et1.11] err=nil",
				"after tentative: ids=[et1.12] err=nil",
				"partitioned site1 risk x=0 y=0 z=0 w=1 log=2",
				"partitioned site2 risk x=0 y=0 z=0 w=1 log=2",
				"partitioned site3 risk x=0 y=0 z=0 w=0 log=0",
				"partitioned stats {Aborts:0 Commits:6 OpsUndon:0 OpsRedon:0}",
				"abort: err=<nil>",
				"healed site1 risk x=0 y=0 z=0 w=0 log=0",
				"healed site2 risk x=0 y=0 z=0 w=0 log=0",
				"healed site3 risk x=0 y=0 z=0 w=0 log=0",
				"healed stats {Aborts:1 Commits:6 OpsUndon:6 OpsRedon:3}",
				"site1 store {w=0 x=14 y=22 z=34}",
				"site1 mv w: 21.1=5 23.1=15 27.1=0",
				"site1 mv x: 1.1=1 2.1=4 13.1=14",
				"site1 mv y: 2.1=2 14.1=22",
				"site1 mv z: 3.1=4 14.1=34",
				"site2 store {w=0 x=14 y=22 z=34}",
				"site2 mv w: 21.1=5 23.1=15 27.1=0",
				"site2 mv x: 1.1=1 2.1=4 13.1=14",
				"site2 mv y: 2.1=2 14.1=22",
				"site2 mv z: 3.1=4 14.1=34",
				"site3 store {w=0 x=14 y=22 z=34}",
				"site3 mv w: 21.1=5 23.1=15 27.1=0",
				"site3 mv x: 1.1=1 2.1=4 13.1=14",
				"site3 mv y: 2.1=2 14.1=22",
				"site3 mv z: 3.1=4 14.1=34",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runWriteScript(t, tc)
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				var b strings.Builder
				for _, l := range got {
					fmt.Fprintf(&b, "\t\t\t\t%q,\n", l)
				}
				t.Errorf("transcript differs; got:\n%s", b.String())
			}
		})
	}
}

// runWriteScript drives one engine through the golden script and returns
// its transcript.
func runWriteScript(t *testing.T, tc writeCase) []string {
	e, err := tc.open()
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	c := e.Cluster()
	bu := e.(BurstUpdater)
	u := tc.upd
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	idList := func(ids []et.ID) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = id.String()
			if tc.racy {
				parts[i] = fmt.Sprintf("et%d.+%d", int(id.Origin()), id.Local()-ids[0].Local())
			}
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	quiesce := func() {
		t.Helper()
		if err := c.Quiesce(10 * time.Second); err != nil {
			t.Fatalf("Quiesce: %v", err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	tracker, tracked := e.(interface {
		AppliedAt(et.ID, clock.SiteID) bool
		AppliedEverywhere(et.ID) bool
	})
	ce, _ := e.(*compe.Engine)
	me, _ := e.(*commu.Engine)
	re, _ := e.(*ritu.Engine)
	oe, _ := e.(*ordup.Engine)
	logf("tracked=%v", tracked)

	// Phase 1, connected: a burst with a cross-shard ET (x and y hash to
	// different shards of two) and a read riding along, then one rejected
	// ET per admission rule.
	b1, err := bu.UpdateBurst(1, [][]op.Op{{u("x", 1)}, {u("y", 2), u("x", 3)}, {op.ReadOp("z"), u("z", 4)}})
	logf("b1: ids=%s err=%s", idList(b1), errName(err))
	for _, r := range tc.rejects {
		ids, err := bu.UpdateBurst(1, r)
		logf("reject %v: ids=%s err=%s", r, idList(ids), errName(err))
	}
	quiesce()

	// Phase 2: site 3 is cut off (the order servers stay with 1 and 2).
	c.Net.Partition([]clock.SiteID{1, 2, core.SequencerSiteFor(0), core.SequencerSiteFor(1)}, []clock.SiteID{3})
	b2, err := bu.UpdateBurst(1, [][]op.Op{{u("x", 10)}, {u("y", 20), u("z", 30)}})
	logf("b2: ids=%s err=%s", idList(b2), errName(err))
	var tent et.ID
	wantW := int64(0)
	if ce != nil {
		tent, err = ce.Begin(1, []op.Op{op.IncOp("w", 5)})
		logf("tentative: ids=%s err=%s", idList([]et.ID{tent}), errName(err))
		follow := op.IncOp("w", 7)
		wantW = 12
		if ce.Mode() == compe.General {
			follow, wantW = op.MulOp("w", 3), 15
		}
		ids, err := ce.UpdateBurst(1, [][]op.Op{{follow}})
		logf("after tentative: ids=%s err=%s", idList(ids), errName(err))
	}
	if me != nil {
		ids, err := me.UpdateBurst(1, [][]op.Op{{op.IncOp("x", 1)}})
		logf("over counter limit: ids=%s err=%s", idList(ids), errName(err))
	}
	for _, s := range []clock.SiteID{1, 2} {
		s := s
		switch {
		case tc.racy:
			// Lamport hold-back: nothing applies without site 3's evidence.
			waitFor(fmt.Sprintf("site %v to hold b2", s), func() bool {
				return c.Site(s).Pending("x") == 1 && c.Site(s).Pending("y") == 1 && c.Site(s).Pending("z") == 1
			})
		case tracked:
			waitFor(fmt.Sprintf("site %v to apply b2", s), func() bool {
				return tracker.AppliedAt(b2[0], s) && tracker.AppliedAt(b2[1], s)
			})
		case ce != nil:
			waitFor(fmt.Sprintf("site %v to settle", s), func() bool {
				return c.Site(s).Store.Get("w").Num == wantW && ce.RiskAt(s, "w") == 1 &&
					ce.RiskAt(s, "x") == 0 && ce.RiskAt(s, "y") == 0 && ce.RiskAt(s, "z") == 0 &&
					c.Site(s).QueueLen() == 0
			})
		}
	}
	observe := func(phase string) {
		if tracked {
			for _, id := range append(append([]et.ID(nil), b1...), b2...) {
				logf("%s applied %s: 1=%v 2=%v 3=%v all=%v", phase, idList([]et.ID{id}),
					tracker.AppliedAt(id, 1), tracker.AppliedAt(id, 2), tracker.AppliedAt(id, 3),
					tracker.AppliedEverywhere(id))
			}
		}
		if oe != nil {
			logf("%s outstanding=%d", phase, oe.Outstanding())
		}
		if me != nil {
			logf("%s counters x=%d y=%d z=%d", phase, me.CounterValue("x"), me.CounterValue("y"), me.CounterValue("z"))
			for _, max := range []int64{100, 15} {
				nr, err := me.QueryNumeric(3, []string{"x", "y", "z"}, max)
				logf("%s numeric(3, %d): drift=%d vals=%s err=%v", phase, max, nr.Drift, valueList(nr.Values), err)
			}
		}
		if re != nil {
			vtnc := re.VTNC()
			logf("%s vtnc=%v", phase, vtnc)
		}
		if ce != nil {
			for _, s := range c.SiteIDs() {
				logf("%s site%d risk x=%d y=%d z=%d w=%d log=%d", phase, s, ce.RiskAt(s, "x"), ce.RiskAt(s, "y"),
					ce.RiskAt(s, "z"), ce.RiskAt(s, "w"), ce.LogLen(s))
			}
			logf("%s stats %+v", phase, ce.Stats())
		}
	}
	observe("partitioned")

	// Phase 3: heal (COMPE aborts its tentative ET) and quiesce.
	c.Net.Heal()
	if ce != nil {
		logf("abort: err=%v", ce.Abort(tent))
	}
	quiesce()
	observe("healed")
	for _, s := range c.SiteIDs() {
		site := c.Site(s)
		logf("site%d store %s", s, valueList(site.Store.Snapshot()))
		for _, obj := range site.Store.Objects() {
			var vs []string
			for _, v := range site.Store.Versions(obj) {
				if tc.racy {
					vs = append(vs, v.Val.String())
				} else {
					vs = append(vs, v.TS.String()+"="+v.Val.String())
				}
			}
			logf("site%d mv %s: %s", s, obj, strings.Join(vs, " "))
		}
	}
	return log
}

// valueList renders a value map in sorted key order.
func valueList(vals map[string]op.Value) string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + vals[k].String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// errName names the engine sentinel an error wraps.
func errName(err error) string {
	if err == nil {
		return "nil"
	}
	for _, s := range []struct {
		name string
		err  error
	}{
		{"ordup.ErrNotUpdate", ordup.ErrNotUpdate},
		{"commu.ErrNotUpdate", commu.ErrNotUpdate},
		{"commu.ErrNotCommutative", commu.ErrNotCommutative},
		{"commu.ErrThrottled", commu.ErrThrottled},
		{"ritu.ErrNotUpdate", ritu.ErrNotUpdate},
		{"ritu.ErrNotReadIndependent", ritu.ErrNotReadIndependent},
		{"compe.ErrNotUpdate", compe.ErrNotUpdate},
		{"compe.ErrNotCompensatable", compe.ErrNotCompensatable},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return "unexpected: " + err.Error()
}
