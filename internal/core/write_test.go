package core

import (
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
)

// TestAppliedAtFollowsSiteBookkeeping: the tracker reports an ET applied
// at a site only once the site's own bookkeeping has it, so a read that
// waited on AppliedAt snapshots at or past the ET.  The ApplyFunc lingers
// after the kernel, the window in which the site has the values but not
// yet the watermark.
func TestAppliedAtFollowsSiteBookkeeping(t *testing.T) {
	c, err := New(Config{Sites: 2, Net: network.Config{Seed: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	m := Method{Flights: NewFlights(c, nil)}
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(ms et.MSet) error {
			m.Apply(s, ms, nil)
			time.Sleep(2 * time.Millisecond)
			return nil
		}
	})
	ids, err := c.Submit(1, [][]op.Op{{op.IncOp("x", 1)}}, &m)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.Flights.AppliedAt(ids[0], 2) {
		if time.Now().After(deadline) {
			t.Fatalf("ET never applied at site 2")
		}
		time.Sleep(50 * time.Microsecond)
	}
	s := c.Site(2)
	if s.Watermark().IsZero() || s.Epoch("x") != 1 {
		t.Errorf("AppliedAt true while site 2 has watermark %v, epoch %d", s.Watermark(), s.Epoch("x"))
	}
}

// TestFlightsRedeliveredPartRetiresOnlyItself: a part noted twice (a
// redelivery after a crash) must not stand in for a sibling part of the
// same cross-shard ET.
func TestFlightsRedeliveredPartRetiresOnlyItself(t *testing.T) {
	c, err := New(Config{Sites: 2, Net: network.Config{Seed: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	f := NewFlights(c, nil)
	id := et.MakeID(1, 1)
	f.track(id, nil, 1<<0|1<<2, func() clock.Timestamp { return clock.Timestamp{Time: 1, Site: 1} })
	part0 := et.MSet{ET: id, Shard: 0}
	f.applied(part0, 1)
	f.applied(part0, 1)
	if f.AppliedAt(id, 1) {
		t.Fatalf("shard 0's part noted twice retired the ET at site 1; shard 2's part is still owed")
	}
	f.applied(et.MSet{ET: id, Shard: 2}, 1)
	if !f.AppliedAt(id, 1) {
		t.Errorf("both parts noted at site 1, but AppliedAt is false")
	}
	if f.AppliedEverywhere(id) || f.Outstanding() != 1 {
		t.Errorf("site 2 owes both parts, but the ET is no longer in flight")
	}
}
