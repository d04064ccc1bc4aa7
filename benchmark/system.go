package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/sim"
)

// numSites is the fixed cluster size of every workload.
const numSites = 3

// traceRing is the per-cluster trace ring capacity of a traced rerun.
const traceRing = 1 << 16

// system is the program under test as the harness sees it: three
// replica sites reached through the public constructors.  The in-memory
// workloads host all three in one engine; ordup_durable_tcp hosts each
// in its own engine behind its own loopback TCP listener.
type system struct {
	engines []core.Engine  // distinct engines, in construction order
	nets    []*network.TCP // transports the harness owns (TCP deployment)
	host    [numSites + 1]core.Engine
	sites   [numSites + 1]*replica.Site
	reg     *metrics.Registry // non-nil on traced reruns
	dir     string            // journal directory ("" when in-memory)
}

// sysOptions are the per-run construction knobs a workload passes.
type sysOptions struct {
	kind   sim.EngineKind
	net    network.Config
	traced bool
}

func (o sysOptions) simOptions() (sim.Options, *metrics.Registry) {
	if !o.traced {
		return sim.Options{}, nil
	}
	reg := metrics.NewRegistry()
	return sim.Options{Trace: traceRing, Metrics: reg}, reg
}

// newMemSystem builds one in-memory engine hosting all three sites on a
// simulated network.
func newMemSystem(o sysOptions) (*system, error) {
	opt, reg := o.simOptions()
	eng, err := sim.NewEngine(o.kind, numSites, o.net, opt)
	if err != nil {
		return nil, err
	}
	s := &system{engines: []core.Engine{eng}, reg: reg}
	for i := 1; i <= numSites; i++ {
		s.host[i] = eng
		s.sites[i] = eng.Cluster().Site(clock.SiteID(i))
	}
	return s, nil
}

// newTCPSystem builds the durable deployment: three engine instances in
// this process, instance i hosting only site i on its own loopback
// listener with journals under dir/site<i>; the order server rides with
// site 1.
func newTCPSystem(o sysOptions, dir string, seed int64) (*system, error) {
	s := &system{dir: dir}
	opt, reg := o.simOptions()
	s.reg = reg
	for i := 1; i <= numSites; i++ {
		id := clock.SiteID(i)
		local := []clock.SiteID{id, core.SnapSite(id)}
		if i == 1 {
			local = append(local, core.SequencerSiteFor(0))
		}
		tn, err := network.NewTCP(network.TCPOptions{Listen: "127.0.0.1:0", Local: local, Seed: seed + int64(i)})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nets = append(s.nets, tn)
	}
	for i, tn := range s.nets {
		for j, peer := range s.nets {
			if i == j {
				continue
			}
			id := clock.SiteID(j + 1)
			tn.AddPeer(id, peer.Addr())
			tn.AddPeer(core.SnapSite(id), peer.Addr())
		}
		if i != 0 {
			tn.AddPeer(core.SequencerSiteFor(0), s.nets[0].Addr())
		}
	}
	for i := 1; i <= numSites; i++ {
		io := opt
		io.Transport = s.nets[i-1]
		io.LocalSites = []clock.SiteID{clock.SiteID(i)}
		io.QueueDir = filepath.Join(dir, fmt.Sprintf("site%d", i))
		eng, err := sim.NewEngine(o.kind, numSites, network.Config{}, io)
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines = append(s.engines, eng)
		s.host[i] = eng
		s.sites[i] = eng.Cluster().Site(clock.SiteID(i))
	}
	return s, nil
}

func (s *system) update(site int, ops []op.Op) (et.ID, error) {
	return s.host[site].Update(clock.SiteID(site), ops)
}

func (s *system) read(site int, keys []string, o core.ReadOptions) (et.QueryResult, error) {
	return core.ReadAtSite(s.host[site].Cluster(), clock.SiteID(site), keys, o)
}

// drained reports whether no MSet is queued anywhere: every outbound
// stable queue acknowledged and every inbound queue applied.
func (s *system) drained() bool {
	for i := 1; i <= numSites; i++ {
		if s.host[i].Cluster().OutBacklog(clock.SiteID(i)) != 0 || s.sites[i].QueueLen() != 0 {
			return false
		}
	}
	return true
}

// waitDrained polls drained every pollEvery until it holds twice in a row
// (an MSet between an outbound ack and an inbound enqueue is in
// neither queue for an instant).
func (s *system) waitDrained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	streak := 0
	for streak < 2 {
		if s.drained() {
			streak++
		} else {
			streak = 0
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster not drained within %v", timeout)
			}
		}
		napUntil(time.Now().Add(pollEvery))
	}
	return nil
}

func (s *system) journalSyncs() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Cluster().JournalSyncs()
	}
	return n
}

func (s *system) netStats() network.Stats {
	var sum network.Stats
	for _, e := range s.engines {
		st := e.Cluster().Net.Stats()
		sum.Sent += st.Sent
		sum.Delivered += st.Delivered
		sum.Lost += st.Lost
		sum.Bytes += st.Bytes
		sum.Frames += st.Frames
	}
	return sum
}

func (s *system) siteStats() replica.Stats {
	var sum replica.Stats
	for i := 1; i <= numSites; i++ {
		st := s.sites[i].Stats()
		sum.Received += st.Received
		sum.Applied += st.Applied
		sum.Held += st.Held
		sum.Errors += st.Errors
	}
	return sum
}

// journalBytes sums the sizes of the files under the journal directory.
func (s *system) journalBytes() uint64 {
	if s.dir == "" {
		return 0
	}
	var n uint64
	_ = filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += uint64(info.Size())
		}
		return nil // a journal compacted away mid-walk is not an error here
	})
	return n
}

// close shuts engines, then the transports the harness owns, then
// removes the journals.
func (s *system) close() {
	for _, e := range s.engines {
		e.Close()
	}
	for _, tn := range s.nets {
		tn.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
