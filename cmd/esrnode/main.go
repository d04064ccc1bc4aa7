// Command esrnode hosts one replica site as its own OS process, turning
// the in-process reproduction into a real distributed deployment: N
// esrnode processes over the TCP transport converge exactly like the
// single-process simulator (the CI smoke test holds them to byte-equal
// stores).
//
// Each process owns one site's store, stable queues and WAL, speaks the
// length-prefixed framed protocol of internal/network's TCP transport,
// and optionally serves /metrics.json + /trace so esrtop can attach
// remotely (esrtop -addr host:port).
//
// Peer wiring is either static (-peers "1=host:port,2=host:port,...")
// or, for tests and local clusters, a file rendezvous (-peers-file DIR):
// every node binds :0, writes DIR/site-N.addr, and waits until all N
// address files exist.  The ORDUP order server rides with site 1.
//
// A run has four phases: wire peers, wait until every node's engine is
// up (readiness barrier over the control channel), execute -updates
// update ETs originating at the local site, then hold at a distributed
// drain barrier until every node reports its queues empty for several
// consecutive polls.  After the barrier the store is dumped to -out as
// canonical JSON, identical across nodes iff the replicas converged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/metrics"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/seqrep"
	"esr/internal/sim"
	"esr/internal/trace"
)

// ctrlBase offsets the per-node control channel's virtual site IDs well
// clear of replica sites (1..Sites) and the order server (1000).
const ctrlBase = clock.SiteID(2000)

func ctrlSite(s clock.SiteID) clock.SiteID { return ctrlBase + s }

// nodeStatus is the control channel's poll response: what a peer needs
// to know to decide the cluster-wide drain barrier.
type nodeStatus struct {
	Ready   bool `json:"ready"`   // engine constructed and started
	Done    bool `json:"done"`    // local workload finished
	Backlog int  `json:"backlog"` // largest outbound stable-queue length
	InQ     int  `json:"inq"`     // inbound stable-queue length
}

func main() {
	var (
		site      = flag.Int("site", 0, "site this process hosts (1..sites, required)")
		sites     = flag.Int("sites", 3, "total number of replica sites in the cluster")
		method    = flag.String("method", "ordup", "replica-control method (ordup, commu, ritu, compe, ...)")
		listen    = flag.String("listen", "127.0.0.1:0", "transport listen address")
		peers     = flag.String("peers", "", "static peer map: \"1=host:port,2=host:port,...\"")
		peersFile = flag.String("peers-file", "", "rendezvous directory: write site-N.addr, wait for all peers")
		dir       = flag.String("dir", "", "journal directory (stable queues + WAL); empty keeps everything in memory")
		maddr     = flag.String("metrics", "", "serve /metrics, /metrics.json and /trace on this address (esrtop -addr attaches here)")
		updates   = flag.Int("updates", 50, "update ETs to originate at this site")
		objects   = flag.Int("objects", 8, "object universe size (obj-0..)")
		opsPer    = flag.Int("ops", 1, "operations per update ET")
		seed      = flag.Int64("seed", 1, "workload seed (mixed with the site ID)")
		out       = flag.String("out", "", "write the post-convergence store dump to this file")
		settle    = flag.Duration("settle", 60*time.Second, "distributed drain-barrier timeout")
		linger    = flag.Duration("linger", time.Second, "grace period after the barrier so peers finish their final polls")
		repSeq    = flag.Bool("seqrep", false, "replicate the ORDUP order service: every process co-hosts one ensemble member, so killing any single node never loses sequencing")
		shards    = flag.Int("shards", 1, "partition the keyspace into this many independent ordering domains (ORDUP methods only)")
		reads     = flag.Int("reads", 0, "consistency-level reads to interleave with the local workload (cycling the -consistency levels), plus a post-drain all-levels equivalence round")
		level     = flag.String("consistency", "mixed", "with -reads: level for the interleaved reads — strong | bounded-staleness | session | eventual | mixed (cycle all four)")
		maxStale  = flag.Duration("maxstale", 250*time.Millisecond, "bounded-staleness Δt for -reads")
	)
	flag.Parse()
	if err := run(*site, *sites, *method, *listen, *peers, *peersFile, *dir, *maddr,
		*updates, *objects, *opsPer, *seed, *out, *settle, *linger, *repSeq, *shards,
		*reads, *level, *maxStale); err != nil {
		log.Fatalf("esrnode: %v", err)
	}
}

func run(site, sites int, method, listen, peersSpec, peersDir, dir, maddr string,
	updates, objects, opsPer int, seed int64, out string, settle, linger time.Duration,
	replicatedSeq bool, shards int, reads int, levelSpec string, maxStale time.Duration) error {
	if site < 1 || site > sites {
		return fmt.Errorf("-site %d outside 1..%d", site, sites)
	}
	readLevels, err := parseLevels(levelSpec)
	if err != nil {
		return err
	}
	if shards < 1 {
		shards = 1
	}
	self := clock.SiteID(site)

	// Beyond the replica site and the control channel, each process may
	// host virtual transport sites: the legacy order servers (one per
	// shard, riding with site 1), a replicated-sequencer ensemble member
	// per shard (-seqrep: one per process per shard), and the snapshot
	// donor serving site catch-up.
	localSites := []clock.SiteID{self, ctrlSite(self), core.SnapSite(self)}
	for sh := 0; sh < shards; sh++ {
		if replicatedSeq {
			localSites = append(localSites, seqrep.ReplicaSiteAt(sh, self))
		} else if site == 1 {
			localSites = append(localSites, core.SequencerSiteFor(sh))
		}
	}
	tn, err := network.NewTCP(network.TCPOptions{
		Listen: listen,
		Local:  localSites,
		Seed:   seed + int64(site),
	})
	if err != nil {
		return err
	}
	defer tn.Close()
	log.Printf("site %d listening on %s", site, tn.Addr())

	addrs, err := resolvePeers(tn.Addr(), self, sites, peersSpec, peersDir)
	if err != nil {
		return err
	}
	for j := 1; j <= sites; j++ {
		id := clock.SiteID(j)
		if id == self {
			continue
		}
		tn.AddPeer(id, addrs[id])
		tn.AddPeer(ctrlSite(id), addrs[id])
		tn.AddPeer(core.SnapSite(id), addrs[id])
		if replicatedSeq {
			for sh := 0; sh < shards; sh++ {
				tn.AddPeer(seqrep.ReplicaSiteAt(sh, id), addrs[id])
			}
		}
	}
	if !replicatedSeq {
		for sh := 0; sh < shards; sh++ {
			tn.AddPeer(core.SequencerSiteFor(sh), addrs[1])
		}
	}

	var reg *metrics.Registry
	traceCap := 0
	if maddr != "" {
		reg = metrics.NewRegistry()
		traceCap = 4096
	}

	seqReplicas := 0
	if replicatedSeq {
		seqReplicas = sites
	}
	eng, err := sim.NewEngine(sim.EngineKind(method), sites, network.Config{}, sim.Options{
		QueueDir:    dir,
		Metrics:     reg,
		Trace:       traceCap,
		Transport:   tn,
		LocalSites:  []clock.SiteID{self},
		SeqReplicas: seqReplicas,
		NumShards:   shards,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	cl := eng.Cluster()

	if maddr != "" {
		ring := cl.Trace
		srv, err := metrics.Serve(maddr, metrics.ServeOptions{
			Registry: reg,
			Extra: map[string]http.Handler{
				"/trace": trace.Handler(ring),
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("site %d metrics on http://%s/metrics.json", site, srv.Addr())
	}

	// Control channel: peers poll it for the readiness and drain
	// barriers.  Registering it only now makes "the control channel
	// answers" equivalent to "the engine is up".
	var done atomic.Bool
	tn.Register(ctrlSite(self), func(clock.SiteID, []byte) ([]byte, error) {
		st := nodeStatus{
			Ready:   true,
			Done:    done.Load(),
			Backlog: cl.OutBacklog(self),
			InQ:     cl.Site(self).QueueLen(),
		}
		return json.Marshal(st)
	})

	poll := func(check func(nodeStatus) bool) bool {
		for j := 1; j <= sites; j++ {
			resp, err := tn.Call(ctrlSite(self), ctrlSite(clock.SiteID(j)), []byte("status"))
			if err != nil {
				return false
			}
			var st nodeStatus
			if err := json.Unmarshal(resp, &st); err != nil || !check(st) {
				return false
			}
		}
		return true
	}
	barrier := func(name string, stable int, check func(nodeStatus) bool) error {
		deadline := time.NewTimer(settle)
		defer deadline.Stop()
		streak := 0
		for streak < stable {
			if poll(check) {
				streak++
			} else {
				streak = 0
			}
			select {
			case <-deadline.C:
				return fmt.Errorf("%s barrier: cluster not settled within %v", name, settle)
			case <-time.After(10 * time.Millisecond):
			}
			cl.Site(self).Kick()
		}
		return nil
	}

	if err := barrier("readiness", 1, func(st nodeStatus) bool { return st.Ready }); err != nil {
		return err
	}
	log.Printf("site %d: cluster ready, running %d updates", site, updates)

	// The workload: deterministic update ETs originating here.  RITU
	// admits only blind writes; everything else takes increments.
	build := sim.AdditiveOps
	if strings.HasPrefix(method, "ritu") {
		build = sim.BlindWriteOps
	}
	rng := rand.New(rand.NewSource(seed + int64(site)*7919))
	// Interleave the -reads consistency-level reads with the updates so
	// the gates run against a cluster that is genuinely mid-propagation.
	readEvery := 0
	if reads > 0 {
		readEvery = updates / reads
		if readEvery < 1 {
			readEvery = 1
		}
	}
	readsDone := 0
	for i := 0; i < updates; i++ {
		ops := make([]op.Op, opsPer)
		for j := range ops {
			ops[j] = build(rng, fmt.Sprintf("obj-%d", rng.Intn(objects)))
		}
		if _, err := eng.Update(self, ops); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
		if readEvery > 0 && i%readEvery == 0 && readsDone < reads {
			lv := readLevels[readsDone%len(readLevels)]
			obj := fmt.Sprintf("obj-%d", rng.Intn(objects))
			res, err := core.ReadAtSite(cl, self, []string{obj}, core.ReadOptions{
				Level: lv, Epsilon: divergence.Unlimited, MaxStaleness: maxStale,
			})
			if err != nil {
				return fmt.Errorf("mid-load %s read %d: %w", lv, readsDone, err)
			}
			if res.Level != lv {
				return fmt.Errorf("mid-load read %d: level %v, want %v", readsDone, res.Level, lv)
			}
			readsDone++
		}
	}
	if reads > 0 {
		log.Printf("site %d: %d mid-load reads served across %d levels", site, readsDone, len(readLevels))
	}
	done.Store(true)

	if err := barrier("drain", 5, func(st nodeStatus) bool {
		return st.Done && st.Backlog == 0 && st.InQ == 0
	}); err != nil {
		return err
	}
	log.Printf("site %d: cluster drained", site)

	// Post-drain equivalence round: with no accepted-unapplied updates
	// left anywhere, every level of the menu must answer with the
	// converged store's value — the distributed analogue of the
	// read-path equivalence suite.
	if reads > 0 {
		st := cl.Site(self).Store
		for k := 0; k < objects; k++ {
			obj := fmt.Sprintf("obj-%d", k)
			want := st.Get(obj)
			for _, lv := range consistency.Levels() {
				res, err := core.ReadAtSite(cl, self, []string{obj}, core.ReadOptions{
					Level: lv, Epsilon: divergence.Unlimited, MaxStaleness: maxStale,
				})
				if err != nil {
					return fmt.Errorf("post-drain %s read of %s: %w", lv, obj, err)
				}
				if got := res.Values[obj]; got.String() != want.String() {
					return fmt.Errorf("post-drain %s read of %s: %v, want %v (levels diverge after quiescence)", lv, obj, got, want)
				}
			}
		}
		log.Printf("site %d: post-drain equivalence round passed (%d objects x %d levels)", site, objects, len(consistency.Levels()))
	}

	if out != "" {
		if err := dumpStore(cl, self, method, out); err != nil {
			return err
		}
	}

	// Stay reachable while stragglers finish their final barrier polls
	// (and, with -metrics, give esrtop a window to attach).
	time.Sleep(linger)
	return nil
}

// parseLevels resolves the -consistency spec: one level name, or
// "mixed" for the whole menu weakest to strongest.
func parseLevels(spec string) ([]consistency.Level, error) {
	if spec == "mixed" || spec == "" {
		return consistency.Levels(), nil
	}
	lv, err := consistency.Parse(spec)
	if err != nil {
		return nil, err
	}
	return []consistency.Level{lv}, nil
}

// resolvePeers produces the site→address map, either parsing the static
// -peers spec or running the -peers-file rendezvous (write our address,
// wait for everyone else's).
func resolvePeers(selfAddr string, self clock.SiteID, sites int, peersSpec, peersDir string) (map[clock.SiteID]string, error) {
	addrs := make(map[clock.SiteID]string, sites)
	addrs[self] = selfAddr
	switch {
	case peersSpec != "":
		for _, kv := range strings.Split(peersSpec, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("bad -peers entry %q (want site=host:port)", kv)
			}
			n, err := strconv.Atoi(k)
			if err != nil || n < 1 || n > sites {
				return nil, fmt.Errorf("bad -peers site %q", k)
			}
			addrs[clock.SiteID(n)] = v
		}
	case peersDir != "":
		if err := os.MkdirAll(peersDir, 0o700); err != nil {
			return nil, err
		}
		tmp := filepath.Join(peersDir, fmt.Sprintf(".site-%d.addr.tmp", self))
		if err := os.WriteFile(tmp, []byte(selfAddr), 0o600); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, filepath.Join(peersDir, fmt.Sprintf("site-%d.addr", self))); err != nil {
			return nil, err
		}
		deadline := time.NewTimer(30 * time.Second)
		defer deadline.Stop()
		for j := 1; j <= sites; j++ {
			id := clock.SiteID(j)
			for addrs[id] == "" {
				b, err := os.ReadFile(filepath.Join(peersDir, fmt.Sprintf("site-%d.addr", j)))
				if err == nil && len(b) > 0 {
					addrs[id] = string(b)
					break
				}
				select {
				case <-deadline.C:
					return nil, fmt.Errorf("rendezvous: site %d never published its address in %s", j, peersDir)
				case <-time.After(25 * time.Millisecond):
				}
			}
		}
	case sites == 1:
		// Single-node cluster: nothing to wire.
	default:
		return nil, fmt.Errorf("one of -peers or -peers-file is required for a %d-site cluster", sites)
	}
	for j := 1; j <= sites; j++ {
		if addrs[clock.SiteID(j)] == "" {
			return nil, fmt.Errorf("no address for site %d", j)
		}
	}
	return addrs, nil
}

// dumpStore writes the local replica's store as canonical JSON —
// converged replicas produce byte-identical dumps, which is exactly
// what the smoke test compares.  A single-domain cluster dumps the
// legacy {method, store} shape; a sharded one merges the ordering
// domains deterministically into one entry list sorted by shard, then
// object, so the dump also witnesses per-shard convergence.
func dumpStore(cl *core.Cluster, self clock.SiteID, method, path string) error {
	st := cl.Site(self).Store
	objs := st.Objects()
	sort.Strings(objs)
	var b []byte
	var err error
	if cl.Shards() > 1 {
		type entry struct {
			Shard  int    `json:"shard"`
			Object string `json:"object"`
			Value  string `json:"value"`
		}
		entries := make([]entry, 0, len(objs))
		for _, o := range objs {
			entries = append(entries, entry{Shard: cl.ShardOfObject(o), Object: o, Value: st.Get(o).String()})
		}
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Shard < entries[j].Shard })
		b, err = json.MarshalIndent(struct {
			Method string  `json:"method"`
			Shards int     `json:"shards"`
			Store  []entry `json:"store"`
		}{Method: method, Shards: cl.Shards(), Store: entries}, "", "  ")
	} else {
		store := make(map[string]string, len(objs))
		for _, o := range objs {
			store[o] = st.Get(o).String()
		}
		b, err = json.MarshalIndent(struct {
			Method string            `json:"method"`
			Store  map[string]string `json:"store"`
		}{Method: method, Store: store}, "", "  ")
	}
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
