package main

import (
	"errors"
	"strconv"
	"time"

	"esr/internal/clock"
	"esr/internal/compe"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/session"
	"esr/internal/sim"
)

func siteID(i int) clock.SiteID { return clock.SiteID(i) }

// workload is one of the four named load shapes.  generate, build and
// preload are the timed set-up: generate draws every key and op from the
// seed, build constructs the system, preload fills it.  attach binds
// per-system state (sessions) to the system that was kept; phase runs
// both clients for d and blocks until they stop — it is called once for
// the warm-up and once for the measured window, and the clients keep
// their position across the two.
type workload struct {
	name string
	why  string
	// preloaded is how many keys set-up writes (with preloadValue).
	preloaded int
	// incOnly marks workloads whose every update is an Inc, so a key's
	// converged value must equal the sum of acknowledged increments;
	// otherwise (blind writes) it must equal the last acknowledged write.
	incOnly bool
	// rounds marks the workload whose slices are its rounds.
	rounds bool
	// paced marks the workloads whose writer is open-loop at pacedRate.
	paced bool
	// durable marks the one workload that journals; the others must
	// report zero journal syncs.
	durable  bool
	generate func(r *run)
	build    func(r *run) (*system, error)
	preload  func(r *run) // optional
	attach   func(r *run) // optional
	phase    func(r *run, d time.Duration, measured bool)
	// overheadOn names the metric whose traced-to-untraced ratio is the
	// workload's trace.overhead_pct: the figure its bottleneck shows in.
	overheadOn string
	// aborts marks the COMPE workload, whose writer issues isAbort's
	// issue indexes as Begin→Abort; those must leave no trace in the
	// converged state.
	aborts bool
}

// Probe and abort cadences and the paced writers' rate.
const (
	preloadValue = -1 // what set-up writes into every preloaded key
	probeEvery   = 10 // every 10th update is a probe on a unique key
	abortEvery   = 20 // compe_wan_eps: one ET in 20 is Begin→Abort (5 %)
	// pacedRate is the open-loop writers' rate.  Both paced workloads
	// keep up with 2000/s in a quiet minute, but at 1000/s a minute in
	// which the host holds the machine back tips them into a backlog, and
	// the figures of such a run are the host's (README.md, "Deviations").
	// 640/s leaves more margin, and its period of 1.5625 ms is no
	// multiple of a millisecond: at 500/s the run's median propagation
	// depended on where the 2 ms period fell against the system's timers.
	pacedRate       = 640
	roundSize       = 250 // commu_backlog: ETs per client per round
	sessionWriteOne = 10  // session phase: every 10th op is a write
)

func isProbe(j int) bool             { return j%probeEvery == probeEvery-1 }
func isAbort(j int) bool             { return j%abortEvery == 7 }
func pacedETs(c runConfig) int       { return int((c.window+c.warm())/time.Second)*pacedRate + 2*pacedRate }
func probesFor(n int) int            { return n/probeEvery + 1 }
func newClient(id, site int) *client { return &client{id: id, site: site} }

var workloads = []*workload{
	{
		name:    "ordup_durable_tcp",
		why:     "closed-loop ORDUP updates over loopback TCP with fsynced journals: sequencer, WAL, file queues and codec do the work; apply scheduling idles",
		incOnly: true, durable: true, overheadOn: "update_per_s",
		generate: func(r *run) {
			r.ks = newKeyspace(1 << 20)
			for i := 1; i <= 2; i++ {
				c := newClient(i, i)
				rng := clientRNG(r.cfg.seed, i)
				// 1<<16 ETs are cycled; 1<<14 probes last 164 k updates per client.
				c.pool = genIncPool(rng, r.ks, newDrawer(rng, 1.1, 1<<20), i, 1<<16, 1<<14, 1)
				r.clients = append(r.clients, c)
			}
		},
		build: func(r *run) (*system, error) {
			dir, err := r.journalDir()
			if err != nil {
				return nil, err
			}
			return newTCPSystem(sysOptions{kind: sim.ORDUPSeq, traced: r.cfg.traced}, dir, r.cfg.seed)
		},
		phase: func(r *run, d time.Duration, measured bool) {
			start := time.Now()
			deadline := start.Add(d)
			r.bothClients(func(c *client) {
				for time.Now().Before(deadline) {
					r.closedUpdate(c, measured)
				}
			})
		},
	},
	{
		name:    "commu_backlog",
		why:     "rounds of 2x250 four-op commuting ETs flat out, then a wait for convergence: CPU-bound propagation under backlog, no fsync, no socket, no sequencer",
		incOnly: true, rounds: true, overheadOn: "update_per_s",
		generate: func(r *run) {
			r.ks = newKeyspace(1 << 20)
			for i := 1; i <= 2; i++ {
				c := newClient(i, i)
				rng := clientRNG(r.cfg.seed, i)
				c.pool = genIncPool(rng, r.ks, newDrawer(rng, 0, 1<<20), i, 1<<16, 1<<14, 4)
				r.clients = append(r.clients, c)
			}
		},
		build: func(r *run) (*system, error) {
			return newMemSystem(sysOptions{kind: sim.COMMU, net: network.Config{Seed: r.cfg.seed}, traced: r.cfg.traced})
		},
		phase: func(r *run, d time.Duration, measured bool) {
			start := time.Now()
			for time.Since(start) < d {
				roundStart := time.Now()
				r.bothClients(func(c *client) {
					for i := 0; i < roundSize; i++ {
						r.closedUpdate(c, measured)
					}
				})
				submitted := time.Since(roundStart)
				// The round ends when every site has applied everything;
				// execute's own final drain reports a wedged cluster.
				if err := r.sys.waitDrained(30 * time.Second); err != nil {
					return
				}
				if measured {
					r.roundSubmit = append(r.roundSubmit, submitted)
					r.roundTotal = append(r.roundTotal, time.Since(roundStart))
				}
			}
		},
	},
	{
		name:      "ritu_read_menu",
		why:       "a paced 640/s blind-write stream beside a closed-loop reader walking strong, bounded, session, eventual: isolates the read path from write-path speed",
		preloaded: 100_000, paced: true, overheadOn: "client.read_eventual_per_s",
		generate: func(r *run) {
			r.ks = newKeyspace(100_000)
			n := pacedETs(r.cfg)
			w := newClient(1, 1)
			rng := clientRNG(r.cfg.seed, 1)
			w.pool = genWritePool(r.ks, newDrawer(rng, 1.1, 100_000), 1, n, probesFor(n), 0)
			rd := newClient(2, 1) // its session writes originate at site 1
			rrng := clientRNG(r.cfg.seed, 2)
			rd.readKeys = genReadKeys(r.ks, newDrawer(rrng, 1.1, 100_000), 1<<16, 1)
			rd.sessKeys = make([]string, 1<<12)
			for i := range rd.sessKeys {
				rd.sessKeys[i] = "s" + strconv.Itoa(i)
			}
			r.clients = []*client{w, rd}
		},
		build: func(r *run) (*system, error) {
			return newMemSystem(sysOptions{kind: sim.RITUSV, traced: r.cfg.traced,
				net: network.Config{Seed: r.cfg.seed, MinLatency: time.Millisecond, MaxLatency: 2 * time.Millisecond}})
		},
		// Preload installs every one of the 100 k keys at every site the
		// way snapshot recovery does (single-version cell plus one version
		// below any timestamp the run will issue).  Writing them through
		// the engine would measure the backlog drain, which commu_backlog
		// already does, and take longer than the window.
		preload: func(r *run) {
			floor := clock.Timestamp{Site: 1}
			for i := 1; i <= numSites; i++ {
				for k := 0; k < r.w.preloaded; k++ {
					key := r.ks.name(uint64(k))
					v := r.sys.sites[i].Store.Apply(op.WriteOp(key, preloadValue))
					r.sys.sites[i].MV.InstallMonotone(key, floor, v)
				}
			}
		},
		attach: func(r *run) {
			s, err := session.NewWith(r.sys.host[1], session.Config{WaitTimeout: gateTimeout, ReadYourWrites: true, MonotonicReads: true})
			if err != nil {
				panic(err) // RITU tracks per-site application; only a bug makes this fail
			}
			r.clients[1].sess = s
		},
		phase: func(r *run, d time.Duration, measured bool) {
			start := time.Now()
			r.bothClients(func(c *client) {
				if c.id == 1 {
					r.pacedWriter(c, start, d, measured)
					return
				}
				for i, lvl := range readLevels {
					r.reader(c, lvl, 2, start.Add(d*readPhaseEnds[i]/10), measured,
						core.ReadOptions{Level: lvl, Epsilon: 2, MaxStaleness: 50 * time.Millisecond, WaitTimeout: gateTimeout})
				}
			})
		},
	},
	{
		name:    "compe_wan_eps",
		why:     "paced COMPE writes with 5 % aborts over a 2-4 ms, 1 % loss network beside epsilon-bounded reads: retry/backoff, compensation and divergence charging",
		incOnly: true, paced: true, overheadOn: "cpu_us_per_update",
		generate: func(r *run) {
			r.ks = newKeyspace(10_000)
			n := pacedETs(r.cfg)
			w := newClient(1, 1)
			rng := clientRNG(r.cfg.seed, 1)
			w.pool = genIncPool(rng, r.ks, newDrawer(rng, 1.2, 10_000), 1, n, probesFor(n), 2)
			rd := newClient(2, 3)
			rrng := clientRNG(r.cfg.seed, 2)
			rd.readKeys = genReadKeys(r.ks, newDrawer(rrng, 1.2, 10_000), 1<<16, 2)
			r.clients = []*client{w, rd}
		},
		build: func(r *run) (*system, error) {
			return newMemSystem(sysOptions{kind: sim.COMPE, traced: r.cfg.traced,
				net: network.Config{Seed: r.cfg.seed, MinLatency: 2 * time.Millisecond, MaxLatency: 4 * time.Millisecond, LossRate: 0.01}})
		},
		aborts: true,
		phase: func(r *run, d time.Duration, measured bool) {
			start := time.Now()
			r.bothClients(func(c *client) {
				if c.id == 1 {
					r.pacedWriter(c, start, d, measured)
					return
				}
				r.reader(c, consistency.Bounded, 3, start.Add(d), measured,
					core.ReadOptions{Level: consistency.Bounded, Epsilon: 2, MaxStaleness: 100 * time.Millisecond, WaitTimeout: gateTimeout})
			})
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// etAt is the ET issued at index j: probe number j/probeEvery when the
// cadence says so and the pre-generated probes last, else the pool ET
// (the pool is cycled).  The clients and the oracle both use it, so the
// oracle replays exactly what was issued.
func (c *client) etAt(j int) (ops []op.Op, probed bool) {
	if isProbe(j) && j/probeEvery < len(c.pool.probes) {
		return c.pool.probes[j/probeEvery], true
	}
	return c.pool.ets[j%len(c.pool.ets)], false
}

// closedUpdate issues the client's next update and waits for its ack.
func (r *run) closedUpdate(c *client, measured bool) {
	ops, probed := c.etAt(c.issued)
	t0 := time.Now()
	_, err := r.sys.update(c.site, ops)
	done := time.Now()
	r.account(c, ops, probed, err, done, done.Sub(t0), measured)
}

// account books one update's outcome and hands an acknowledged probe to
// the observer.
func (r *run) account(c *client, ops []op.Op, probed bool, err error, done time.Time, lat time.Duration, measured bool) {
	j := c.issued
	c.issued++
	if measured {
		c.attempted++
	}
	if err != nil {
		c.failedIdx = append(c.failedIdx, j)
		if measured {
			c.failed++
		}
		return
	}
	slice := 0
	if measured {
		slice = c.booked(r, done, lat)
	}
	if probed {
		r.obs.submit(probe{key: ops[0].Object, want: ops[0].Arg, origin: c.site, acked: done, measured: measured, slice: slice})
	}
}

// pacedWriter is the open-loop writer: update k is due at start +
// k/pacedRate whatever happened to the ones before it, and its latency
// runs from that due time, so a stall charges every update it delays.
func (r *run) pacedWriter(c *client, start time.Time, d time.Duration, measured bool) {
	const period = time.Second / pacedRate
	var eng *compe.Engine
	if r.w.aborts {
		eng = r.sys.host[c.site].(*compe.Engine)
	}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if due.Sub(start) >= d {
			return
		}
		napUntil(due)
		sent := time.Now()
		if measured {
			late := sent.Sub(due)
			c.late.record(late)
			if late > period/2 {
				c.lateOver++
			}
		}
		if eng != nil && isAbort(c.issued) {
			r.abortedUpdate(c, eng, due, measured)
			continue
		}
		ops, probed := c.etAt(c.issued)
		_, err := r.sys.update(c.site, ops)
		done := time.Now()
		r.account(c, ops, probed, err, done, done.Sub(due), measured)
	}
}

// abortedUpdate issues the next ET as Begin→Abort: it propagates, is
// applied tentatively everywhere and is then compensated everywhere.
func (r *run) abortedUpdate(c *client, eng *compe.Engine, due time.Time, measured bool) {
	j := c.issued
	c.issued++
	if measured {
		c.attempted++
		r.abortsMeasured++
	}
	ops, _ := c.etAt(j)
	id, err := eng.Begin(siteID(c.site), ops)
	if err != nil {
		c.failedIdx = append(c.failedIdx, j)
	} else if err = eng.Abort(id); err != nil {
		// Begun but never aborted: the ET stays applied, so the oracle
		// must count its increments.
		c.keptIdx = append(c.keptIdx, j)
	}
	switch {
	case !measured:
	case err != nil:
		c.failed++
	default:
		done := time.Now()
		c.booked(r, done, done.Sub(due))
	}
}

// windowSlices is how many equal slices the measured window is cut into.
const windowSlices = 20

// booked records one acknowledged measured update in the whole-window
// accounting and in its slice: the current round on commu_backlog, else
// the twentieth of the window that done falls in.
func (c *client) booked(r *run, done time.Time, lat time.Duration) (slice int) {
	c.acked++
	c.upd.record(lat)
	i := len(r.roundTotal) // the round in progress
	if !r.w.rounds {
		i = int(done.Sub(r.windowStart) * windowSlices / r.cfg.window)
	}
	s := c.slice(i)
	s.acked++
	s.upd.record(lat)
	return i
}

// reader is the closed-loop reader: one read after another at the given
// level and site until the deadline.  In the session phase every tenth
// op is a session write at the writer's site followed by a read of the
// same key, which must return that write.
func (r *run) reader(c *client, lvl consistency.Level, site int, deadline time.Time, measured bool, o core.ReadOptions) {
	ls := &c.reads[lvl]
	phaseStart := time.Now()
	for n := 0; ; n++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		keys := c.readKeys[c.readPos%len(c.readKeys)]
		c.readPos++
		if measured {
			c.attempted++
		}
		var want int64
		ryw := false
		if lvl == consistency.Session && n%sessionWriteOne == sessionWriteOne-1 {
			key := c.sessKeys[len(c.sessWrites)%len(c.sessKeys)] // the reader's own keys: no other writer touches them
			want = int64(len(c.sessWrites) + 1)
			if _, err := c.sess.Update(siteID(c.site), []op.Op{op.WriteOp(key, want)}); err != nil {
				if measured {
					c.failed++
				}
				continue
			}
			c.sessWrites = append(c.sessWrites, kv{key, want})
			keys, ryw = []string{key}, true
			if measured {
				c.attempted++
				ls.ops++
			}
		}
		var res et.QueryResult
		var err error
		if lvl == consistency.Session {
			res, err = c.sess.Read(siteID(site), keys)
		} else {
			res, err = r.sys.read(site, keys, o)
		}
		c.readsIssued[lvl]++
		lat := time.Since(t0)
		if !measured {
			continue
		}
		ls.ops++
		ls.lat.record(lat)
		switch {
		case errors.Is(err, session.ErrGuaranteeTimeout), err == nil && res.Waited >= gateTimeout:
			ls.gateTimeouts++
		case err != nil:
			c.failed++
		case res.Level != lvl:
			c.violate("read at %v echoed level %v", lvl, res.Level)
		case lvl == consistency.Bounded && o.Epsilon != divergence.Unlimited && res.Inconsistency > int(o.Epsilon):
			c.violate("bounded read imported %d > eps %d", res.Inconsistency, o.Epsilon)
		case ryw && res.Value(keys[0]).Num != want:
			c.violate("session read of %s returned %d after writing %d", keys[0], res.Value(keys[0]).Num, want)
		}
	}
	if measured {
		ls.elapsed += time.Since(phaseStart)
	}
}
