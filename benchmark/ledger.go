package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/queue"
	"esr/internal/replica"
	"esr/internal/session"
	"esr/internal/sim"
	"esr/internal/storage"
	"esr/internal/wal"
)

// The ledger times each layer's public functions directly, outside any
// workload: fixed iteration counts, inputs shaped like the workloads'
// (1- and 4-op Inc MSets, "k<n>" keys).  scale divides the iteration
// counts (the smoke test runs at 1/100).  Every figure is the median of
// ledgerReps repetitions of the same loop (one repetition at scale 100
// and beyond, where only the names matter).
const ledgerReps = 3

type ledger struct {
	out   map[string]metric
	scale int
	reps  int
	dir   string
}

func (l *ledger) n(full int) int {
	if n := full / l.scale; n > 1 {
		return n
	}
	return 1
}

func (l *ledger) set(name string, v float64) { l.out[name] = metric{v, unitOf(name)} }

// timed runs f(n) l.reps times and returns the median time and
// allocation count per iteration.
func (l *ledger) timed(n int, f func(n int)) (perOp time.Duration, allocs float64) {
	return l.timedSelf(n, func(n int) time.Duration {
		start := time.Now()
		f(n)
		return time.Since(start)
	})
}

// timedSelf is timed for loops that time only part of each iteration
// themselves; allocations are still counted over the whole call.
func (l *ledger) timedSelf(n int, f func(n int) time.Duration) (perOp time.Duration, allocs float64) {
	times := make([]time.Duration, l.reps)
	mallocs := make([]float64, l.reps)
	var before, after runtime.MemStats
	for i := range times {
		runtime.ReadMemStats(&before)
		times[i] = f(n)
		runtime.ReadMemStats(&after)
		mallocs[i] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return median(times) / time.Duration(n), medianOf(mallocs)
}

func nsPer(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func usPer(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ledgerKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	return keys
}

func incMSet(keys []string, i, ops int) et.MSet {
	m := et.MSet{ET: et.MakeID(1, uint64(i+1)), Origin: 1, TS: clock.Timestamp{Time: uint64(i + 1), Site: 1}}
	for j := 0; j < ops; j++ {
		m.Ops = append(m.Ops, op.IncOp(keys[(i*ops+j)%len(keys)], 1))
	}
	return m
}

// runLedger measures every L-sourced per-layer metric.
func runLedger(scale int, workdir string) (map[string]metric, error) {
	dir, err := os.MkdirTemp(workdir, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := &ledger{out: map[string]metric{}, scale: scale, reps: ledgerReps, dir: dir}
	if scale >= 100 {
		l.reps = 1
	}
	keys := ledgerKeys(1 << 16)
	l.pure(keys)
	l.lockAndStorage(keys)
	for _, step := range []func([]string) error{l.journals, l.transports, l.sequencers, l.drain, l.reads, l.updates} {
		if err := step(keys); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

var sink any // keeps measured results alive

func (l *ledger) pure(keys []string) {
	inc := op.IncOp(keys[0], 1)
	v := op.NumValue(0)
	d, _ := l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			v = inc.Apply(v)
		}
	})
	sink = v
	l.set("op.apply_ns", nsPer(d))
	other := op.IncOp(keys[0], 2)
	ok := false
	d, _ = l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			ok = inc.Commutes(other)
		}
	})
	sink = ok
	l.set("op.commutes_ns", nsPer(d))

	m4 := incMSet(keys, 0, 4)
	var enc []byte
	d, _ = l.timed(l.n(20_000), func(n int) {
		for i := 0; i < n; i++ {
			enc, _ = m4.Encode() // gob-encoding a value of a fixed, encodable type cannot fail
		}
	})
	l.set("et.encode_ns", nsPer(d))
	l.set("et.mset_bytes_4op", float64(len(enc)))
	d, _ = l.timed(l.n(20_000), func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = et.DecodeMSet(enc)
		}
	})
	l.set("et.decode_ns", nsPer(d))
	enc1, _ := incMSet(keys, 0, 1).Encode()
	l.set("et.mset_bytes_1op", float64(len(enc1)))
}

func (l *ledger) lockAndStorage(keys []string) {
	lm := lock.NewManager(lock.COMMU)
	defer lm.Close()
	d, allocs := l.timed(l.n(500_000), func(n int) {
		for i := 0; i < n; i++ {
			tx := lock.TxID(i + 1)
			// An uncontended WU request is always granted.
			_ = lm.Acquire(tx, lock.WU, op.IncOp(keys[i%len(keys)], 1))
			lm.ReleaseAll(tx)
		}
	})
	l.set("lock.acquire_release_ns", nsPer(d))
	l.set("lock.acquire_release_allocs", allocs)
	d, _ = l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)]
			lm.IncCounter(k)
			lm.DecCounter(k)
		}
	})
	l.set("lock.counter_inc_dec_ns", nsPer(d))

	st := storage.NewStore()
	d, _ = l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			sink = st.Apply(op.IncOp(keys[i%len(keys)], 1))
		}
	})
	l.set("storage.apply_ns", nsPer(d))
	d, _ = l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			sink = st.Get(keys[i%len(keys)])
		}
	})
	l.set("storage.get_ns", nsPer(d))

	mv := storage.NewMVStore()
	tick := uint64(0)
	d, _ = l.timed(l.n(500_000), func(n int) {
		for i := 0; i < n; i++ {
			tick++
			mv.InstallMonotone(keys[i%len(keys)], clock.Timestamp{Time: tick, Site: 1}, op.NumValue(int64(i)))
		}
	})
	l.set("storage.mv_install_ns", nsPer(d))
	deep := storage.NewMVStore()
	for _, k := range keys[:1024] {
		for ver := 1; ver <= 8; ver++ {
			deep.InstallMonotone(k, clock.Timestamp{Time: uint64(ver * 10), Site: 1}, op.NumValue(int64(ver)))
		}
	}
	mid := clock.Timestamp{Time: 45, Site: 1}
	d, _ = l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = deep.ReadAt(keys[i%1024], mid)
		}
	})
	l.set("storage.mv_readat_depth8_ns", nsPer(d))
	d, _ = l.timed(l.n(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			deep.Unpin(deep.Pin(mid))
		}
	})
	l.set("storage.pin_unpin_ns", nsPer(d))
}

func fileSize(path string) float64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(info.Size())
}

func (l *ledger) journals(keys []string) error {
	path := filepath.Join(l.dir, "ledger.wal")
	w, _, err := wal.Open(path)
	if err != nil {
		return err
	}
	seq := 0
	next := func(k int) []et.MSet {
		ms := make([]et.MSet, k)
		for i := range ms {
			ms[i] = incMSet(keys, seq, 1)
			seq++
		}
		return ms
	}
	var ferr error
	keep := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	d, _ := l.timed(l.n(300), func(n int) {
		for i := 0; i < n; i++ {
			keep(w.Append(next(1)[0]))
		}
	})
	l.set("wal.append1_us", usPer(d))
	d, _ = l.timed(l.n(100), func(n int) {
		for i := 0; i < n; i++ {
			keep(w.AppendBatch(next(32)))
		}
	})
	l.set("wal.append32_us", usPer(d))
	l.set("wal.bytes_per_mset", ratio(fileSize(path), float64(seq)))
	keep(w.Close())

	qpath := filepath.Join(l.dir, "ledger.queue")
	q, err := queue.Open(qpath)
	if err != nil {
		return err
	}
	payload, _ := incMSet(keys, 0, 1).Encode()
	id := uint64(0)
	msgs := func(k int) []queue.Message {
		out := make([]queue.Message, k)
		for i := range out {
			id++
			out[i] = queue.Message{ID: id, Payload: payload}
		}
		return out
	}
	d, _ = l.timed(l.n(300), func(n int) {
		for i := 0; i < n; i++ {
			keep(q.Enqueue(msgs(1)[0]))
		}
	})
	l.set("queue.file_enqueue1_us", usPer(d))
	d, _ = l.timed(l.n(100), func(n int) {
		for i := 0; i < n; i++ {
			keep(q.EnqueueBatch(msgs(32)))
		}
	})
	l.set("queue.file_enqueue32_us", usPer(d))
	l.set("queue.journal_bytes_per_msg", ratio(fileSize(qpath), float64(id)))
	acked := uint64(0)
	d, _ = l.timed(l.n(100), func(n int) {
		for i := 0; i < n && acked+32 <= id; i++ {
			ids := make([]uint64, 32)
			for j := range ids {
				acked++
				ids[j] = acked
			}
			keep(q.AckBatch(ids))
		}
	})
	l.set("queue.file_ack32_us", usPer(d))
	keep(q.Close())

	mem := queue.NewMem()
	d, _ = l.timed(l.n(200_000), func(n int) {
		for _, m := range msgs(n) {
			keep(mem.Enqueue(m))
		}
	})
	l.set("queue.mem_enqueue_ns", nsPer(d))
	keep(mem.Close())
	return ferr
}

func (l *ledger) transports(keys []string) error {
	payload, _ := incMSet(keys, 0, 1).Encode()
	batch := make([][]byte, 32)
	for i := range batch {
		batch[i] = payload
	}
	echo := func(clock.SiteID, []byte) ([]byte, error) { return nil, nil }
	swallow := func(clock.SiteID, [][]byte) error { return nil }

	a, err := network.NewTCP(network.TCPOptions{Listen: "127.0.0.1:0", Local: []clock.SiteID{1}, Seed: 1})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := network.NewTCP(network.TCPOptions{Listen: "127.0.0.1:0", Local: []clock.SiteID{2}, Seed: 2})
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	b.Register(2, echo)
	b.RegisterBatch(2, swallow)
	var ferr error
	keep := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	keep(a.Send(1, 2, payload)) // dial outside the timed loops
	d, _ := l.timed(l.n(5_000), func(n int) {
		for i := 0; i < n; i++ {
			keep(a.Send(1, 2, payload))
		}
	})
	l.set("network.tcp_send_us", usPer(d))
	d, _ = l.timed(l.n(2_000), func(n int) {
		for i := 0; i < n; i++ {
			keep(a.SendBatch(1, 2, batch))
		}
	})
	l.set("network.tcp_batch32_us", usPer(d))
	d, _ = l.timed(l.n(5_000), func(n int) {
		for i := 0; i < n; i++ {
			_, err := a.Call(1, 2, payload[:8])
			keep(err)
		}
	})
	l.set("network.tcp_call_us", usPer(d))

	s, err := network.New(network.Config{Seed: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	s.Register(2, echo)
	d, _ = l.timed(l.n(500_000), func(n int) {
		for i := 0; i < n; i++ {
			keep(s.Send(1, 2, payload))
		}
	})
	l.set("network.sim_send_ns", nsPer(d))
	return ferr
}

func (l *ledger) sequencers([]string) error {
	var seq clock.Sequencer
	d, _ := l.timed(l.n(5_000_000), func(n int) {
		for i := 0; i < n; i++ {
			sink = seq.Next()
		}
	})
	l.set("clock.seq_next_ns", nsPer(d))

	// A three-member no-fault ensemble, reserved through the cluster's
	// own client.  The first reservation waits out the election.
	eng, err := sim.NewEngine(sim.ORDUPSeq, numSites, network.Config{Seed: 1}, sim.Options{SeqReplicas: numSites})
	if err != nil {
		return err
	}
	defer eng.Close()
	c := eng.Cluster()
	if _, err := c.NextSeq(1); err != nil {
		return fmt.Errorf("seqrep ensemble: %w", err)
	}
	var ferr error
	d, _ = l.timed(l.n(3_000), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.NextSeq(1); err != nil && ferr == nil {
				ferr = err
			}
		}
	})
	l.set("seqrep.reserve_us", usPer(d))
	return ferr
}

// drain times a standalone site, outside any cluster, taking W commuting
// four-op MSets in one batch and applying them with a no-op ApplyFunc:
// what is left is the scheduling pass itself (queue scan, sort, conflict
// grouping, worker hand-off, ack).
func (l *ledger) drain(keys []string) error {
	for _, w := range []int{64, 1024, 8192} {
		batches := l.n(8192*2) / w
		if w == 8192 {
			batches = 1 // one pass over 8192 MSets already takes seconds
		}
		if batches < 1 {
			batches = 1
		}
		var ferr error
		d, _ := l.timed(batches, func(n int) {
			site := replica.NewSite(1, queue.NewMem(), lock.COMMU)
			site.SetApply(func(et.MSet) error { return nil })
			site.Start()
			defer site.Stop()
			for b := 0; b < n; b++ {
				msgs := make([]queue.Message, w)
				msets := make([]et.MSet, w)
				for i := range msets {
					msets[i] = incMSet(keys, b*w+i, 4)
					msgs[i] = queue.Message{ID: msets[i].MsgID()}
				}
				if err := site.ReceiveDecodedBatch(msgs, msets); err != nil && ferr == nil {
					ferr = err
				}
				for site.QueueLen() != 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		})
		if ferr != nil {
			return ferr
		}
		l.set(fmt.Sprintf("replica.drain_w%d_ns_per_mset", w), nsPer(d)/float64(w))
	}
	return nil
}

// reads times one read per level on an idle three-site in-memory
// cluster with nothing pending.
func (l *ledger) reads(keys []string) error {
	eng, err := sim.NewEngine(sim.RITUSV, numSites, network.Config{Seed: 1}, sim.Options{})
	if err != nil {
		return err
	}
	defer eng.Close()
	c := eng.Cluster()
	for _, k := range keys[:1024] {
		if _, err := eng.Update(1, []op.Op{op.WriteOp(k, 1)}); err != nil {
			return err
		}
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		return err
	}
	sess, err := session.NewWith(eng, session.Config{WaitTimeout: gateTimeout, ReadYourWrites: true, MonotonicReads: true})
	if err != nil {
		return err
	}
	var ferr error
	for _, lvl := range readLevels {
		o := core.ReadOptions{Level: lvl, Epsilon: 2, MaxStaleness: 50 * time.Millisecond, WaitTimeout: gateTimeout}
		d, allocs := l.timed(l.n(100_000), func(n int) {
			for i := 0; i < n; i++ {
				key := keys[i%1024 : i%1024+1]
				var err error
				if lvl == consistency.Session {
					_, err = sess.Read(2, key)
				} else {
					_, err = core.ReadAtSite(c, 2, key, o)
				}
				if err != nil && ferr == nil {
					ferr = err
				}
			}
		})
		l.set("core.read_"+levelNames[lvl]+"_ns", nsPer(d))
		if lvl == consistency.Eventual {
			l.set("core.read_eventual_allocs", allocs)
		}
	}
	return ferr
}

// updates times one Update per method on an idle three-site in-memory
// cluster: only the Update call is timed, and the cluster drains before
// the next one.  The allocation count covers the update's whole life
// (admission, propagation, apply at three sites).
func (l *ledger) updates(keys []string) error {
	for _, m := range []struct {
		name string
		kind sim.EngineKind
		ops  func(i int) []op.Op
	}{
		{"ordup", sim.ORDUPSeq, func(i int) []op.Op { return []op.Op{op.IncOp(keys[i%len(keys)], 1)} }},
		{"commu", sim.COMMU, func(i int) []op.Op { return incMSet(keys, i, 4).Ops }},
		{"ritu", sim.RITUSV, func(i int) []op.Op { return []op.Op{op.WriteOp(keys[i%len(keys)], int64(i))} }},
		{"compe", sim.COMPE, func(i int) []op.Op { return incMSet(keys, i, 2).Ops }},
	} {
		eng, err := sim.NewEngine(m.kind, numSites, network.Config{Seed: 1}, sim.Options{})
		if err != nil {
			return err
		}
		var ferr error
		issued := 0
		d, allocs := l.timedSelf(l.n(200), func(n int) (busy time.Duration) {
			for i := 0; i < n; i++ {
				ops := m.ops(issued)
				issued++
				start := time.Now()
				_, err := eng.Update(1, ops)
				busy += time.Since(start)
				if err == nil {
					err = eng.Cluster().Quiesce(30 * time.Second)
				}
				if err != nil && ferr == nil {
					ferr = err
				}
			}
			return busy
		})
		eng.Close()
		if ferr != nil {
			return fmt.Errorf("%s update: %w", m.name, ferr)
		}
		l.set(m.name+".update_ns", nsPer(d))
		l.set(m.name+".update_allocs", allocs)
	}
	return nil
}
