package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"esr/internal/compe"
	"esr/internal/consistency"
	"esr/internal/network"
	"esr/internal/replica"
	"esr/internal/session"
)

// gateTimeout is the WaitTimeout every gated read passes.  A read that
// parks this long is counted as a gate time-out — never as a fast read.
const gateTimeout = 100 * time.Millisecond

// pollEvery is the observer's poll period and therefore the resolution
// of every propagation figure.
const pollEvery = 200 * time.Microsecond

// napUntil blocks the calling thread in nanosleep(2) until t.  Go's own
// timers round an idle wait up to whole milliseconds (the netpoller's
// epoll timeout), which would turn a 200 µs poll into 1.1 ms and make a
// 1 ms pacing period unkeepable; the system call wakes within ~0.1 ms.
func napUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted nap only wakes the caller early; both callers
		// re-check the clock.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// readLevels is the menu order of ritu_read_menu's four phases, and
// readPhaseEnds when each ends, in tenths of the window.  The eventual
// phase gets one tenth: its reader never parks, so it takes a core of two
// from the write path for as long as it lasts (update p50 twofold,
// propagation p80 tenfold), and a tenth of the window gives its rate a
// hundred thousand reads while leaving eighteen of twenty slices to the
// write path's ordinary state.
var (
	readLevels    = []consistency.Level{consistency.Strong, consistency.Bounded, consistency.Session, consistency.Eventual}
	readPhaseEnds = []time.Duration{3, 6, 9, 10}
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // measured window
	traced   bool          // build the cluster with Options{Trace, Metrics}
	workdir  string        // where journals go
	setups   int           // set-ups timed per run; the last one is kept
}

func (c runConfig) warm() time.Duration { return c.window / 10 }

// client is one load-generating goroutine's private state.  Nothing in
// it is shared while a phase runs; the harness reads it between phases.
type client struct {
	id   int
	site int // where its updates originate
	pool *etPool

	issued    int   // update ETs issued so far (warm-up included)
	failedIdx []int // issue indexes whose Update/Begin errored
	keptIdx   []int // issue indexes begun for abort whose Abort errored (they stay applied)

	upd       hist // ack latency of measured updates
	slices    []*sliceStats
	late      hist   // paced writers: actual minus intended send time
	lateOver  uint64 // sends later than half a period
	acked     uint64 // measured updates acknowledged
	attempted uint64 // measured ops attempted (updates and reads)
	failed    uint64 // measured ops that errored or returned a value their level forbids

	reads       [4]levelStats // indexed by consistency.Level
	sess        *session.S
	sessWrites  []kv // session-phase writes, in program order
	sessKeys    []string
	readKeys    [][]string
	readPos     int
	readsIssued [4]uint64 // by level, warm-up included (the registry's counters have no window)
	violations  []string
}

// sliceStats is one client's share of one slice of the measured window.
// The window is cut into slices — twenty equal spans of time, or on
// commu_backlog its rounds — and the rate and latency metrics are the
// median over slices, so that a second of interference from the host
// moves one slice and not the figure.
type sliceStats struct {
	acked uint64
	upd   hist
}

// slice returns the client's stats for slice i, growing the list.
func (c *client) slice(i int) *sliceStats {
	for len(c.slices) <= i {
		c.slices = append(c.slices, &sliceStats{})
	}
	return c.slices[i]
}

type kv struct {
	key string
	val int64
}

// levelStats is one read level's measured phase.
type levelStats struct {
	lat          hist
	ops          uint64
	elapsed      time.Duration
	gateTimeouts uint64
}

func (c *client) violate(format string, args ...any) {
	if len(c.violations) < 20 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
	c.failed++
}

// run is the shared context of one workload run.
type run struct {
	cfg     runConfig
	w       *workload
	sys     *system
	obs     *observer
	clients []*client
	ks      *keyspace

	setupTimes     []time.Duration
	windowTime     time.Duration   // measured window as run: first client start to last client stop
	windowStart    time.Time       // when the measured phase began
	roundSubmit    []time.Duration // commu_backlog: per round, until both clients had submitted
	roundTotal     []time.Duration // commu_backlog: per round, until every site had applied it
	abortsMeasured uint64          // COMPE ETs issued as Begin→Abort in the window
}

// probe is one acknowledged probe update the observer is watching for
// at the two sites other than its origin.
type probe struct {
	key      string
	want     int64
	origin   int
	acked    time.Time
	measured bool
	slice    int // the slice of the measured window it was acknowledged in
}

// observer is the one goroutine besides the two clients: it sleeps
// pollEvery between polls, resolves probes, and every 10 ms samples
// queue depths and site staleness.
type observer struct {
	sys      *system
	in       chan probe
	skipped  atomic.Uint64 // probes dropped because in was full
	sampling atomic.Bool   // set during the measured window
	stop     chan struct{}
	done     chan struct{}

	pending  []probe
	lat      hist
	sliceLat []*hist // propagation by slice of the measured window
	resolved uint64
	lost     uint64 // probes not visible within probeExpiry
	inqMax   int
	outMax   int
	stale    hist
}

// probeCheck is how many pending probes one poll examines.
const probeCheck = 32

// probeExpiry is how long the observer watches one probe before it
// declares it lost.
const probeExpiry = 20 * time.Second

func newObserver(sys *system) *observer {
	// 4096 pending hand-offs cover 200 µs of probes at any rate the
	// clients reach; a full channel is counted, not waited on.
	o := &observer{sys: sys, in: make(chan probe, 4096), stop: make(chan struct{}), done: make(chan struct{})}
	go o.loop()
	return o
}

func (o *observer) submit(p probe) {
	select {
	case o.in <- p:
	default:
		o.skipped.Add(1)
	}
}

func (o *observer) visible(p probe) bool {
	for i := 1; i <= numSites; i++ {
		if i != p.origin && o.sys.sites[i].Store.Get(p.key).Num != p.want {
			return false
		}
	}
	return true
}

func (o *observer) loop() {
	defer close(o.done)
	var giveUp time.Time // set once finish has been called
	for tick := 0; ; tick++ {
		o.poll(!giveUp.IsZero())
		if giveUp.IsZero() {
			select {
			case <-o.stop:
				giveUp = time.Now().Add(probeExpiry + time.Second)
			default:
			}
		} else if (len(o.pending) == 0 && len(o.in) == 0) || time.Now().After(giveUp) {
			return
		}
		if tick%50 == 0 && o.sampling.Load() {
			o.sample()
		}
		napUntil(time.Now().Add(pollEvery))
	}
}

// poll takes in newly acknowledged probes and resolves visible ones.
// Sites apply in near-FIFO order, so only the oldest few pending probes
// can have become visible; examining all of them on every poll would
// cost a core under a seconds-long backlog.  The final polls, after the
// clients have stopped, examine every one.
func (o *observer) poll(all bool) {
	for {
		select {
		case p := <-o.in:
			o.pending = append(o.pending, p)
			continue
		default:
		}
		break
	}
	n := len(o.pending)
	if !all && n > probeCheck {
		n = probeCheck
	}
	now := time.Now()
	kept := o.pending[:0]
	for i, p := range o.pending {
		if i < n {
			if o.visible(p) {
				if p.measured {
					o.lat.record(now.Sub(p.acked))
					for len(o.sliceLat) <= p.slice {
						o.sliceLat = append(o.sliceLat, &hist{})
					}
					o.sliceLat[p.slice].record(now.Sub(p.acked))
					o.resolved++
				}
				continue
			}
			if now.Sub(p.acked) > probeExpiry {
				o.lost++
				continue
			}
		}
		kept = append(kept, p)
	}
	o.pending = kept
}

func (o *observer) sample() {
	for i := 1; i <= numSites; i++ {
		if n := o.sys.sites[i].QueueLen(); n > o.inqMax {
			o.inqMax = n
		}
		if n := o.sys.host[i].Cluster().OutBacklog(siteID(i)); n > o.outMax {
			o.outMax = n
		}
		o.stale.record(o.sys.sites[i].Staleness())
	}
}

// finish lets the observer resolve what is still pending (the clients
// have stopped, so nothing new arrives), then stops it and waits.
func (o *observer) finish() {
	close(o.stop)
	<-o.done
	o.lost += uint64(len(o.pending))
}

// windowMark is what the harness snapshots at both ends of the measured
// window, with the clients parked.
type windowMark struct {
	at         time.Time
	cpu        time.Duration
	mem        runtime.MemStats
	syncs      uint64
	jbytes     uint64
	net        network.Stats
	site       replica.Stats
	compensate uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark does not collect garbage itself: execute forces a collection
// before the first mark and after the second, so that the collection's
// own time and CPU fall outside the window.
func (r *run) mark() windowMark {
	m := windowMark{at: time.Now(), cpu: cpuTime(), syncs: r.sys.journalSyncs(), jbytes: r.sys.journalBytes(),
		net: r.sys.netStats(), site: r.sys.siteStats()}
	if r.w.aborts {
		m.compensate = r.sys.host[1].(*compe.Engine).Stats().OpsUndon
	}
	runtime.ReadMemStats(&m.mem)
	return m
}

// bothClients runs f for every client on its own goroutine and waits.
func (r *run) bothClients(f func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// setUp performs the whole set-up several times, timing each, and
// keeps the last: draw every key and op from the seed, construct the
// system, preload it — everything up to the point where the warm-up
// could start.  It repeats at least cfg.setups times, and on until a
// second has gone into it or maxSetups is reached, so that a set-up of
// milliseconds is timed often enough for its median to repeat.
func (r *run) setUp() error {
	const maxSetups = 40
	var spent time.Duration
	for i := 0; i < r.cfg.setups || (spent < time.Second && i < maxSetups && r.cfg.setups > 1); i++ {
		if r.sys != nil {
			r.sys.close()
			r.sys = nil
		}
		start := time.Now()
		r.clients = nil
		r.w.generate(r)
		sys, err := r.w.build(r)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.sys = sys
		if r.w.preload != nil {
			r.w.preload(r)
		}
		took := time.Since(start)
		r.setupTimes = append(r.setupTimes, took)
		spent += took
	}
	return nil
}

// journalDir makes a fresh journal directory under the work directory.
func (r *run) journalDir() (string, error) {
	if err := os.MkdirAll(r.cfg.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.cfg.workdir, "journal-")
}

// execute runs one workload: set-up, warm-up, measured window, final
// drain, oracle.
func execute(cfg runConfig) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return nil, fmt.Errorf("GOMAXPROCS=%d: the load shape needs two client goroutines running at once", runtime.GOMAXPROCS(0))
	}
	r := &run{cfg: cfg, w: w}
	if err := r.setUp(); err != nil {
		if r.sys != nil {
			r.sys.close()
		}
		return nil, err
	}
	defer r.sys.close()
	if w.attach != nil {
		w.attach(r)
	}
	r.obs = newObserver(r.sys)

	w.phase(r, cfg.warm(), false)
	if err := r.sys.waitDrained(30 * time.Second); err != nil {
		r.obs.finish()
		return nil, fmt.Errorf("after warm-up: %w", err)
	}

	runtime.GC()
	before := r.mark()
	r.obs.sampling.Store(true)
	r.windowStart = time.Now()
	w.phase(r, cfg.window, true)
	r.obs.sampling.Store(false)
	r.windowTime = time.Since(before.at)
	drainErr := r.sys.waitDrained(30 * time.Second)
	after := r.mark()
	r.obs.finish()
	if drainErr != nil {
		return nil, fmt.Errorf("after measured window: %w", drainErr)
	}
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return r.assemble(before, after, end.HeapAlloc), nil
}

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianOf(xs))
}

// fsName names the filesystem holding dir, for the result header.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Clean(dir), &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
