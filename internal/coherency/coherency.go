// Package coherency implements the synchronous 1-copy-serializable
// coherency-control baselines the paper argues against (§1, §2.4):
//
//   - TwoPC: read-one-write-all with two-phase commit.  "We say that a
//     coherency control method is synchronous because a distributed
//     transaction requires a commit agreement protocol to synchronize
//     the transaction outcome.  This is a big handicap when network
//     links have very low bandwidth or moderately high latency."
//   - Quorum: weighted voting (Gifford [15]) with read quorum r and
//     write quorum w, r+w > n.
//
// Both implement core.Engine so the experiment harness can run identical
// workloads against the asynchronous replica-control methods and these
// baselines.  Updates block on network round trips and fail under
// partitions; that synchrony is precisely what E1 and E5 measure.
package coherency

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/lock"
	"esr/internal/op"
	"esr/internal/replica"
)

// Protocol selects the baseline.
type Protocol int

const (
	// TwoPC is read-one-write-all with two-phase commit.
	TwoPC Protocol = iota
	// Quorum is weighted voting with configurable quorum sizes.
	Quorum
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == Quorum {
		return "QUORUM"
	}
	return "2PC-ROWA"
}

// Errors returned by the engines.
var (
	// ErrUnavailable reports that the required sites (all for 2PC, a
	// quorum for voting) could not be reached.
	ErrUnavailable = errors.New("coherency: required replicas unavailable")
	// ErrNotUpdate reports an ET with no update operation.
	ErrNotUpdate = errors.New("coherency: ET contains no update operation")
)

// Config parameterizes a baseline engine.
type Config struct {
	// Core configures the cluster chassis (sites and network).
	Core core.Config
	// Protocol selects 2PC-ROWA or quorum voting.
	Protocol Protocol
	// ReadQuorum and WriteQuorum set r and w for Quorum.  Zero values
	// default to r = 1 and w = n (ROWA-shaped quorums satisfy r+w > n).
	ReadQuorum, WriteQuorum int
	// ReadRepair, for Quorum, writes the freshest version back to stale
	// quorum members during reads (Gifford's version reconciliation).
	ReadRepair bool
	// Weights assigns per-site vote weights for Quorum (Gifford's
	// weighted voting [15]); Weights[i] is site i+1's weight.  Empty
	// means one vote per site.  Quorum sizes are then vote totals:
	// ReadQuorum + WriteQuorum must exceed the total votes.
	Weights []int
}

// Stats counts baseline activity.
type Stats struct {
	Commits uint64
	Aborts  uint64
	RPCs    uint64
	Repairs uint64 // stale quorum members refreshed by read-repair
}

// request is the RPC envelope between coordinator and participants.
type request struct {
	Kind    string // "prepare", "commit", "abort", "read", "qlock", "qwrite", "qread", "qrelease"
	Tx      lock.TxID
	Ops     []op.Op
	Objects []string
	Value   op.Value
	Version uint64
	Object  string
}

type response struct {
	Vals     map[string]op.Value
	Version  uint64
	Value    op.Value
	ErrorMsg string
}

// Engine is a synchronous coherency-control baseline.
type Engine struct {
	cfg Config
	c   *core.Cluster

	locks map[clock.SiteID]*lock.Manager // each participant's strict-2PL locks

	mu     sync.Mutex
	staged map[clock.SiteID]map[lock.TxID][]op.Op
	stats  Stats
}

// New builds a baseline engine.  The chassis' stable-queue machinery is
// idle: updates travel through synchronous RPC instead.
func New(cfg Config) (*Engine, error) {
	n := cfg.Core.Sites
	if cfg.Protocol == Quorum {
		totalVotes := n
		if len(cfg.Weights) > 0 {
			if len(cfg.Weights) != n {
				return nil, fmt.Errorf("coherency: %d weights for %d sites", len(cfg.Weights), n)
			}
			totalVotes = 0
			for i, w := range cfg.Weights {
				if w < 0 {
					return nil, fmt.Errorf("coherency: negative weight for site %d", i+1)
				}
				totalVotes += w
			}
			if totalVotes == 0 {
				return nil, fmt.Errorf("coherency: all weights are zero")
			}
		}
		if cfg.ReadQuorum <= 0 {
			cfg.ReadQuorum = 1
		}
		if cfg.WriteQuorum <= 0 {
			cfg.WriteQuorum = totalVotes
		}
		if cfg.ReadQuorum+cfg.WriteQuorum <= totalVotes {
			return nil, fmt.Errorf("coherency: r+w must exceed the total votes (r=%d w=%d votes=%d)",
				cfg.ReadQuorum, cfg.WriteQuorum, totalVotes)
		}
	}
	c, err := core.New(cfg.Core)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		c:      c,
		locks:  make(map[clock.SiteID]*lock.Manager),
		staged: make(map[clock.SiteID]map[lock.TxID][]op.Op),
	}
	// The MSet path is unused; install a trivial ApplyFunc and replace
	// each site's network handler with the RPC dispatcher.
	c.Setup(func(s *replica.Site) replica.ApplyFunc {
		return func(et.MSet) error { return nil }
	})
	for _, id := range c.SiteIDs() {
		id := id
		e.locks[id] = lock.NewManager(lock.Standard)
		e.staged[id] = make(map[lock.TxID][]op.Op)
		c.Net.Register(id, func(from clock.SiteID, payload []byte) ([]byte, error) {
			return e.serve(id, payload)
		})
	}
	return e, nil
}

// Name implements core.Engine.
func (e *Engine) Name() string { return e.cfg.Protocol.String() }

// Traits implements core.Engine.  Baselines have no Table 1 column; the
// row describes them in the same vocabulary for side-by-side printing.
func (e *Engine) Traits() core.Traits {
	return core.Traits{
		Name:             e.Name(),
		Restriction:      "synchronous commit",
		Applicability:    "baseline (1SR)",
		AsyncPropagation: "none",
		SortingTime:      "at commit",
	}
}

// Cluster implements core.Engine.
func (e *Engine) Cluster() *core.Cluster { return e.c }

// PartialWrites reports whether committed updates intentionally reach
// only a write quorum rather than every replica.  When true, all-replica
// value identity is not this engine's correctness criterion — quorum
// reads are.
func (e *Engine) PartialWrites() bool {
	if e.cfg.Protocol != Quorum {
		return false
	}
	totalVotes := e.cfg.Core.Sites
	if len(e.cfg.Weights) > 0 {
		totalVotes = 0
		for _, w := range e.cfg.Weights {
			totalVotes += w
		}
	}
	return e.cfg.WriteQuorum < totalVotes
}

// Stats returns a snapshot of baseline counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close implements core.Engine.  It closes the lock managers first, so
// a handler still waiting for a lock fails instead of holding up the
// cluster's shutdown.
func (e *Engine) Close() error {
	for _, lm := range e.locks {
		lm.Close()
	}
	return e.c.Close()
}

// Update implements core.Engine: a synchronous, blocking, 1SR update.
func (e *Engine) Update(origin clock.SiteID, ops []op.Op) (et.ID, error) {
	if e.c.Site(origin) == nil {
		return 0, fmt.Errorf("coherency: unknown site %v", origin)
	}
	var updates []op.Op
	for _, o := range ops {
		if o.Kind.IsUpdate() {
			updates = append(updates, o)
		}
	}
	if len(updates) == 0 {
		return 0, ErrNotUpdate
	}
	id := e.c.NextET(origin)
	var err error
	if e.cfg.Protocol == TwoPC {
		err = e.update2PC(origin, lock.TxID(id), updates)
	} else {
		err = e.updateQuorum(origin, lock.TxID(id), updates)
	}
	if err != nil {
		e.count(func(s *Stats) { s.Aborts++ })
		return 0, err
	}
	e.count(func(s *Stats) { s.Commits++ })
	e.c.RecordUpdate(id, ops)
	return id, nil
}

// Query implements core.Engine.  Baseline queries are always
// serializable: ε is accepted for interface compatibility but unused.
func (e *Engine) Query(site clock.SiteID, objects []string, eps divergence.Limit) (et.QueryResult, error) {
	if e.c.Site(site) == nil {
		return et.QueryResult{}, fmt.Errorf("coherency: unknown site %v", site)
	}
	qid := e.c.NextET(site)
	var vals map[string]op.Value
	var err error
	if e.cfg.Protocol == TwoPC {
		vals, err = e.readLocal(site, lock.TxID(qid), objects)
	} else {
		vals, err = e.readQuorum(site, lock.TxID(qid), objects)
	}
	if err != nil {
		return et.QueryResult{}, err
	}
	for _, obj := range objects {
		e.c.RecordQueryRead(qid, obj)
	}
	return et.QueryResult{Values: vals, Epsilon: eps, Site: site}, nil
}

// --- 2PC-ROWA ---

func (e *Engine) update2PC(origin clock.SiteID, tx lock.TxID, ops []op.Op) error {
	sites := e.c.SiteIDs() // sorted: a total site order prevents cross-site deadlock
	prepared := make([]clock.SiteID, 0, len(sites))
	abort := func() {
		for _, sid := range prepared {
			sid := sid
			if err := e.call(origin, sid, request{Kind: "abort", Tx: tx}); err != nil {
				// The blocking weakness of 2PC: a participant we cannot
				// reach keeps its locks.  Retry in the background until
				// the partition heals.
				go e.retryUntilDelivered(origin, sid, request{Kind: "abort", Tx: tx})
			}
		}
	}
	for _, sid := range sites {
		if err := e.call(origin, sid, request{Kind: "prepare", Tx: tx, Ops: ops}); err != nil {
			abort()
			return fmt.Errorf("%w: prepare at %v: %v", ErrUnavailable, sid, err)
		}
		prepared = append(prepared, sid)
	}
	for _, sid := range sites {
		if err := e.call(origin, sid, request{Kind: "commit", Tx: tx}); err != nil {
			// Prepared participants must eventually commit.
			go e.retryUntilDelivered(origin, sid, request{Kind: "commit", Tx: tx})
		}
	}
	return nil
}

func (e *Engine) readLocal(site clock.SiteID, tx lock.TxID, objects []string) (map[string]op.Value, error) {
	resp, err := e.callResp(site, site, request{Kind: "read", Tx: tx, Objects: objects})
	if err != nil {
		return nil, err
	}
	return resp.Vals, nil
}

// --- Quorum voting ---

// voteWeight returns the site's vote weight (1 when unweighted).
func (e *Engine) voteWeight(id clock.SiteID) int {
	if len(e.cfg.Weights) == 0 {
		return 1
	}
	return e.cfg.Weights[int(id)-1]
}

func (e *Engine) updateQuorum(origin clock.SiteID, tx lock.TxID, ops []op.Op) error {
	objs := op.Objects(ops, false)
	locked := make(map[clock.SiteID]bool)
	release := func() {
		for sid := range locked {
			sid := sid
			if err := e.call(origin, sid, request{Kind: "qrelease", Tx: tx}); err != nil {
				go e.retryUntilDelivered(origin, sid, request{Kind: "qrelease", Tx: tx})
			}
		}
	}
	// Gather a write quorum (by votes), locking the objects at each
	// member.
	var quorum []clock.SiteID
	votes := 0
	for _, sid := range e.c.SiteIDs() {
		if e.voteWeight(sid) == 0 {
			continue // witness-less zero-weight copies cast no votes
		}
		if err := e.call(origin, sid, request{Kind: "qlock", Tx: tx, Objects: objs}); err != nil {
			continue
		}
		locked[sid] = true
		quorum = append(quorum, sid)
		votes += e.voteWeight(sid)
		if votes >= e.cfg.WriteQuorum {
			break
		}
	}
	if votes < e.cfg.WriteQuorum {
		release()
		return fmt.Errorf("%w: write quorum %d not reachable (got %d votes)", ErrUnavailable, e.cfg.WriteQuorum, votes)
	}
	// Per object: learn the latest version within the quorum, apply the
	// object's operations, and install the new version at every member.
	for _, obj := range objs {
		var curVal op.Value
		var curVer uint64
		for _, sid := range quorum {
			resp, err := e.callResp(origin, sid, request{Kind: "qread", Tx: tx, Object: obj})
			if err != nil {
				release()
				return fmt.Errorf("%w: version read at %v: %v", ErrUnavailable, sid, err)
			}
			if resp.Version >= curVer {
				curVer = resp.Version
				curVal = resp.Value
			}
		}
		newVal := curVal
		for _, o := range ops {
			if o.Object == obj {
				newVal = op.ApplyFull(o, newVal)
			}
		}
		for _, sid := range quorum {
			if err := e.call(origin, sid, request{
				Kind: "qwrite", Tx: tx, Object: obj, Value: newVal, Version: curVer + 1,
			}); err != nil {
				release()
				return fmt.Errorf("%w: write at %v: %v", ErrUnavailable, sid, err)
			}
		}
	}
	release()
	return nil
}

func (e *Engine) readQuorum(site clock.SiteID, tx lock.TxID, objects []string) (map[string]op.Value, error) {
	objs := append([]string(nil), objects...)
	sort.Strings(objs)
	locked := make(map[clock.SiteID]bool)
	release := func() {
		for sid := range locked {
			sid := sid
			if err := e.call(site, sid, request{Kind: "qrelease", Tx: tx}); err != nil {
				go e.retryUntilDelivered(site, sid, request{Kind: "qrelease", Tx: tx})
			}
		}
	}
	var quorum []clock.SiteID
	votes := 0
	for _, sid := range e.c.SiteIDs() {
		if e.voteWeight(sid) == 0 {
			continue
		}
		if err := e.call(site, sid, request{Kind: "qlock", Tx: tx, Objects: objs}); err != nil {
			continue
		}
		locked[sid] = true
		quorum = append(quorum, sid)
		votes += e.voteWeight(sid)
		if votes >= e.cfg.ReadQuorum {
			break
		}
	}
	if votes < e.cfg.ReadQuorum {
		release()
		return nil, fmt.Errorf("%w: read quorum %d not reachable (got %d votes)", ErrUnavailable, e.cfg.ReadQuorum, votes)
	}
	vals := make(map[string]op.Value, len(objs))
	for _, obj := range objs {
		var curVal op.Value
		var curVer uint64
		versions := make(map[clock.SiteID]uint64, len(quorum))
		for _, sid := range quorum {
			resp, err := e.callResp(site, sid, request{Kind: "qread", Tx: tx, Object: obj})
			if err != nil {
				release()
				return nil, fmt.Errorf("%w: read at %v: %v", ErrUnavailable, sid, err)
			}
			versions[sid] = resp.Version
			if resp.Version >= curVer {
				curVer = resp.Version
				curVal = resp.Value
			}
		}
		vals[obj] = curVal
		if e.cfg.ReadRepair {
			// Gifford-style reconciliation: refresh members whose copy
			// lags the freshest version seen by this read.
			for _, sid := range quorum {
				if versions[sid] >= curVer {
					continue
				}
				if err := e.call(site, sid, request{
					Kind: "qwrite", Tx: tx, Object: obj, Value: curVal, Version: curVer,
				}); err == nil {
					e.count(func(s *Stats) { s.Repairs++ })
				}
			}
		}
	}
	release()
	return vals, nil
}

// --- participant side ---

func (e *Engine) serve(site clock.SiteID, payload []byte) ([]byte, error) {
	var req request
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&req); err != nil {
		return nil, fmt.Errorf("coherency: bad request: %w", err)
	}
	s := e.c.Site(site)
	locks := e.locks[site]
	var resp response
	switch req.Kind {
	case "prepare":
		objs := op.Objects(req.Ops, false)
		for _, obj := range objs {
			// 2PC participant: prepare locks are deliberately held past
			// this handler and released by the later commit/abort message.
			//esrvet:ignore A1 prepare locks are released by the commit/abort handler
			if err := locks.Acquire(req.Tx, lock.WU, op.Op{Kind: op.Write, Object: obj}); err != nil {
				locks.ReleaseAll(req.Tx)
				return nil, err
			}
		}
		e.mu.Lock()
		e.staged[site][req.Tx] = req.Ops
		e.mu.Unlock()
	case "commit":
		e.mu.Lock()
		ops := e.staged[site][req.Tx]
		delete(e.staged[site], req.Tx)
		e.mu.Unlock()
		for _, o := range ops {
			s.Store.Apply(o)
		}
		locks.ReleaseAll(req.Tx)
	case "abort", "qrelease":
		e.mu.Lock()
		delete(e.staged[site], req.Tx)
		e.mu.Unlock()
		locks.ReleaseAll(req.Tx)
	case "read":
		sorted := append([]string(nil), req.Objects...)
		sort.Strings(sorted)
		vals := make(map[string]op.Value, len(sorted))
		for _, obj := range sorted {
			if err := locks.Acquire(req.Tx, lock.RU, op.ReadOp(obj)); err != nil {
				locks.ReleaseAll(req.Tx)
				return nil, err
			}
			vals[obj] = s.Store.Get(obj)
		}
		locks.ReleaseAll(req.Tx)
		resp.Vals = vals
	case "qlock":
		for _, obj := range req.Objects {
			// Quorum write locks are held until the coordinator's
			// qrelease message, mirroring the prepare/commit split above.
			//esrvet:ignore A1 qlock locks are released by the qrelease handler
			if err := locks.Acquire(req.Tx, lock.WU, op.Op{Kind: op.Write, Object: obj}); err != nil {
				locks.ReleaseAll(req.Tx)
				return nil, err
			}
		}
	case "qread":
		// A quorum copy's version number is its chain head's time.
		v, _ := s.Store.ReadAt(req.Object, clock.Latest)
		resp.Value, resp.Version = v.Val, v.TS.Time
	case "qwrite":
		s.Store.InstallNewer(req.Object, clock.Timestamp{Time: req.Version}, req.Value)
	default:
		return nil, fmt.Errorf("coherency: unknown request %q", req.Kind)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// --- plumbing ---

func (e *Engine) call(from, to clock.SiteID, req request) error {
	_, err := e.callResp(from, to, req)
	return err
}

func (e *Engine) callResp(from, to clock.SiteID, req request) (response, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return response{}, err
	}
	e.count(func(s *Stats) { s.RPCs++ })
	var raw []byte
	var err error
	if from == to {
		// A site talking to itself does not cross the network.
		raw, err = e.serve(to, buf.Bytes())
	} else {
		raw, err = e.c.Net.Call(from, to, buf.Bytes())
	}
	if err != nil {
		return response{}, err
	}
	var resp response
	if len(raw) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&resp); err != nil {
			return response{}, err
		}
	}
	return resp, nil
}

// retryUntilDelivered keeps resending a control message (abort/commit/
// release) until the destination acknowledges — the baseline's own
// "stable queue", needed because 2PC participants must not hold locks
// forever after a coordinator-side partition.
func (e *Engine) retryUntilDelivered(from, to clock.SiteID, req request) {
	for i := 0; i < 10000; i++ {
		if err := e.call(from, to, req); err == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (e *Engine) count(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}
