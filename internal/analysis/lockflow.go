package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"esr/internal/analysis/flow"
)

// This file is the interprocedural lock engine under rule A1
// (lockpair).  It runs one summary fixpoint over the call graph and one
// reporting pass:
//
//   - Per function, a forward dataflow over the CFG tracks an abstract
//     lock state: for every lock key (a canonical receiver expression
//     like "e.mu", "locks", or "st.mu/R" for read locks), whether it
//     MAY and whether it MUST be held, plus the original acquisition
//     position.
//   - Each function's exit state becomes its summary: the locks it
//     acquires for its caller (keys rooted at the receiver, a
//     parameter, or a package-level variable are rewritten into the
//     caller's namespace at each call site; keys rooted at locals
//     propagate as opaque holds) and the caller-owned locks it releases.
//   - Summaries feed back into callers' transfer functions; a worklist
//     over the call graph iterates to fixpoint.
//
// An unknown callee (interface dispatch, function value, out-of-module
// call) is assumed NOT to release the caller's locks: the sound
// direction for leak detection.

// rootKind classifies how a lock key's leftmost identifier binds, which
// decides whether the key can be rewritten into a caller's namespace.
type rootKind int

const (
	rootLocal  rootKind = iota // function-local: unmappable, becomes opaque
	rootRecv                   // method receiver
	rootParam                  // parameter (paramIdx)
	rootGlobal                 // package-level variable: canonical, no rewrite
	rootOpaque                 // already-opaque hold propagated from a callee
)

// lockKey identifies one lock in one function's namespace.
type lockKey struct {
	key      string // canonical expression ("e.mu", "st.mu/R", "opaque:…")
	kind     rootKind
	paramIdx int    // valid when kind == rootParam
	rootName string // leftmost identifier; a prefix of key (except global/opaque)
}

// lockFact is the abstract state of one lock along the paths reaching a
// program point.
type lockFact struct {
	k    lockKey
	may  bool      // held on at least one path
	must bool      // held on every path
	pos  token.Pos // original acquisition site (kept across call boundaries)
	desc string    // for opaque facts: "locks acquired in (*Engine).serve"
}

// relFact records a release of a caller-owned lock (one this function
// never acquired itself).
type relFact struct {
	k    lockKey
	must bool // released on every path
}

// lockState is the dataflow fact: held locks, keys covered by a
// registered defer, and caller-owned keys released.
type lockState struct {
	held     map[string]lockFact
	deferred map[string]bool
	released map[string]relFact
}

func newLockState() *lockState {
	return &lockState{
		held:     map[string]lockFact{},
		deferred: map[string]bool{},
		released: map[string]relFact{},
	}
}

func (s *lockState) clone() *lockState {
	n := newLockState()
	for k, v := range s.held {
		n.held[k] = v
	}
	for k := range s.deferred {
		n.deferred[k] = true
	}
	for k, v := range s.released {
		n.released[k] = v
	}
	return n
}

func (s *lockState) acquire(k lockKey, must bool, pos token.Pos, desc string) {
	if f, ok := s.held[k.key]; ok {
		f.may = true
		f.must = f.must || must
		if f.pos == token.NoPos || (pos != token.NoPos && pos < f.pos) {
			f.pos = pos
		}
		if f.desc == "" {
			f.desc = desc
		}
		s.held[k.key] = f
		return
	}
	s.held[k.key] = lockFact{k: k, may: true, must: must, pos: pos, desc: desc}
}

func (s *lockState) release(k lockKey) {
	if _, ok := s.held[k.key]; ok {
		delete(s.held, k.key)
		return
	}
	// Releasing a lock this function never acquired: a caller-owned
	// release, recorded for the function's summary.
	if r, ok := s.released[k.key]; ok {
		r.must = true
		s.released[k.key] = r
		return
	}
	s.released[k.key] = relFact{k: k, must: true}
}

// joinLockStates merges src into dst: held anywhere counts as may-held,
// held everywhere counts as must-held; deferred releases union; a
// caller-owned release survives as must only when both paths release.
func joinLockStates(dst, src *lockState) (*lockState, bool) {
	out := newLockState()
	changed := false
	for key, a := range dst.held {
		if b, ok := src.held[key]; ok {
			f := a
			f.may = a.may || b.may
			f.must = a.must && b.must
			if f.pos == token.NoPos || (b.pos != token.NoPos && b.pos < f.pos) {
				f.pos = b.pos
			}
			if f.desc == "" {
				f.desc = b.desc
			}
			out.held[key] = f
		} else {
			f := a
			f.must = false
			out.held[key] = f
		}
	}
	for key, b := range src.held {
		if _, ok := dst.held[key]; !ok {
			f := b
			f.must = false
			out.held[key] = f
		}
	}
	for k := range dst.deferred {
		out.deferred[k] = true
	}
	for k := range src.deferred {
		out.deferred[k] = true
	}
	for key, a := range dst.released {
		if b, ok := src.released[key]; ok {
			out.released[key] = relFact{k: a.k, must: a.must && b.must}
		} else {
			out.released[key] = relFact{k: a.k, must: false}
		}
	}
	for key, b := range src.released {
		if _, ok := dst.released[key]; !ok {
			out.released[key] = relFact{k: b.k, must: false}
		}
	}
	// Change detection against dst.
	if len(out.held) != len(dst.held) || len(out.deferred) != len(dst.deferred) || len(out.released) != len(dst.released) {
		return out, true
	}
	for key, f := range out.held {
		if g, ok := dst.held[key]; !ok || g.may != f.may || g.must != f.must || g.pos != f.pos {
			changed = true
			break
		}
	}
	if !changed {
		for key := range out.deferred {
			if !dst.deferred[key] {
				changed = true
				break
			}
		}
	}
	if !changed {
		for key, r := range out.released {
			if g, ok := dst.released[key]; !ok || g.must != r.must {
				changed = true
				break
			}
		}
	}
	return out, changed
}

// summaryAcq is one lock a function hands back to its caller still
// held.
type summaryAcq struct {
	k    lockKey
	must bool
	pos  token.Pos
	desc string
}

// lockSummary is a function's interprocedural effect.
type lockSummary struct {
	acquires []summaryAcq // sorted by key
	releases []relFact    // caller-owned releases, sorted by key; must only
}

func (a *lockSummary) equal(b *lockSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.acquires) != len(b.acquires) || len(a.releases) != len(b.releases) {
		return false
	}
	for i := range a.acquires {
		x, y := a.acquires[i], b.acquires[i]
		if x.k.key != y.k.key || x.must != y.must || x.pos != y.pos || x.desc != y.desc {
			return false
		}
	}
	for i := range a.releases {
		if a.releases[i].k.key != b.releases[i].k.key || a.releases[i].must != b.releases[i].must {
			return false
		}
	}
	return true
}

// lockFlow is the engine's per-module state.
type lockFlow struct {
	graph     *flow.Graph
	fset      *token.FileSet
	summaries map[*flow.FuncNode]*lockSummary
	reported  map[token.Pos]bool // dedup across functions (by acquire site)
	diags     []Diagnostic
}

// lockLeaks runs the summary fixpoint over the packages' call graph and
// reports every acquisition that can still be held when no caller is
// left to release it.
func lockLeaks(pkgs []*Package) []Diagnostic {
	fps := make([]*flow.Package, len(pkgs))
	for i, p := range pkgs {
		fps[i] = &flow.Package{Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}
	}
	lf := &lockFlow{
		graph:     flow.BuildGraph(fps),
		summaries: map[*flow.FuncNode]*lockSummary{},
		reported:  map[token.Pos]bool{},
	}
	if len(pkgs) > 0 {
		lf.fset = pkgs[0].Fset
	}
	lf.graph.Fixpoint(func(fn *flow.FuncNode) bool {
		sum := lf.computeSummary(fn)
		if sum.equal(lf.summaries[fn]) {
			return false
		}
		lf.summaries[fn] = sum
		return true
	})
	for _, fn := range lf.graph.Funcs {
		lf.reportFunc(fn)
	}
	return lf.diags
}

// --- classification ---

// lockAction classifies a call's effect on lock state.
type lockAction int

const (
	lockNone lockAction = iota
	lockAcquire
	lockRelease
)

// classifyLockCall decides whether a call acquires or releases, and on
// which receiver expression.  flavor distinguishes read locks ("/R") so
// mu.RLock pairs with mu.RUnlock, not mu.Unlock.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockAction, ast.Expr, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockNone, nil, ""
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return lockNone, nil, ""
	}
	switch {
	case strings.HasSuffix(obj.Pkg().Path(), "internal/lock") && methodOnNamed(obj, "Manager"):
		switch sel.Sel.Name {
		case "Acquire", "TryAcquire":
			return lockAcquire, sel.X, ""
		case "ReleaseAll", "Close":
			// Close unblocks waiters and poisons the manager; treating it
			// as a release avoids flagging shutdown paths.
			return lockRelease, sel.X, ""
		}
	case obj.Pkg().Path() == "sync" && (methodOnNamed(obj, "Mutex") || methodOnNamed(obj, "RWMutex")):
		switch sel.Sel.Name {
		case "Lock", "TryLock":
			return lockAcquire, sel.X, ""
		case "Unlock":
			return lockRelease, sel.X, ""
		case "RLock", "TryRLock":
			return lockAcquire, sel.X, "/R"
		case "RUnlock":
			return lockRelease, sel.X, "/R"
		}
	}
	return lockNone, nil, ""
}

// methodOnNamed reports whether fn is a method whose receiver's named
// type (through a pointer) is called name.
func methodOnNamed(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// baseIdent returns the leftmost identifier of a selector chain, or nil
// when the chain roots in something unnamable (a call result, a
// literal).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// makeKey canonicalizes a lock receiver expression in fn's namespace.
func (lf *lockFlow) makeKey(fn *flow.FuncNode, expr ast.Expr, flavor string) lockKey {
	keyStr := types.ExprString(expr) + flavor
	base := baseIdent(expr)
	if base == nil {
		return lockKey{key: keyStr, kind: rootLocal}
	}
	info := fn.Pkg.Info
	obj := info.Uses[base]
	if obj == nil {
		obj = info.Defs[base]
	}
	if pn, ok := obj.(*types.PkgName); ok {
		// Cross-package global: canonicalize as g:<pkgpath>.<rest>.
		rest := strings.TrimPrefix(keyStr, base.Name+".")
		return lockKey{key: "g:" + pn.Imported().Path() + "." + rest, kind: rootGlobal}
	}
	v, ok := obj.(*types.Var)
	if !ok || !strings.HasPrefix(keyStr, base.Name) {
		return lockKey{key: keyStr, kind: rootLocal}
	}
	if fn.RecvVar != nil && v == fn.RecvVar {
		return lockKey{key: keyStr, kind: rootRecv, rootName: base.Name}
	}
	for i, p := range fn.ParamVars {
		if p != nil && v == p {
			return lockKey{key: keyStr, kind: rootParam, paramIdx: i, rootName: base.Name}
		}
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		rest := strings.TrimPrefix(keyStr, base.Name)
		return lockKey{key: "g:" + v.Pkg().Path() + "." + base.Name + rest, kind: rootGlobal}
	}
	return lockKey{key: keyStr, kind: rootLocal, rootName: base.Name}
}

// mapKey rewrites a callee's summary key into the caller's namespace at
// one call site.  ok is false when the key cannot be expressed there
// (which only happens for malformed sites; local callee keys are
// already opaque by the time they reach a summary).
func (lf *lockFlow) mapKey(caller *flow.FuncNode, site *flow.CallSite, k lockKey) (lockKey, bool) {
	switch k.kind {
	case rootGlobal, rootOpaque:
		return k, true
	case rootRecv:
		sel, ok := site.Call.Fun.(*ast.SelectorExpr)
		if !ok {
			return lockKey{}, false
		}
		return lf.rebase(caller, k, sel.X), true
	case rootParam:
		if site.Call.Ellipsis != token.NoPos || k.paramIdx >= len(site.Call.Args) {
			return lockKey{}, false
		}
		return lf.rebase(caller, k, site.Call.Args[k.paramIdx]), true
	}
	return lockKey{}, false
}

// rebase replaces a callee key's root with the caller-side argument
// expression and reclassifies the result in the caller's namespace.
func (lf *lockFlow) rebase(caller *flow.FuncNode, k lockKey, arg ast.Expr) lockKey {
	rest := strings.TrimPrefix(k.key, k.rootName)
	argStr := types.ExprString(arg)
	nk := lf.makeKey(caller, arg, "")
	nk.key = argStr + rest
	if nk.kind == rootGlobal {
		// Re-derive the canonical global form for the full chain.
		base := baseIdent(arg)
		if base != nil {
			full := strings.TrimPrefix(nk.key, base.Name)
			obj := caller.Pkg.Info.Uses[base]
			if pn, ok := obj.(*types.PkgName); ok {
				nk.key = "g:" + pn.Imported().Path() + "." + strings.TrimPrefix(argStr+rest, base.Name+".")
			} else if v, ok := obj.(*types.Var); ok && v.Pkg() != nil {
				nk.key = "g:" + v.Pkg().Path() + "." + base.Name + full
			}
		}
	}
	return nk
}

// --- transfer ---

// evalNode interprets one CFG node, mutating st.
func (lf *lockFlow) evalNode(fn *flow.FuncNode, n ast.Node, st *lockState) {
	if d, ok := n.(*ast.DeferStmt); ok {
		for key := range lf.deferReleases(fn, d.Call) {
			st.deferred[key] = true
		}
		return
	}
	if g, ok := n.(*ast.GoStmt); ok {
		// The spawned call runs on another goroutine and does not change
		// this one's lock state.  Its argument expressions do evaluate
		// here.
		for _, a := range g.Call.Args {
			lf.evalNode(fn, a, st)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			lf.evalCall(fn, x, st)
		}
		return true
	})
}

func (lf *lockFlow) evalCall(fn *flow.FuncNode, call *ast.CallExpr, st *lockState) {
	if action, recvExpr, flavor := classifyLockCall(fn.Pkg.Info, call); action != lockNone {
		k := lf.makeKey(fn, recvExpr, flavor)
		if action == lockAcquire {
			st.acquire(k, true, call.Pos(), "")
		} else {
			st.release(k)
		}
		return
	}
	if site := lf.graph.SiteFor(call); site != nil {
		if sum := lf.summaries[site.Callee]; sum != nil {
			lf.applySummary(fn, site, sum, st)
		}
	}
}

// applySummary maps the callee's lock effects into the caller's state.
func (lf *lockFlow) applySummary(fn *flow.FuncNode, site *flow.CallSite, sum *lockSummary, st *lockState) {
	for _, r := range sum.releases {
		if !r.must {
			continue
		}
		if mk, ok := lf.mapKey(fn, site, r.k); ok {
			st.release(mk)
		}
	}
	for _, a := range sum.acquires {
		mk, ok := lf.mapKey(fn, site, a.k)
		if !ok {
			continue
		}
		st.acquire(mk, a.must, a.pos, a.desc)
	}
}

// deferReleases collects the state keys released by a deferred call:
// the call itself, release calls inside a deferred function literal,
// and the must-release summary of a deferred module function.
func (lf *lockFlow) deferReleases(fn *flow.FuncNode, call *ast.CallExpr) map[string]bool {
	out := map[string]bool{}
	collect := func(c *ast.CallExpr) {
		if action, recvExpr, flavor := classifyLockCall(fn.Pkg.Info, c); action == lockRelease {
			out[lf.makeKey(fn, recvExpr, flavor).key] = true
			return
		}
		if site := lf.graph.SiteFor(c); site != nil {
			if sum := lf.summaries[site.Callee]; sum != nil {
				for _, r := range sum.releases {
					if !r.must {
						continue
					}
					if mk, ok := lf.mapKey(fn, site, r.k); ok {
						out[mk.key] = true
					}
				}
			}
		}
	}
	collect(call)
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				collect(inner)
			}
			return true
		})
	}
	return out
}

// --- per-function analysis ---

// exitState runs the intraprocedural dataflow with the current callee
// summaries and returns the state reaching fn's exit (nil when the exit
// is unreachable).
func (lf *lockFlow) exitState(fn *flow.FuncNode) *lockState {
	c := fn.CFG()
	transfer := func(b *flow.Block, in *lockState) *lockState {
		st := in.clone()
		for _, n := range b.Nodes {
			lf.evalNode(fn, n, st)
		}
		return st
	}
	return flow.Forward(c, newLockState(), (*lockState).clone, joinLockStates, transfer)[c.Exit]
}

// computeSummary distills fn's summary from its exit state.
func (lf *lockFlow) computeSummary(fn *flow.FuncNode) *lockSummary {
	sum := &lockSummary{}
	exit := lf.exitState(fn)
	if exit == nil {
		return sum
	}
	for _, key := range sortedHeld(exit) {
		f := exit.held[key]
		if !f.may || exit.deferred[key] {
			continue
		}
		k, desc := f.k, f.desc
		if k.kind == rootLocal {
			k = lockKey{key: "opaque:" + f.k.key + "@" + fn.Name, kind: rootOpaque}
			desc = fmt.Sprintf("%s acquired in %s", strings.TrimSuffix(f.k.key, "/R"), fn.Name)
		}
		sum.acquires = append(sum.acquires, summaryAcq{k: k, must: f.must, pos: f.pos, desc: desc})
	}
	var relKeys []string
	for key := range exit.released {
		relKeys = append(relKeys, key)
	}
	sort.Strings(relKeys)
	for _, key := range relKeys {
		r := exit.released[key]
		if !r.must {
			continue
		}
		switch r.k.kind {
		case rootRecv, rootParam, rootGlobal:
			sum.releases = append(sum.releases, r)
		}
	}
	sort.Slice(sum.acquires, func(i, j int) bool { return sum.acquires[i].k.key < sum.acquires[j].k.key })
	return sum
}

func sortedHeld(st *lockState) []string {
	var keys []string
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportFunc emits the leak findings at fn's exit.
func (lf *lockFlow) reportFunc(fn *flow.FuncNode) {
	exit := lf.exitState(fn)
	if exit == nil {
		return
	}
	for _, key := range sortedHeld(exit) {
		f := exit.held[key]
		if !f.may || exit.deferred[key] {
			continue
		}
		// A lock still held at exit is a leak when nobody can release
		// it: its key roots in a local (no caller could name it), or the
		// function has no static caller that could pick the hold up
		// (entry points, interface implementations, goroutine bodies).
		if f.k.kind != rootLocal && len(fn.Callers) > 0 {
			continue
		}
		if f.pos == token.NoPos || lf.reported[f.pos] {
			continue
		}
		lf.reported[f.pos] = true
		name := strings.TrimSuffix(f.k.key, "/R")
		if f.desc != "" {
			name = f.desc
		}
		lf.diags = append(lf.diags, Diagnostic{
			Pos:  lf.fset.Position(f.pos),
			Rule: "A1",
			Message: fmt.Sprintf("lock acquired on %s may still be held when %s returns (missing release on some path; add ReleaseAll/Unlock or a defer)",
				name, fn.Name),
		})
	}
}
