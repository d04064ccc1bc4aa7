package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"esr/internal/analysis/flow"
)

// QueryLockFree is rule A11: query ETs never acquire lock-manager
// locks.  The unified read path (DESIGN.md §13) serves every
// consistency level from lock-free snapshots — a query that reaches
// lock.Manager.Acquire or TryAcquire has regressed onto the update
// path's 2PL machinery, reintroducing exactly the read/write
// interference the SAFETIME watermark exists to avoid.  The rule walks
// the static call graph from every query-path entry point (engine
// Query/QuerySpec/QueryAt/QueryNumeric methods, core.ReadAtSite, and
// their lowercase query* callees) and flags any reachable lock-manager
// acquisition.
//
// The coherency baselines (2PC-ROWA, quorum) are exempt by package:
// their queries acquire locks by design — that synchronization cost is
// the very thing the paper's asynchronous methods are measured against.
var QueryLockFree = &Analyzer{
	Rule:      "A11",
	Name:      "querylock",
	Doc:       "query-path functions must never acquire lock.Manager locks (queries are lock-free snapshot reads)",
	RunModule: runQueryLock,
}

// queryRootNames are the exact entry-point names that begin a query
// path.
var queryRootNames = map[string]bool{
	"Query": true, "QuerySpec": true, "QueryAt": true, "QueryNumeric": true,
	"ReadAtSite": true,
}

// isQueryRoot reports whether the function starts a query path the rule
// must keep lock-free.
func isQueryRoot(n *flow.FuncNode) bool {
	if n.Obj == nil || n.Decl == nil {
		return false
	}
	if pkg := n.Obj.Pkg(); pkg != nil && strings.HasSuffix(pkg.Path(), "internal/coherency") {
		return false
	}
	name := n.Decl.Name.Name
	return queryRootNames[name] || strings.HasPrefix(name, "query")
}

func runQueryLock(m *Module) []Diagnostic {
	g := m.Graph()
	byTypes := make(map[*types.Package]*Package, len(m.Pkgs))
	for _, p := range m.Pkgs {
		byTypes[p.Types] = p
	}
	var diags []Diagnostic
	seen := make(map[token.Pos]bool)
	for _, root := range g.Funcs {
		if !isQueryRoot(root) {
			continue
		}
		visited := map[*flow.FuncNode]bool{root: true}
		work := []*flow.FuncNode{root}
		for len(work) > 0 {
			fn := work[0]
			work = work[1:]
			p := byTypes[fn.Pkg.Types]
			if p != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					obj, ok := fn.Pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || obj.Pkg() == nil {
						return true
					}
					if !strings.HasSuffix(obj.Pkg().Path(), "internal/lock") ||
						!methodOnNamed(obj, "Manager") {
						return true
					}
					if name := obj.Name(); name != "Acquire" && name != "TryAcquire" {
						return true
					}
					if seen[call.Pos()] {
						return true
					}
					seen[call.Pos()] = true
					diags = append(diags, p.diag("A11", call,
						"%s acquires a lock-manager lock on the query path rooted at %s (query ETs are lock-free snapshot reads; use the SAFETIME/drain gates instead)",
						fn.Name, root.Name))
					return true
				})
			}
			for _, cs := range fn.Calls {
				if cs.Callee != nil && !visited[cs.Callee] {
					visited[cs.Callee] = true
					work = append(work, cs.Callee)
				}
			}
		}
	}
	return diags
}
