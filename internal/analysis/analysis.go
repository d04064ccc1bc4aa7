// Package analysis implements esrvet, the project-specific static
// analyzer for the ESR codebase.
//
// The paper's correctness argument rests on facts about the code the
// Go compiler cannot see.  Each analyzer in this package machine-checks
// one of them:
//
//	A1 lockpair      — lock.Manager Acquire/TryAcquire matched by
//	                   ReleaseAll (and sync.Mutex Lock by Unlock) on all
//	                   return paths, defer-aware and interprocedural, so
//	                   strict 2PL's shrinking phase always runs.
//	A4 determinism   — time.Now/Since/Until and math/rand global
//	                   functions are banned inside internal/sim,
//	                   internal/network and internal/tabular, so
//	                   simulations and table regeneration stay
//	                   reproducible.
//	A7 stripeaccess  — the sharded stores' stripe arrays and the
//	                   cluster's per-shard slots may only be resolved
//	                   through their accessors, so the hash-to-slot
//	                   mapping stays single-sourced.
//	A10 errdrop      — errors returned by WAL/queue/transport mutating
//	                   calls (Append, Sync, Enqueue, Ack, Send, Call, ...)
//	                   must be consumed, not discarded.
//
// Rule IDs are stable and never reused, because suppression directives
// name them.  DESIGN.md §6 says where the checks of the retired IDs
// (A2, A3, A5, A6, A8, A9, A11) went.
//
// A1 runs on the dataflow engine in internal/analysis/flow
// (per-function CFGs, a static call graph, and a worklist fixpoint over
// per-function lock summaries — see lockflow.go).  The other rules are
// per-package AST/type walks.
//
// A finding can be suppressed with a trailing comment directive on the
// offending line (or the line above it):
//
//	//esrvet:ignore A1 reason why this is safe
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string // "A1", "A4", "A7" or "A10"
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one esrvet rule.  Exactly one of Run and RunModule is
// set: Run analyzes one package at a time, RunModule sees the whole
// load at once (for interprocedural rules).
type Analyzer struct {
	// Rule is the stable rule ID ("A1", "A4", "A7", "A10").
	Rule string
	// Name is a short slug (used in -only filters).
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one typed package.
	Run func(p *Package) []Diagnostic
	// RunModule analyzes every loaded package at once.
	RunModule func(pkgs []*Package) []Diagnostic
}

// All returns every analyzer in rule order.
func All() []*Analyzer {
	return []*Analyzer{LockPairing, SimDeterminism, StripeAccess, ErrDrop}
}

// RunAll applies every analyzer to every package, filters findings
// suppressed by //esrvet:ignore directives, and returns the remainder
// sorted by position.  Module-level analyzers run once over the whole
// package set; suppression directives from every file apply to them
// too.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	ignores := make(ignoreSet)
	for _, p := range pkgs {
		ignoreDirectivesInto(ignores, p)
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		for _, d := range a.RunModule(pkgs) {
			if ignores.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, d := range a.Run(p) {
				if ignores.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignoreSet records, per file and line, which rules are suppressed.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) suppressed(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	rules := byLine[d.Pos.Line]
	return rules != nil && (rules["all"] || rules[d.Rule])
}

// ignoreDirectivesInto collects one package's //esrvet:ignore comments
// into set (keyed by filename, so packages never collide).  A directive
// suppresses the named rules (space-separated; "all" suppresses every
// rule) on its own line and on the following line, so it can trail the
// offending statement or sit on the line above it.
func ignoreDirectivesInto(set ignoreSet, p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//esrvet:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					set[pos.Filename] = byLine
				}
				rules := strings.Fields(text)
				if len(rules) == 0 {
					rules = []string{"all"}
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					m := byLine[line]
					if m == nil {
						m = make(map[string]bool)
						byLine[line] = m
					}
					for _, r := range rules {
						if strings.HasPrefix(r, "A") || r == "all" {
							m[r] = true
						}
					}
				}
			}
		}
	}
}

// diag builds a Diagnostic at a node position.
func (p *Package) diag(rule string, at ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(at.Pos()),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
