package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func pos(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}

// newTestLoader builds one loader rooted at the real module, shared per
// test so the standard library type-checks once.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("find module root: %v", err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatalf("new loader: %v", err)
	}
	return l
}

var wantRe = regexp.MustCompile(`// want (A\d+(?: A\d+)*)$`)

// wantDiags extracts the `// want A<n> [A<n>...]` expectations from
// every file of a fixture directory, keyed file:line.
func wantDiags(t *testing.T, dir string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(strings.TrimRight(line, " \t"))
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			out[key] = append(out[key], strings.Fields(m[1])...)
		}
	}
	return out
}

// TestAnalyzersOnFixtures runs every analyzer against its clean and
// violating fixture packages and compares findings against the `want`
// comments line by line.
func TestAnalyzersOnFixtures(t *testing.T) {
	loader := newTestLoader(t)
	cases := []struct {
		analyzer *Analyzer
		fixture  string
		asPath   string // import path the fixture pretends to have
	}{
		{LockPairing, "lockpair_clean", "esrfixture/lockpair_clean"},
		{LockPairing, "lockpair_bad", "esrfixture/lockpair_bad"},
		// A4 is path-gated: the fixture is loaded as if it were the real
		// package it stands in for.
		{SimDeterminism, "determinism_clean", "esrfixture/internal/sim"},
		{SimDeterminism, "determinism_bad", "esrfixture/internal/sim"},
		{StripeAccess, "stripeaccess_clean", "esrfixture/stripeaccess_clean"},
		{StripeAccess, "stripeaccess_bad", "esrfixture/stripeaccess_bad"},
		{ErrDrop, "errdrop_clean", "esrfixture/errdrop_clean"},
		{ErrDrop, "errdrop_bad", "esrfixture/errdrop_bad"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Rule+"/"+tc.fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.fixture)
			pkg, err := loader.LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			want := wantDiags(t, dir)
			got := make(map[string][]string)
			for _, d := range RunAll([]*Package{pkg}, []*Analyzer{tc.analyzer}) {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				got[key] = append(got[key], d.Rule)
			}
			if strings.HasSuffix(tc.fixture, "_bad") && len(want) == 0 {
				t.Fatalf("violating fixture %s declares no want comments", tc.fixture)
			}
			for key, rules := range want {
				sort.Strings(rules)
				g := append([]string(nil), got[key]...)
				sort.Strings(g)
				if strings.Join(rules, " ") != strings.Join(g, " ") {
					t.Errorf("%s: want %v, got %v", key, rules, g)
				}
			}
			for key, rules := range got {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: unexpected finding(s) %v", key, rules)
				}
			}
		})
	}
}

// TestFixturePolarity guards the acceptance criterion directly: every
// analyzer has a clean fixture with zero findings and a violating
// fixture with at least one.
func TestFixturePolarity(t *testing.T) {
	loader := newTestLoader(t)
	type fixture struct {
		analyzer *Analyzer
		dir      string
		asPath   string
	}
	polar := map[string][2]fixture{
		"A1":  {{LockPairing, "lockpair_clean", "esrfixture/a"}, {LockPairing, "lockpair_bad", "esrfixture/b"}},
		"A4":  {{SimDeterminism, "determinism_clean", "esrfixture/internal/sim"}, {SimDeterminism, "determinism_bad", "esrfixture/internal/sim"}},
		"A7":  {{StripeAccess, "stripeaccess_clean", "esrfixture/a"}, {StripeAccess, "stripeaccess_bad", "esrfixture/b"}},
		"A10": {{ErrDrop, "errdrop_clean", "esrfixture/a"}, {ErrDrop, "errdrop_bad", "esrfixture/b"}},
	}
	for rule, pair := range polar {
		clean, bad := pair[0], pair[1]
		cp, err := loader.LoadDir(filepath.Join("testdata", "src", clean.dir), clean.asPath)
		if err != nil {
			t.Fatalf("%s: load clean fixture: %v", rule, err)
		}
		if diags := RunAll([]*Package{cp}, []*Analyzer{clean.analyzer}); len(diags) != 0 {
			t.Errorf("%s: clean fixture has findings: %v", rule, diags)
		}
		bp, err := loader.LoadDir(filepath.Join("testdata", "src", bad.dir), bad.asPath)
		if err != nil {
			t.Fatalf("%s: load bad fixture: %v", rule, err)
		}
		if diags := RunAll([]*Package{bp}, []*Analyzer{bad.analyzer}); len(diags) == 0 {
			t.Errorf("%s: violating fixture has no findings (esrvet would exit zero)", rule)
		}
	}
}

// TestRepositoryIsClean is the gate itself in test form: the module's
// own packages must produce zero findings, so `esrvet ./...` exits
// zero.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check skipped in -short mode")
	}
	loader := newTestLoader(t)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 25 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, d := range RunAll(pkgs, All()) {
		t.Errorf("finding in repository: %s", d)
	}
}

// TestIgnoreDirective pins the suppression contract: same line and the
// line below, rule-scoped.
func TestIgnoreDirective(t *testing.T) {
	set := ignoreSet{
		"f.go": {10: {"A1": true}, 11: {"A1": true}, 20: {"all": true}},
	}
	cases := []struct {
		d    Diagnostic
		want bool
	}{
		{Diagnostic{Pos: pos("f.go", 10), Rule: "A1"}, true},
		{Diagnostic{Pos: pos("f.go", 11), Rule: "A1"}, true},
		{Diagnostic{Pos: pos("f.go", 11), Rule: "A2"}, false},
		{Diagnostic{Pos: pos("f.go", 12), Rule: "A1"}, false},
		{Diagnostic{Pos: pos("f.go", 20), Rule: "A4"}, true},
		{Diagnostic{Pos: pos("g.go", 10), Rule: "A1"}, false},
	}
	for _, tc := range cases {
		if got := set.suppressed(tc.d); got != tc.want {
			t.Errorf("suppressed(%s:%d %s) = %v, want %v",
				tc.d.Pos.Filename, tc.d.Pos.Line, tc.d.Rule, got, tc.want)
		}
	}
}
