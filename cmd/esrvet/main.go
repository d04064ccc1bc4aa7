// Command esrvet runs the project-specific static analyzers over the
// module (see internal/analysis for the rules).  It is the first half
// of the correctness gate; `go test -race` on the concurrency packages
// is the second.
//
//	esrvet ./...           # analyze every module package
//	esrvet ./internal/lock # analyze specific packages
//	esrvet -only A1,A4 ./...
//	esrvet -list           # print the rule table
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.  A finding
// can be suppressed in source with `//esrvet:ignore A<n> reason` on the
// offending line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"esr/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated rule IDs or names to run (default: all)")
	list := flag.Bool("list", false, "print the analyzer table and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: esrvet [-only rules] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-3s %-12s %s\n", a.Rule, a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, s := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(s)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Rule] || keep[a.Name] {
				filtered = append(filtered, a)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "esrvet: no analyzer matches -only=%s\n", *only)
			os.Exit(2)
		}
		analyzers = filtered
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*analysis.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		loaded, err := loadPattern(loader, cwd, pat)
		if err != nil {
			fatal(err)
		}
		for _, p := range loaded {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	diags := analysis.RunAll(pkgs, analyzers)

	for _, d := range diags {
		if r, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			d.Pos.Filename = r
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "esrvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// loadPattern resolves one command-line pattern: "./..." loads the
// whole module; anything else is a package directory.
func loadPattern(l *analysis.Loader, cwd, pat string) ([]*analysis.Package, error) {
	if pat == "./..." || pat == "all" {
		return l.LoadAll()
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(cwd, dir)
	}
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("esrvet: %s is outside the module", pat)
	}
	path := l.ModulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return []*analysis.Package{p}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esrvet:", err)
	os.Exit(2)
}
