// Command benchmark is this repository's benchmark: one harness, four
// named workloads, a per-layer ledger and the metric names every later
// performance claim is stated in.  See README.md in this directory.
//
// Three ways to run it (run.sh builds the binary and passes its
// arguments through):
//
//	run.sh --workload NAME --seed N --seconds S --trace 0|1
//	    one workload; the last line of standard output is one JSON
//	    object {correct, attempted, failed, metrics}: the end-to-end
//	    metrics with --trace 0, the per-layer metrics with --trace 1.
//	run.sh -seed N -out FILE
//	    the full set: every workload untraced for 30 s, a shorter traced
//	    rerun of each, and the ledger; every metric is printed by name
//	    with its unit and the lot is written to FILE.
//	run.sh -compare a.json b.json
//	    judges b.json against a.json, metric by metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupsPerRun is how many times one run sets the system up; setup_s is
// their median.
const setupsPerRun = 5

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's JSON line")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Int("seconds", 0, "measured seconds per workload (default 30; the traced rerun takes a third)")
		traced       = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "full set: write every workload's result and the ledger to this file")
		runs         = flag.Int("runs", 1, "full set: repeat each untraced workload this many times, on seeds seed, seed+1, ...")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
		workdir      = flag.String("workdir", "", "directory for journals (default: a temporary directory)")
	)
	flag.Parse()
	if err := dispatch(*workloadName, *seed, *seconds, *traced, *out, *runs, *compare, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(workloadName string, seed int64, seconds, traced int, out string, runs int, compare bool, workdir string) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if workdir == "" {
		dir, err := os.MkdirTemp("", "esr-benchmark-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		workdir = dir
	} else if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = 30
	}
	window := time.Duration(seconds) * time.Second
	switch {
	case workloadName != "":
		return driverRun(workloadName, seed, window, traced == 1, workdir)
	case out != "":
		return fullSet(seed, window, runs, out, workdir)
	}
	return fmt.Errorf("give -workload NAME, -out FILE or -compare A B (see README.md)")
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// driverRun is one workload for the driver.  Untraced, it is one run of
// the whole window and reports the end-to-end metrics.  Traced, the
// window is split: an untraced half supplies the counter-sourced
// per-layer metrics and the base of trace.overhead_pct, a traced half
// the span-sourced ones, and the ledger the micro-timings.
func driverRun(name string, seed int64, window time.Duration, traced bool, workdir string) error {
	cfg := runConfig{workload: name, seed: seed, window: window, workdir: workdir, setups: setupsPerRun}
	if !traced {
		res, err := execute(cfg)
		if err != nil {
			return err
		}
		printResult(os.Stderr, res)
		if err := res.usable(); err != nil {
			return err
		}
		return emit(res, res.EndToEnd)
	}
	cfg.window = window / 2
	plain, err := execute(cfg)
	if err != nil {
		return err
	}
	cfg.traced, cfg.setups = true, 1
	tr, err := execute(cfg)
	if err != nil {
		return err
	}
	led, err := runLedger(4, workdir)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	layers := mergeLayers(plain, tr, led)
	plain.Layer = layers
	plain.Correct = plain.Correct && tr.Correct
	plain.Attempted += tr.Attempted
	plain.Failed += tr.Failed
	plain.Invalid = append(plain.Invalid, tr.Invalid...)
	plain.Warnings = append(plain.Warnings, tr.Warnings...)
	plain.Violations = append(plain.Violations, tr.Violations...)
	printResult(os.Stderr, plain)
	if err := plain.usable(); err != nil {
		return err
	}
	return emit(plain, layers)
}

// mergeLayers joins the three sources of per-layer metrics: counters (C)
// from the untraced run, spans (T) from the traced one, micro-timings
// (L) from the ledger; and derives trace.overhead_pct from the pair.
func mergeLayers(plain, tr *result, led map[string]metric) map[string]metric {
	layers := make(map[string]metric, len(layerDefs))
	for name, m := range plain.Layer {
		layers[name] = m
	}
	for name, m := range tr.Layer {
		if strings.HasPrefix(name, "trace.") || strings.HasPrefix(name, "divergence.") {
			layers[name] = m
		}
	}
	for name, m := range led {
		layers[name] = m
	}
	layers["trace.overhead_pct"] = metric{overheadPct(plain, tr), unitOf("trace.overhead_pct")}
	return layers
}

// overheadPct is how much worse, in percent, the traced run did than the
// untraced one on the workload's overheadOn metric: lost rate for a
// rate, added cost otherwise.
func overheadPct(plain, tr *result) float64 {
	name := workloadByName(plain.Workload).overheadOn
	value := func(r *result) float64 {
		if m, ok := r.EndToEnd[name]; ok {
			return m.Value
		}
		return r.Layer[name].Value
	}
	if strings.HasSuffix(name, "_per_s") {
		return 100 * (1 - ratio(value(tr), value(plain)))
	}
	return 100 * (ratio(value(tr), value(plain)) - 1)
}

// usable turns an incorrect or invalid run into the non-zero exit the
// contract asks for: a result that cannot be trusted is not printed.
func (res *result) usable() error {
	if !res.Correct {
		return fmt.Errorf("%s: correctness oracle: %s", res.Workload, strings.Join(res.Violations, "; "))
	}
	if len(res.Invalid) > 0 {
		return fmt.Errorf("%s: invalid run: %s", res.Workload, strings.Join(res.Invalid, "; "))
	}
	return nil
}

func emit(res *result, metrics map[string]metric) error {
	line, err := json.Marshal(driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult lists every metric of one result by name with its unit.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g traced=%v: correct=%v attempted=%d failed=%d gate_timeouts=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Correct, res.Attempted, res.Failed, res.GateTimeouts)
	for _, group := range []map[string]metric{res.EndToEnd, res.Layer} {
		for _, n := range sortedNames(group) {
			fmt.Fprintf(w, "  %-40s %16.4f %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	for _, v := range res.Invalid {
		fmt.Fprintf(w, "  INVALID %s\n", v)
	}
	for _, v := range res.Warnings {
		fmt.Fprintf(w, "  WARNING %s\n", v)
	}
}

// header records where and on what a result file was measured.
type header struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
	JournalFS  string `json:"journal_fs"`
	Started    string `json:"started"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header               `json:"header"`
	Workloads map[string][]*result `json:"workloads"` // untraced runs, one per seed
	Traced    map[string]*result   `json:"traced"`    // the shorter traced rerun
	Ledger    map[string]metric    `json:"ledger"`
}

func commitID() string {
	b, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without git history
	}
	return strings.TrimSpace(string(b))
}

// fullSet runs everything once (or -runs times) and writes the file.
func fullSet(seed int64, window time.Duration, runs int, out, workdir string) error {
	rf := resultFile{
		Header: header{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commitID(), Seed: seed, Seconds: int(window / time.Second), Runs: runs,
			JournalFS: fsName(workdir), Started: time.Now().UTC().Format(time.RFC3339)},
		Workloads: map[string][]*result{}, Traced: map[string]*result{},
	}
	var bad []string
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			res, err := execute(runConfig{workload: w.name, seed: seed + int64(i), window: window, workdir: workdir, setups: setupsPerRun})
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(os.Stdout, res)
			rf.Workloads[w.name] = append(rf.Workloads[w.name], res)
			if err := res.usable(); err != nil {
				bad = append(bad, err.Error())
			}
		}
		tr, err := execute(runConfig{workload: w.name, seed: seed, window: window / 3, traced: true, workdir: workdir, setups: 1})
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		tr.layer("trace.overhead_pct", overheadPct(rf.Workloads[w.name][0], tr))
		printResult(os.Stdout, tr)
		rf.Traced[w.name] = tr
		if err := tr.usable(); err != nil {
			bad = append(bad, err.Error())
		}
	}
	led, err := runLedger(1, workdir)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	rf.Ledger = led
	fmt.Println("== ledger")
	for _, n := range sortedNames(led) {
		fmt.Printf("  %-40s %16.4f %s\n", n, led[n].Value, led[n].Unit)
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Clean(out), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d run(s) failed the oracle or were invalid:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
