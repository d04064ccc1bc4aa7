package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload for one second, untraced and traced, and
// the ledger at a hundredth of its iterations, and checks that what is
// emitted is exactly what BENCHMARK.json names, with the same units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads twice and the ledger; skipped under -short")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}

	// BENCHMARK.json against the definitions compiled into the harness.
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, defs.go %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if i >= len(bj.EndToEnd) {
			break
		}
		m := bj.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, defs.go %+v", i, m, d)
		}
	}
	layer := map[string]string{}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(layer) != len(layerDefs) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, defs.go %d", len(layer), len(layerDefs))
	}
	for _, d := range layerDefs {
		if layer[d.name] != d.unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, defs.go %q", d.name, layer[d.name], d.unit)
		}
	}

	check := func(what string, got map[string]metric, want map[string]string) {
		t.Helper()
		for name, unit := range want {
			m, ok := got[name]
			switch {
			case !ok:
				t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, name)
			case m.Unit != unit || !unitRE.MatchString(m.Unit):
				t.Errorf("%s: %s emitted with unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: %s was emitted but is not in BENCHMARK.json", what, name)
			}
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q is outside the name grammar", what, name)
			}
		}
	}

	dir := t.TempDir()
	led, err := runLedger(100, dir)
	if err != nil {
		t.Fatalf("ledger: %v", err)
	}
	for _, w := range workloads {
		cfg := runConfig{workload: w.name, seed: 1, window: time.Second, workdir: dir, setups: 1}
		plain, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !plain.Correct {
			t.Errorf("%s: oracle: %v", w.name, plain.Violations)
		}
		check(w.name+" end-to-end", plain.EndToEnd, e2e)
		cfg.traced = true
		tr, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !tr.Correct {
			t.Errorf("%s traced: oracle: %v", w.name, tr.Violations)
		}
		check(w.name+" per-layer", mergeLayers(plain, tr, led), layer)
	}
}
