package sim

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"esr/internal/divergence"
	"esr/internal/network"
)

func TestNewEngineAllKinds(t *testing.T) {
	kinds := []EngineKind{ORDUPSeq, ORDUPLamport, COMMU, RITUSV, RITUMV, COMPE, COMPEGeneral, TwoPC, QuorumMaj}
	for _, k := range kinds {
		e, err := NewEngine(k, 3, network.Config{Seed: 1}, Options{})
		if err != nil {
			t.Fatalf("NewEngine(%s): %v", k, err)
		}
		if e.Name() == "" {
			t.Errorf("%s: empty name", k)
		}
		if e.Cluster() == nil {
			t.Errorf("%s: nil cluster", k)
		}
		e.Close()
	}
	if _, err := NewEngine("bogus", 2, network.Config{}, Options{}); err == nil {
		t.Errorf("unknown kind must fail")
	}
}

func TestRunMixedWorkloadOnEveryMethod(t *testing.T) {
	for _, kind := range []EngineKind{ORDUPSeq, COMMU, RITUSV, COMPE, TwoPC, QuorumMaj} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			e, err := NewEngine(kind, 3, network.Config{Seed: 2, MinLatency: 10 * time.Microsecond, MaxLatency: 200 * time.Microsecond}, Options{})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer e.Close()
			build := AdditiveOps
			if kind == RITUSV {
				build = BlindWriteOps
			}
			res, err := Run(e, Workload{
				Seed: 5, Clients: 4, OpsPerClient: 15,
				Objects: 4, QueryFraction: 0.4, OpsPerUpdate: 2, ObjectsPerQuery: 2,
				Epsilon: divergence.Limit(4), Build: build, Pace: 100 * time.Microsecond,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Converged {
				t.Errorf("did not converge")
			}
			if res.Updates == 0 || res.Queries == 0 {
				t.Errorf("empty workload result: %+v", res)
			}
			if res.Inconsistency.Max > 4 {
				t.Errorf("inconsistency %d exceeded ε=4", res.Inconsistency.Max)
			}
			if res.UpdateLatency.Mean <= 0 || res.QueryLatency.Mean <= 0 {
				t.Errorf("latency stats empty: %+v", res)
			}
		})
	}
}

func TestSummaries(t *testing.T) {
	if st := summarizeLatency(nil); st.N != 0 {
		t.Errorf("empty latency summary = %+v", st)
	}
	st := summarizeLatency([]time.Duration{3, 1, 2})
	if st.N != 3 || st.Mean != 2 || st.Max != 3 {
		t.Errorf("latency summary = %+v", st)
	}
	is := summarizeInts([]int{1, 2, 3})
	if is.Sum != 6 || is.Max != 3 || is.Mean != 2 {
		t.Errorf("int summary = %+v", is)
	}
}

// TestExperimentRegistry pins the registry as the single source of
// truth: its IDs are exactly T1–T3 and E1–E14, and EXPERIMENTS.md's
// "## <ID> —" sections and DESIGN.md's §3 index rows name the same set,
// no more and no fewer.
func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{"T1", "T2", "T3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("got %d experiments, want %d", len(exps), len(wantIDs))
	}
	registered := make(map[string]bool, len(exps))
	for i, ex := range exps {
		if ex.ID != wantIDs[i] {
			t.Errorf("experiment %d = %s, want %s", i, ex.ID, wantIDs[i])
		}
		if ex.Title == "" || ex.Claim == "" || ex.Run == nil {
			t.Errorf("experiment %s incomplete", ex.ID)
		}
		registered[ex.ID] = true
	}
	if _, ok := Find("E3"); !ok {
		t.Errorf("Find(E3) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Errorf("Find(E99) should fail")
	}

	for _, doc := range []struct{ path, what, pattern string }{
		{"../../EXPERIMENTS.md", "section", `(?m)^## ([TE]\d+) — `},
		{"../../DESIGN.md", "§3 index row", `(?m)^\| ([TE]\d+) \|`},
	} {
		text, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatalf("read %s: %v", doc.path, err)
		}
		documented := make(map[string]bool)
		for _, m := range regexp.MustCompile(doc.pattern).FindAllSubmatch(text, -1) {
			id := string(m[1])
			documented[id] = true
			if !registered[id] {
				t.Errorf("%s has a %s for %s, which is not registered", doc.path, doc.what, id)
			}
		}
		for _, id := range wantIDs {
			if !documented[id] {
				t.Errorf("%s has no %s for registered experiment %s", doc.path, doc.what, id)
			}
		}
	}
}

// TestPaperTablesExactText asserts the regenerated Tables 1–3 match the
// paper cell-for-cell.
func TestPaperTablesExactText(t *testing.T) {
	t1, err := runT1(true)
	if err != nil {
		t.Fatalf("T1: %v", err)
	}
	out := t1.String()
	for _, want := range []string{
		"message delivery", "operation semantics", `"operation value"`,
		"Forwards", "Backwards",
		"Query only", "Query & Update",
		"at update", "doesn't matter", "at read", "N/A",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}

	t2, _ := Find("T2")
	tab2, err := t2.Run(true)
	if err != nil {
		t.Fatalf("T2: %v", err)
	}
	// Table 2 row WU: conflicts with RU and WU, OK with RQ.
	if !strings.Contains(tab2.String(), "WU") {
		t.Errorf("Table 2 malformed:\n%s", tab2.String())
	}
	t3, _ := Find("T3")
	tab3, err := t3.Run(true)
	if err != nil {
		t.Fatalf("T3: %v", err)
	}
	if !strings.Contains(tab3.String(), "Comm") {
		t.Errorf("Table 3 must contain Comm entries:\n%s", tab3.String())
	}
	if strings.Contains(tab2.String(), "Comm") {
		t.Errorf("Table 2 must not contain Comm entries:\n%s", tab2.String())
	}
}

func TestE10PaperExample(t *testing.T) {
	ex, _ := Find("E10")
	tab, err := ex.Run(true)
	if err != nil {
		t.Fatalf("E10: %v", err)
	}
	out := tab.String()
	if !strings.Contains(out, "R1(a) W1(b) W2(b) R3(a) W2(a) R3(b)") {
		t.Errorf("E10 must print the paper's log:\n%s", out)
	}
	if !strings.Contains(out, "serializable (SR)") || !strings.Contains(out, "false") {
		t.Errorf("E10 must report the log as not SR:\n%s", out)
	}
	if !strings.Contains(out, "epsilon-serial (ESR)") || !strings.Contains(out, "true") {
		t.Errorf("E10 must report the log as ε-serial:\n%s", out)
	}
}

// TestQuickExperimentsRun executes the fast quantitative experiments end
// to end at quick scale.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, id := range []string{"E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			ex, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s not found", id)
			}
			tab, err := ex.Run(true)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tab == nil || tab.String() == "" {
				t.Fatalf("%s: empty table", id)
			}
		})
	}
}
