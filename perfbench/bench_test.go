package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
)

// smoke runs one workload in smoke mode: a tiny dataset, a one-second
// window, every check of a full run.
func smoke(t *testing.T, workload string, trace, corrupt bool) (*result, string, error) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{workload: workload, seed: 7, seconds: 1, trace: trace,
		root: t.TempDir(), smoke: true, corrupt: corrupt, out: &out})
	return res, out.String(), err
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	for _, wd := range workloadDefs {
		w := wd.Name
		for _, trace := range []bool{false, true} {
			res, out, err := smoke(t, w, trace, false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := ledgerNames(trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				d, _ := defByName(name)
				m, ok := res.Metrics[name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, name, m, d.Unit)
				}
				if !strings.Contains(out, "metric "+name+" ") {
					t.Errorf("%s trace=%v: %s not printed by name", w, trace, name)
				}
			}
		}
	}
}

func TestGateFiresOnWrongExpectedAnswer(t *testing.T) {
	for _, wd := range workloadDefs {
		if _, _, err := smoke(t, wd.Name, false, true); !errors.Is(err, errMismatch) {
			t.Errorf("%s with a perturbed expected answer: err = %v, want the correctness gate", wd.Name, err)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the ledger must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// ledgerWorkloads returns the names of the workloads BENCHMARK.json lists.
func ledgerWorkloads() []string {
	var out []string
	for _, w := range workloadDefs {
		if w.Ledger {
			out = append(out, w.Name)
		}
	}
	return out
}

func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not a workload of the program", w.Name)
		}
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(ledgerWorkloads(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, ledger %v", names, ledgerWorkloads())
	}
	type entry struct{ name, unit, better string }
	var fromJSON []entry
	for _, m := range bj.EndToEnd {
		fromJSON = append(fromJSON, entry{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		fromJSON = append(fromJSON, entry{m.Name, m.Unit, m.Better})
	}
	var fromDefs []entry
	for _, trace := range []bool{false, true} {
		for _, n := range ledgerNames(trace) {
			d, _ := defByName(n)
			fromDefs = append(fromDefs, entry{d.Name, d.Unit, d.Better})
		}
	}
	key := func(es []entry) string {
		var s []string
		for _, e := range es {
			s = append(s, e.name+"/"+e.unit+"/"+e.better)
		}
		sort.Strings(s)
		return strings.Join(s, "\n")
	}
	if key(fromJSON) != key(fromDefs) {
		t.Errorf("BENCHMARK.json metrics:\n%s\nledger metrics in defs.go:\n%s", key(fromJSON), key(fromDefs))
	}
}

func TestMetricsDocIsCurrent(t *testing.T) {
	var buf bytes.Buffer
	writeDictionary(&buf)
	doc, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(doc) {
		t.Error("METRICS.md is stale: regenerate with go run . -dict > METRICS.md")
	}
}
