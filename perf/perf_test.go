package perf

import (
	"encoding/json"
	"slices"
	"testing"
)

// smoke runs one round of a workload.
func smoke(t *testing.T, workload string, refSeed int64, trace bool) *Result {
	t.Helper()
	res, err := Run(Config{Workload: workload, Seed: 1, RefSeed: refSeed, Rounds: 1, Trace: trace, Scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// contractNames returns the metric names and units of the JSON line
// that ends a -workload run.
func contractNames(t *testing.T, res *Result) map[string]string {
	t.Helper()
	b, err := ContractLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Attempted int               `json:"attempted"`
		Metrics   map[string]Metric `json:"metrics"`
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if line.Attempted < 1 {
		t.Errorf("attempted %d", line.Attempted)
	}
	out := map[string]string{}
	for k, m := range line.Metrics {
		out[k] = m.Unit
	}
	return out
}

func specNames(bs []Bound) map[string]string {
	out := map[string]string{}
	for _, b := range bs {
		out[b.Name] = b.Unit
	}
	return out
}

func sameNames(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for k, u := range want {
		if got[k] != u {
			t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", what, k, got[k], u)
		}
	}
}

// TestSmoke runs one round of every workload, untraced and traced, and
// checks the answers, the metric names against BENCHMARK.json, and that
// the dd work counters repeat exactly — across two runs of one seed and
// between the traced and untraced passes. serve_jobs is left out of the
// counter comparison: its planner jobs learn from wall-clock time.
func TestSmoke(t *testing.T) {
	spec, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := Workloads(), listed; !slices.Equal(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, want)
	}
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			traced := smoke(t, w, 1, true)
			if !traced.Correct || traced.Failed != 0 {
				t.Fatalf("wrong answers: %v", traced.Errors)
			}
			sameNames(t, "traced", contractNames(t, traced), specNames(spec.PerLayer))
			untraced := *traced
			untraced.Layers = nil
			sameNames(t, "untraced", contractNames(t, &untraced), specNames(spec.EndToEnd))
			if len(traced.Spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			if w == "serve_jobs" {
				return
			}
			if traced.Counters.Ops == 0 || traced.Counters.MatVecMuls == 0 {
				t.Fatalf("no work counted: %+v", traced.Counters)
			}
			if *traced.TracedCounters != traced.Counters {
				t.Errorf("traced pass counted %+v, untraced %+v", *traced.TracedCounters, traced.Counters)
			}
			again := smoke(t, w, 1, false)
			if again.Counters != traced.Counters {
				t.Errorf("second run counted %+v, first %+v", again.Counters, traced.Counters)
			}
		})
	}
}

// TestWrongReference checks that the checks bite: references built from
// another seed must fail ops.
func TestWrongReference(t *testing.T) {
	res := smoke(t, "eq1_supremacy", 2, false)
	if res.Correct || res.Failed == 0 || res.Metrics["failed_ratio"].Value == 0 {
		t.Fatalf("a wrong reference passed: correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
}
