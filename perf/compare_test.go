package perf

import (
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", got)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if got := quartiles([]float64{3, 1, 2}); got != [3]float64{1, 2, 3} {
		t.Fatalf("quartiles %v", got)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := percentile(v, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// runs builds a file of n runs of one workload whose metric values come
// from f(i); each run attempted 100 ops and failed none.
func runs(n int, f func(i int) map[string]float64) *File {
	out := &File{}
	for i := 0; i < n; i++ {
		m := map[string]Metric{}
		for k, v := range f(i) {
			m[k] = Metric{Value: v}
		}
		out.Runs = append(out.Runs, RunRecord{Workloads: []*Result{{Workload: "w", Attempted: 100, Metrics: m}}})
	}
	return out
}

// failing makes run i of f fail failed(i) of its ops.
func failing(f *File, failed func(i int) int) *File {
	for i := range f.Runs {
		f.Runs[i].Workloads[0].Failed = failed(i)
	}
	return f
}

func TestCompare(t *testing.T) {
	bounds := []Bound{
		{Name: "run_p50_ms", Better: "lower", Bound: 0.1},
		{Name: "gates_per_s", Better: "higher", Bound: 0.1},
	}
	jitter := func(i int) float64 { return float64(i%3) - 1 } // -1, 0, 1
	parent := runs(10, func(i int) map[string]float64 {
		return map[string]float64{"run_p50_ms": 100 + jitter(i), "gates_per_s": 1000 + jitter(i)}
	})
	faster := func(i int) map[string]float64 {
		return map[string]float64{"run_p50_ms": 90 + jitter(i), "gates_per_s": 1100 + jitter(i)}
	}
	cases := []struct {
		name   string
		change *File
		want   map[string]string
	}{
		{"same", runs(10, func(i int) map[string]float64 {
			return map[string]float64{"run_p50_ms": 100 - jitter(i), "gates_per_s": 1000 - jitter(i)}
		}), map[string]string{"run_p50_ms": "same", "gates_per_s": "same", "failed_ratio": "same"}},
		{"regression", runs(10, func(i int) map[string]float64 {
			return map[string]float64{"run_p50_ms": 120 + jitter(i), "gates_per_s": 850 + jitter(i)}
		}), map[string]string{"run_p50_ms": "regression", "gates_per_s": "regression", "failed_ratio": "same"}},
		{"better", runs(10, faster),
			map[string]string{"run_p50_ms": "better", "gates_per_s": "better", "failed_ratio": "same"}},
		// Faster, but one run in five fails an op: the failures are a
		// regression and the speed counts for nothing.
		{"faster but failing", failing(runs(10, faster), func(i int) int { return min(i%5, 1) }),
			map[string]string{"run_p50_ms": "unresolved", "gates_per_s": "unresolved", "failed_ratio": "regression"}},
	}
	for _, tc := range cases {
		vs, err := Compare(parent, tc.change, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != len(tc.want) {
			t.Errorf("%s: %d verdicts, want %d", tc.name, len(vs), len(tc.want))
		}
		for _, v := range vs {
			if v.Outcome != tc.want[v.Metric] {
				t.Errorf("%s: %s is %s, want %s", tc.name, v.Metric, v.Outcome, tc.want[v.Metric])
			}
		}
	}
	vs, err := Compare(failing(runs(10, faster), func(int) int { return 1 }), parent, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if fv := vs[len(vs)-1]; fv.Metric != "failed_ratio" || fv.Outcome != "better" {
		t.Errorf("fewer failures than the parent gave %s %s, want failed_ratio better", fv.Metric, fv.Outcome)
	}

	noisy := runs(10, func(i int) map[string]float64 {
		return map[string]float64{"run_p50_ms": 100 + 30*jitter(i), "gates_per_s": 1000}
	})
	vs, err = Compare(noisy, runs(10, func(int) map[string]float64 {
		return map[string]float64{"run_p50_ms": 105, "gates_per_s": 1000}
	}), bounds)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Outcome != "unresolved" {
		t.Errorf("a spread wider than the bound gave %s, want unresolved", vs[0].Outcome)
	}

	var sb strings.Builder
	if err := PrintVerdicts(&sb, vs); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 1+len(vs) {
		t.Errorf("printed %d lines for %d verdicts:\n%s", lines, len(vs), sb.String())
	}

	nine := runs(9, func(int) map[string]float64 { return map[string]float64{"run_p50_ms": 100, "gates_per_s": 1000} })
	if _, err := Compare(nine, parent, bounds); err == nil {
		t.Error("nine pairs were accepted")
	}
}
