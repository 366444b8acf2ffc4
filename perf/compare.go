package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// minPairs is the fewest alternating parent/change pairs a comparison
// accepts.
const minPairs = 10

// Bound is an end-to-end metric with the regression bound BENCHMARK.json
// fixes for it: the share of the parent's median by which it may worsen.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json the benchmark reads.
type Spec struct {
	EndToEnd  []Bound `json:"end_to_end"`
	PerLayer  []Bound `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// ReadSpec reads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return &s, nil
}

// Verdict is the comparison of one metric on one workload.
type Verdict struct {
	Workload, Metric string
	A, B             [3]float64 // first quartile, median, third quartile
	Wins             float64    // share of pairs the change (B) won
	Outcome          string     // better, same, unresolved or regression
}

// Compare pairs run i of a (the parent) with run i of b (the change),
// runs that were made alternately, and judges every end-to-end metric
// on every workload: a regression when b's median is worse than a's by
// more than the bound; unresolved when a's own spread exceeds the bound
// and not every run of b beats every run of a; better when b wins at
// least nine tenths of the pairs and the medians differ by more than
// a's spread.
//
// Each workload also gets a failed_ratio verdict over the summed ops of
// all pairs: a regression when b fails a larger share of its ops than
// a. A workload whose failures grew reports no metric as better; its
// timings are then unresolved.
func Compare(a, b *File, bounds []Bound) ([]Verdict, error) {
	n := min(len(a.Runs), len(b.Runs))
	if n < minPairs {
		return nil, fmt.Errorf("perf: %d pairs of runs; comparing needs at least %d", n, minPairs)
	}
	var out []Verdict
	for _, wl := range a.Runs[0].Workloads {
		pa, pb := make([]*Result, n), make([]*Result, n)
		for i := 0; i < n; i++ {
			pa[i], pb[i] = resultOf(a.Runs[i], wl.Workload), resultOf(b.Runs[i], wl.Workload)
			if pa[i] == nil || pb[i] == nil {
				return nil, fmt.Errorf("perf: run %d lacks workload %s", i, wl.Workload)
			}
		}
		first := len(out)
		for _, bd := range bounds {
			va, vb := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				x, okA := pa[i].Metrics[bd.Name]
				y, okB := pb[i].Metrics[bd.Name]
				if !okA || !okB {
					return nil, fmt.Errorf("perf: run %d lacks %s on %s", i, bd.Name, wl.Workload)
				}
				va[i], vb[i] = x.Value, y.Value
			}
			out = append(out, judge(wl.Workload, bd, va, vb))
		}
		fv := judgeFailures(wl.Workload, pa, pb)
		if fv.Outcome == "regression" {
			for i := first; i < len(out); i++ {
				if out[i].Outcome == "better" {
					out[i].Outcome = "unresolved"
				}
			}
		}
		out = append(out, fv)
	}
	return out, nil
}

func resultOf(r RunRecord, workload string) *Result {
	for _, w := range r.Workloads {
		if w.Workload == workload {
			return w
		}
	}
	return nil
}

// judgeFailures compares the failed ops of one workload's pairs: a
// regression when b fails a larger share of its attempted ops than a,
// better when a smaller one. The quartiles and wins are of the per-run
// ratios.
func judgeFailures(workload string, a, b []*Result) Verdict {
	va, vb := make([]float64, len(a)), make([]float64, len(b))
	var failed, attempted [2]int
	for i := range a {
		va[i] = ratio(float64(a[i].Failed), float64(a[i].Attempted))
		vb[i] = ratio(float64(b[i].Failed), float64(b[i].Attempted))
		failed[0], attempted[0] = failed[0]+a[i].Failed, attempted[0]+a[i].Attempted
		failed[1], attempted[1] = failed[1]+b[i].Failed, attempted[1]+b[i].Attempted
	}
	v := judge(workload, Bound{Name: FailedRatio.Name, Unit: FailedRatio.Unit, Better: "lower"}, va, vb)
	ra := ratio(float64(failed[0]), float64(attempted[0]))
	rb := ratio(float64(failed[1]), float64(attempted[1]))
	switch {
	case rb > ra:
		v.Outcome = "regression"
	case rb < ra:
		v.Outcome = "better"
	default:
		v.Outcome = "same"
	}
	return v
}

func judge(workload string, bd Bound, va, vb []float64) Verdict {
	v := Verdict{Workload: workload, Metric: bd.Name, A: quartiles(va), B: quartiles(vb)}
	// better(x, y): x reads better than y.
	better := func(x, y float64) bool {
		if bd.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range va {
		if better(vb[i], va[i]) {
			wins++
		}
	}
	v.Wins = float64(wins) / float64(len(va))
	medA, medB := v.A[1], v.B[1]
	spread := v.A[2] - v.A[0]
	allBetter := true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := medB > medA*(1+bd.Bound)
	if bd.Better == "higher" {
		worse = medB < medA*(1-bd.Bound)
	}
	switch {
	case spread > bd.Bound*medA && !allBetter:
		v.Outcome = "unresolved"
	case worse:
		v.Outcome = "regression"
	case v.Wins >= 0.9 && better(medB, medA) && math.Abs(medB-medA) > spread:
		v.Outcome = "better"
	default:
		v.Outcome = "same"
	}
	return v
}

// quartiles returns the first quartile, median and third quartile of v
// by Python's statistics.quantiles(v, n=4) (the exclusive method).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// PrintVerdicts prints one row per workload and metric.
func PrintVerdicts(w io.Writer, vs []Verdict) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB wins\toutcome")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.0f%%\t%s\n",
			v.Workload, v.Metric, v.A[1], v.A[0], v.A[2], v.B[1], v.B[0], v.B[2], 100*v.Wins, v.Outcome)
	}
	return tw.Flush()
}
