// Package perf is the ddperf benchmark: four workloads that measure
// the paper's trade — matrix-matrix combination (Eq. 2) against
// matrix-vector application (Eq. 1) — end to end and layer by layer.
//
// The benchmark drives the simulator only through its public entry
// points (core.Run, the shor simulators, the serve HTTP API) and reads
// what they already expose (Result.Stats, Engine.MemStats,
// Engine.WeightTableSize, the core.Options.EventSink event stream). It
// changes nothing in the program it measures. See README.md for the
// workloads, the metrics and their bounds.
package perf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dd"
)

// Config selects what one measurement measures.
type Config struct {
	Workload string
	// Seed generates the inputs; the same seed gives the same inputs.
	Seed int64
	// RefSeed generates the inputs the references are computed from.
	// It equals Seed except in the negative check, where a wrong
	// reference must make ops fail.
	RefSeed int64
	// Seconds bounds the measuring loop (whole rounds only).
	Seconds float64
	// Rounds, when positive, runs exactly this many rounds instead.
	Rounds int
	// Trace adds the traced pass that yields the per-layer metrics.
	Trace bool
	// SetupProbes is how many times setup is timed in a fresh child
	// process (Exe -probe-setup); zero times one in-process setup.
	SetupProbes int
	Exe         string
	// Scratch is a writable directory for server journals.
	Scratch string
	// Progress, when set, is kept current so a watchdog can report a
	// run that never finishes.
	Progress *Progress
}

// Progress counts ops as they are attempted and failed.
type Progress struct {
	Attempted, Failed atomic.Int64
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MetricDef names a metric and its unit.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics a user of the simulator sees, reported per
// workload from the untraced pass.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"run_p50_ms", "ms"},
	{"run_p90_ms", "ms"},
	{"gates_per_s", "gates/s"},
	{"peak_rss_mb", "MB"},
}

// FailedRatio is printed beside EndToEnd. It is not a bounded metric:
// it reads 0 on a healthy run, and any increase is a regression.
var FailedRatio = MetricDef{"failed_ratio", "ratio"}

// PerLayer are the per-layer metrics of a traced run. Counts come from
// the untraced pass, times from the traced pass.
var PerLayer = []MetricDef{
	{"core.apply_ms", "ms"},
	{"core.absorb_ms", "ms"},
	{"core.gates_per_step", "gates/step"},
	{"core.degradations", "count/op"},
	{"dd.matvec_muls", "count/op"},
	{"dd.matmat_muls", "count/op"},
	{"dd.mul_recursions", "count/op"},
	{"dd.add_recursions", "count/op"},
	{"dd.identity_skips", "count/op"},
	{"dd.cache_hit_ratio.addv", "ratio"},
	{"dd.cache_hit_ratio.addm", "ratio"},
	{"dd.cache_hit_ratio.mulmv", "ratio"},
	{"dd.cache_hit_ratio.mulmm", "ratio"},
	{"dd.cache_lookups.addv", "count/op"},
	{"dd.cache_lookups.addm", "count/op"},
	{"dd.cache_lookups.mulmv", "count/op"},
	{"dd.cache_lookups.mulmm", "count/op"},
	{"dd.nodes_created", "count/op"},
	{"dd.nodes_recycled", "count/op"},
	{"dd.gcs", "count/op"},
	{"dd.gc_ms", "ms"},
	{"dd.peak_nodes", "nodes"},
	{"dd.peak_state_nodes", "nodes"},
	{"dd.unique_slots", "slots"},
	{"dd.arena_chunks", "chunks"},
	{"dd.peak_op_nodes", "nodes"},
	{"cnum.weights", "weights"},
	{"shor.measure_ms", "ms"},
	{"shor.construct_ms", "ms"},
	{"circuit.build_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.submissions", "count"},
	{"trace.overhead", "ratio"},
}

// Sample is one op.
type Sample struct {
	Class  string  `json:"class"`
	Round  int     `json:"round"`
	Client int     `json:"client,omitempty"`
	Traced bool    `json:"traced,omitempty"`
	MS     float64 `json:"ms"`
	Gates  int     `json:"gates"`
	OK     bool    `json:"ok"`
	// SubmitMS and RunMS split a serve_jobs op: the POST round trip and
	// the job's own run time from its summary.
	SubmitMS float64 `json:"submit_ms,omitempty"`
	RunMS    float64 `json:"run_ms,omitempty"`
}

// Counters are the work an op did, as the program reports it. Sums are
// over ops; Peak*, UniqueSlots, ArenaChunks and Weights are maxima.
type Counters struct {
	Ops           int           `json:"ops"`
	Gates         int           `json:"gates"`
	Degradations  int           `json:"degradations"`
	MatVecMuls    uint64        `json:"matvec_muls"`
	MatMatMuls    uint64        `json:"matmat_muls"`
	MulRecursions uint64        `json:"mul_recursions"`
	AddRecursions uint64        `json:"add_recursions"`
	IdentitySkips uint64        `json:"identity_skips"`
	AddV          dd.CacheStats `json:"addv"`
	AddM          dd.CacheStats `json:"addm"`
	MulMV         dd.CacheStats `json:"mulmv"`
	MulMM         dd.CacheStats `json:"mulmm"`
	NodesCreated  uint64        `json:"nodes_created"`
	NodesRecycled uint64        `json:"nodes_recycled"`
	GCs           uint64        `json:"gcs"`
	PeakNodes     int           `json:"peak_nodes"`
	PeakOpNodes   int           `json:"peak_op_nodes"`
	UniqueSlots   int           `json:"unique_slots"`
	ArenaChunks   int           `json:"arena_chunks"`
	Weights       int           `json:"weights"`
}

// add folds one op's counters in.
func (c *Counters) add(o Counters) {
	c.Ops += o.Ops
	c.Gates += o.Gates
	c.Degradations += o.Degradations
	c.MatVecMuls += o.MatVecMuls
	c.MatMatMuls += o.MatMatMuls
	c.MulRecursions += o.MulRecursions
	c.AddRecursions += o.AddRecursions
	c.IdentitySkips += o.IdentitySkips
	for _, p := range [][2]*dd.CacheStats{{&c.AddV, &o.AddV}, {&c.AddM, &o.AddM}, {&c.MulMV, &o.MulMV}, {&c.MulMM, &o.MulMM}} {
		p[0].Lookups += p[1].Lookups
		p[0].Hits += p[1].Hits
	}
	c.NodesCreated += o.NodesCreated
	c.NodesRecycled += o.NodesRecycled
	c.GCs += o.GCs
	c.PeakNodes = max(c.PeakNodes, o.PeakNodes)
	c.PeakOpNodes = max(c.PeakOpNodes, o.PeakOpNodes)
	c.UniqueSlots = max(c.UniqueSlots, o.UniqueSlots)
	c.ArenaChunks = max(c.ArenaChunks, o.ArenaChunks)
	c.Weights = max(c.Weights, o.Weights)
}

// engineCounters reads one op's counters from the stats of its fresh
// engine and, when the op exposes it, the engine itself.
func engineCounters(gates int, st dd.Stats, eng *dd.Engine) Counters {
	c := Counters{
		Ops:           1,
		Gates:         gates,
		MatVecMuls:    st.MatVecMuls,
		MatMatMuls:    st.MatMatMuls,
		MulRecursions: st.MulRecursions,
		AddRecursions: st.AddRecursions,
		IdentitySkips: st.IdentitySkipsMV + st.IdentitySkipsMM,
		AddV:          st.AddV,
		AddM:          st.AddM,
		MulMV:         st.MulMV,
		MulMM:         st.MulMM,
		NodesCreated:  st.NodesCreated,
		NodesRecycled: st.NodesRecycled,
		GCs:           st.GCs,
		PeakNodes:     st.PeakVNodes + st.PeakMNodes,
		PeakOpNodes:   st.PeakMatrixSize,
	}
	if eng != nil {
		m := eng.MemStats()
		c.UniqueSlots = m.VCapacity + m.MCapacity
		c.ArenaChunks = m.VChunks + m.MChunks
		c.Weights = eng.WeightTableSize()
	}
	return c
}

// Result is the outcome of measuring one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Layers    map[string]Metric `json:"layers,omitempty"`
	// Counters cover the first counterRounds rounds of the untraced
	// pass, TracedCounters the same rounds of the traced pass; for the
	// in-process workloads both repeat exactly for a given seed.
	Counters       Counters  `json:"counters"`
	TracedCounters *Counters `json:"traced_counters,omitempty"`
	Samples        []Sample  `json:"samples"`
	SetupSeconds   []float64 `json:"setup_samples_s"`
	Errors         []string  `json:"errors,omitempty"`
	Spans          []Span    `json:"-"`
}

// maxErrors caps the check failures a result keeps verbatim.
const maxErrors = 20

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Workloads lists the workload names in the order they are run.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("perf: unknown workload %q (want one of %s)", name, strings.Join(Workloads(), ", "))
}

// Run measures one workload.
func Run(cfg Config) (_ *Result, err error) {
	w, err := lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Rounds <= 0 && cfg.Seconds <= 0 {
		return nil, fmt.Errorf("perf: set Seconds or Rounds")
	}
	res := &Result{Workload: w.name, Metrics: map[string]Metric{}}
	buildMS, err := measureSetup(cfg, w, res)
	if err != nil {
		return nil, err
	}
	in, err := w.inputs(cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, in.close()) }()
	if err := in.start(cfg); err != nil {
		return nil, err
	}
	ref := in
	if cfg.RefSeed != cfg.Seed {
		if ref, err = w.inputs(cfg.RefSeed); err != nil {
			return nil, err
		}
	}
	layers := map[string]float64{"circuit.build_ms": buildMS}
	if err := in.measure(cfg, ref, res, layers); err != nil {
		return nil, err
	}
	res.Attempted = len(res.Samples)
	res.Correct = res.Failed == 0
	res.Metrics[FailedRatio.Name] = Metric{ratio(float64(res.Failed), float64(res.Attempted)), FailedRatio.Unit}
	if cfg.Trace {
		counterLayers(res.Counters, layers)
		res.Layers = map[string]Metric{}
		for _, d := range PerLayer {
			res.Layers[d.Name] = Metric{layers[d.Name], d.Unit}
		}
	}
	return res, nil
}

// counterLayers adds the per-layer metrics the counters give.
func counterLayers(c Counters, layers map[string]float64) {
	ops := float64(max(c.Ops, 1))
	per := func(v uint64) float64 { return float64(v) / ops }
	for k, v := range map[string]float64{
		"core.gates_per_step":      ratio(float64(c.Gates), float64(c.MatVecMuls)),
		"core.degradations":        float64(c.Degradations) / ops,
		"dd.matvec_muls":           per(c.MatVecMuls),
		"dd.matmat_muls":           per(c.MatMatMuls),
		"dd.mul_recursions":        per(c.MulRecursions),
		"dd.add_recursions":        per(c.AddRecursions),
		"dd.identity_skips":        per(c.IdentitySkips),
		"dd.cache_hit_ratio.addv":  c.AddV.HitRate(),
		"dd.cache_hit_ratio.addm":  c.AddM.HitRate(),
		"dd.cache_hit_ratio.mulmv": c.MulMV.HitRate(),
		"dd.cache_hit_ratio.mulmm": c.MulMM.HitRate(),
		"dd.cache_lookups.addv":    per(c.AddV.Lookups),
		"dd.cache_lookups.addm":    per(c.AddM.Lookups),
		"dd.cache_lookups.mulmv":   per(c.MulMV.Lookups),
		"dd.cache_lookups.mulmm":   per(c.MulMM.Lookups),
		"dd.nodes_created":         per(c.NodesCreated),
		"dd.nodes_recycled":        per(c.NodesRecycled),
		"dd.gcs":                   per(c.GCs),
		"dd.peak_nodes":            float64(c.PeakNodes),
		"dd.unique_slots":          float64(c.UniqueSlots),
		"dd.arena_chunks":          float64(c.ArenaChunks),
		"dd.peak_op_nodes":         float64(c.PeakOpNodes),
		"cnum.weights":             float64(c.Weights),
	} {
		layers[k] = v
	}
}

// setE2E fills the timing metrics from the untraced samples; wall is
// the timed wall time gates_per_s divides by. peak_rss_mb is read as
// the pass ends, before checks and tracing allocate memory of their
// own.
func setE2E(res *Result, wall time.Duration, peakMB float64) {
	res.Metrics["peak_rss_mb"] = Metric{peakMB, "MB"}
	var ms []float64
	gates := 0
	for _, s := range res.Samples {
		if !s.Traced {
			ms = append(ms, s.MS)
			gates += s.Gates
		}
	}
	res.Metrics["run_p50_ms"] = Metric{percentile(ms, 0.5), "ms"}
	res.Metrics["run_p90_ms"] = Metric{percentile(ms, 0.9), "ms"}
	res.Metrics["gates_per_s"] = Metric{ratio(float64(gates), wall.Seconds()), "gates/s"}
}

// percentile interpolates linearly between the order statistics of v.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// ratio returns a/b, or 0 when b is 0 (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB returns this process's peak resident set in MiB: VmHWM,
// which Linux also reports as ru_maxrss, in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who".
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
