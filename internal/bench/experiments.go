package bench

import (
	"context"
	"math"
	"math/rand"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// newSeededRand returns the deterministic randomness source used for
// measurement outcomes in benchmark runs.
func newSeededRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// --- Fig. 8 / Fig. 9: parameter sweeps ---------------------------------

// SweepResult holds a speed-up sweep: for each workload a speed-up per
// parameter value (t_sequential / t_strategy), plus the per-parameter
// geometric-mean average line the paper plots.
type SweepResult struct {
	Title    string
	Param    string // "k" or "s_max"
	Params   []int
	Names    []string    // workload names
	Baseline []float64   // sequential seconds per workload
	Speedups [][]float64 // [workload][param]; NaN marks a timeout/oom/error
	Average  []float64   // geometric mean per param over valid entries
	// Marks records why a cell is NaN ("timeout", "oom", "error"; "" for
	// clean cells). BaselineMark does the same for the baseline column.
	// Both may be nil on results built before marks existed.
	Marks        [][]string
	BaselineMark []string
	// Cells and BaselineCells carry per-cell run telemetry (same layout
	// as Speedups / Baseline); rendered by MetricsCSV. Nil on results
	// built before cell metrics existed.
	Cells         [][]CellMetrics
	BaselineCells []CellMetrics
}

// mark returns the cell mark, tolerating results without mark data.
func (r *SweepResult) mark(wi, pi int) string {
	if r.Marks == nil || wi >= len(r.Marks) || pi >= len(r.Marks[wi]) {
		return ""
	}
	return r.Marks[wi][pi]
}

func (r *SweepResult) baselineMark(wi int) string {
	if wi >= len(r.BaselineMark) {
		return ""
	}
	return r.BaselineMark[wi]
}

// Fig8Params are the k values swept for strategy k-operations.
var Fig8Params = []int{2, 4, 8, 16, 32, 64, 128}

// Fig9Params are the s_max values swept for strategy max-size.
var Fig9Params = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Fig8 reproduces the k-operations sweep.
func Fig8(cfg Config) (*SweepResult, error) {
	return sweep(cfg, "Fig. 8: speed-up of strategy k-operations vs. sequential", "k",
		Fig8Params, func(p int) core.Strategy { return core.KOperations{K: p} }, FigWorkloads(cfg.Full))
}

// Fig9 reproduces the max-size sweep.
func Fig9(cfg Config) (*SweepResult, error) {
	return sweep(cfg, "Fig. 9: speed-up of strategy max-size vs. sequential", "s_max",
		Fig9Params, func(p int) core.Strategy { return core.MaxSize{SMax: p} }, FigWorkloads(cfg.Full))
}

func sweep(cfg Config, title, param string, params []int, mk func(int) core.Strategy, ws []Workload) (*SweepResult, error) {
	res := &SweepResult{Title: title, Param: param, Params: params}
	// Every cell — the sequential baselines included — is an independent
	// measurement on its own fresh engine; the speed-up arithmetic runs
	// afterwards, so the cells can execute in any order and runCells may
	// fan them out across a worker pool (cfg.Parallel). Cell index
	// layout: workload wi owns the contiguous block starting at
	// wi*(1+len(params)), baseline first, then one cell per parameter.
	stride := 1 + len(params)
	strategyFor := func(i int) core.Strategy {
		if i%stride == 0 {
			return core.Sequential{}
		}
		return mk(params[i%stride-1])
	}
	ms, err := runCells(cfg, stride*len(ws), func(i int, cfg Config) Measurement {
		return Time(ws[i/stride], core.Options{Strategy: strategyFor(i)}, cfg)
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		base := ms[wi*stride]
		res.Names = append(res.Names, w.Name)
		res.BaselineMark = append(res.BaselineMark, base.Mark())
		baseSec := base.Seconds
		if base.Mark() != "" {
			baseSec = math.NaN()
		}
		res.Baseline = append(res.Baseline, baseSec)
		res.BaselineCells = append(res.BaselineCells, base.Cell)
		row := make([]float64, len(params))
		marks := make([]string, len(params))
		cells := make([]CellMetrics, len(params))
		for i := range params {
			m := ms[wi*stride+1+i]
			marks[i] = m.Mark()
			cells[i] = m.Cell
			if m.Mark() != "" || base.Mark() != "" {
				row[i] = math.NaN()
			} else {
				row[i] = base.Seconds / m.Seconds
			}
		}
		res.Speedups = append(res.Speedups, row)
		res.Marks = append(res.Marks, marks)
		res.Cells = append(res.Cells, cells)
	}
	res.Average = make([]float64, len(params))
	for i := range params {
		prod, n := 1.0, 0
		for _, row := range res.Speedups {
			if !math.IsNaN(row[i]) {
				prod *= row[i]
				n++
			}
		}
		if n == 0 {
			res.Average[i] = math.NaN()
		} else {
			res.Average[i] = math.Pow(prod, 1/float64(n))
		}
	}
	return res, nil
}

// runCells executes n independent cell measurements: in index order
// when cfg.Parallel <= 1, otherwise through a bounded worker pool
// (internal/batch). Results always come back in cell order, so the
// rendered tables and CSV are identical either way — marks and node
// counts exactly, timings modulo machine load. cfg.MaxNodes stays a
// per-run budget (each cell simulates on its own fresh engine), so
// oom marks do not depend on the worker count. Shared sinks are
// serialised for the parallel path; the shared metrics registry is
// already safe for concurrent runs.
func runCells(cfg Config, n int, measure func(i int, cfg Config) Measurement) ([]Measurement, error) {
	if cfg.Parallel <= 1 {
		out := make([]Measurement, n)
		for i := range out {
			out[i] = measure(i, cfg)
		}
		return out, nil
	}
	pcfg := cfg
	if cfg.Events != nil {
		pcfg.Events = obs.NewSyncSink(cfg.Events)
	}
	jobs := make([]batch.Job[Measurement], n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context, int) (Measurement, error) {
			return measure(i, pcfg), nil
		}
	}
	pres, err := batch.Run(context.Background(), jobs,
		batch.Options{Workers: cfg.Parallel, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	out := make([]Measurement, n)
	for i, pr := range pres {
		// Cells report failures through Measurement marks; pool-level
		// errors only arise from panics the measurement did not absorb.
		if pr.Err != nil {
			out[i] = Measurement{Err: pr.Err}
			continue
		}
		out[i] = pr.Value
	}
	return out, nil
}

// --- Table I: grover with DD-repeating ----------------------------------

// Table1Row mirrors one row of the paper's Table I. The mark fields
// carry "timeout" / "oom" / "error" when the corresponding column
// failed ("" for clean cells); its time is then NaN.
type Table1Row struct {
	Name          string
	TSota         float64 // sequential (state of the art)
	SotaMark      string
	TGeneral      float64 // best general strategy
	GeneralName   string  // which general strategy won
	GeneralMark   string
	TRepeating    float64 // DD-repeating (block matrix re-used)
	RepeatingMark string
}

// Table1Sizes returns the grover sizes benchmarked (paper: 23–29
// qubits; scaled here per DESIGN.md).
func Table1Sizes(full bool) []int {
	if full {
		return []int{14, 16, 18, 20}
	}
	return []int{12, 14, 16, 18}
}

// generalStrategies is the small sweep from which t_general picks its
// best result (the paper reports the best k/s_max choice).
func generalStrategies() []core.Strategy {
	return []core.Strategy{
		core.KOperations{K: 4},
		core.KOperations{K: 8},
		core.KOperations{K: 16},
		core.MaxSize{SMax: 64},
		core.MaxSize{SMax: 256},
	}
}

// Table1 reproduces Table I: t_sota, t_general and t_DD-repeating for
// the grover benchmarks. Custom sizes override the defaults (used by
// tests and ad-hoc sweeps).
func Table1(cfg Config, sizes ...int) ([]Table1Row, error) {
	if len(sizes) == 0 {
		sizes = Table1Sizes(cfg.Full)
	}
	var rows []Table1Row
	for _, n := range sizes {
		w := GroverWorkload(n)
		sota := Time(w, core.Options{Strategy: core.Sequential{}}, cfg)
		row := Table1Row{Name: w.Name, TSota: sota.Seconds, SotaMark: sota.Mark()}
		if sota.Mark() != "" {
			row.TSota = math.NaN()
		}

		row.TGeneral = math.Inf(1)
		failMark := "timeout"
		anyClean := false
		for _, st := range generalStrategies() {
			m := Time(w, core.Options{Strategy: st}, cfg)
			if m.Mark() != "" {
				failMark = m.Mark()
				continue
			}
			anyClean = true
			if m.Seconds < row.TGeneral {
				row.TGeneral = m.Seconds
				row.GeneralName = st.Name()
			}
		}
		if !anyClean {
			row.TGeneral, row.GeneralMark = math.NaN(), failMark
		}

		rep := Time(w, core.Options{Strategy: core.Sequential{}, UseBlocks: true}, cfg)
		row.TRepeating, row.RepeatingMark = rep.Seconds, rep.Mark()
		if rep.Mark() != "" {
			row.TRepeating = math.NaN()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table II: shor with DD-construct -----------------------------------

// Table2Row mirrors one row of the paper's Table II. Timeout flags
// correspond to the paper's ">7200.00" entries; the mark fields
// additionally distinguish "oom" and "error" cells under a node budget.
type Table2Row struct {
	Name            string
	QubitsGate      int // 2n+3 qubits of the gate-level circuit
	QubitsConstruct int // n+1 qubits of the DD-construct run
	TSota           float64
	SotaTimeout     bool
	SotaMark        string
	TGeneral        float64
	GeneralTimeout  bool
	GeneralMark     string
	GeneralName     string
	TConstruct      float64
}

// ShorInstance is one (N, a) order-finding instance.
type ShorInstance struct {
	N, A uint64
}

// Table2Instances returns the shor instances. The quick set completes
// within the budget on all three columns; the full set adds the paper's
// own large moduli, for which the gate-level columns time out exactly
// as in the paper while DD-construct stays in the sub-second range.
func Table2Instances(full bool) []ShorInstance {
	quick := []ShorInstance{{15, 7}, {21, 2}, {33, 5}, {35, 6}, {55, 6}}
	if !full {
		return quick
	}
	return append(quick,
		ShorInstance{1007, 602},  // paper instance shor_1007_602_23
		ShorInstance{1851, 17},   // paper instance shor_1851_17_25
		ShorInstance{2561, 2409}, // paper instance shor_2561_2409_27
	)
}

// Table2 reproduces Table II: t_sota, t_general and t_DD-construct.
// Custom instances override the defaults.
func Table2(cfg Config, instances ...ShorInstance) ([]Table2Row, error) {
	if len(instances) == 0 {
		instances = Table2Instances(cfg.Full)
	}
	var rows []Table2Row
	for _, inst := range instances {
		w := ShorWorkload(inst.N, inst.A)
		nBits := bitLen(inst.N)
		row := Table2Row{
			Name:            w.Name,
			QubitsGate:      2*nBits + 3,
			QubitsConstruct: nBits + 1,
		}

		sota := Time(w, core.Options{Strategy: core.Sequential{}}, cfg)
		row.TSota, row.SotaTimeout, row.SotaMark = sota.Seconds, sota.TimedOut, sota.Mark()

		row.TGeneral = math.Inf(1)
		row.GeneralTimeout = true
		failMark := "timeout"
		for _, st := range generalStrategies() {
			m := Time(w, core.Options{Strategy: st}, cfg)
			if m.Mark() != "" {
				failMark = m.Mark()
				continue
			}
			if m.Seconds < row.TGeneral {
				row.TGeneral = m.Seconds
				row.GeneralName = st.Name()
				row.GeneralTimeout = false
			}
		}
		if row.GeneralTimeout {
			row.TGeneral = cfg.Budget.Seconds()
			row.GeneralMark = failMark
		}

		start := time.Now()
		if _, err := shor.SimulateDDConstruct(inst.N, inst.A, newSeededRand()); err != nil {
			return nil, err
		}
		row.TConstruct = time.Since(start).Seconds()
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Fig. 5 / Example 3: DD size traces ----------------------------------

// TraceResult contrasts the DD sizes processed when following Eq. 1
// (pure matrix-vector) against combining pairs of operations first
// (Eq. 2 locally), on a supremacy slice — the quantitative version of
// the paper's Fig. 5 illustration.
type TraceResult struct {
	Workload string
	// Per applied operation: sizes of the operation DD and the state DD.
	Seq      []core.TracePoint
	Combined []core.TracePoint
	// Total multiplication recursions (the actual work metric).
	SeqRecursions      uint64
	CombinedRecursions uint64
}

// Fig5 records the size traces.
func Fig5(cfg Config) (*TraceResult, error) {
	c := supremacy.Circuit(4, 4, 14, 7)
	seq, err := core.Run(c, core.Options{Strategy: core.Sequential{}, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	comb, err := core.Run(c, core.Options{Strategy: core.KOperations{K: 4}, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	return &TraceResult{
		Workload:           c.Name,
		Seq:                seq.Trace,
		Combined:           comb.Trace,
		SeqRecursions:      seq.Stats.MulRecursions + seq.Stats.AddRecursions,
		CombinedRecursions: comb.Stats.MulRecursions + comb.Stats.AddRecursions,
	}, nil
}

func bitLen(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
