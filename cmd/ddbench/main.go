// Command ddbench regenerates the paper's evaluation artefacts:
//
//	Fig. 8  — speed-up of strategy k-operations over k
//	Fig. 9  — speed-up of strategy max-size over s_max
//	Table I — grover benchmarks with strategy DD-repeating
//	Table II — shor benchmarks with strategy DD-construct
//	Fig. 5  — DD size traces along Eq. 1 vs. combined operations
//	enginestats — per-cache hit rates and GC behaviour of the DD engine
//	identity — identity-aware kernels before/after (ablation, not in "all")
//	reorder — variable-order ablation: fixed vs static vs sifting (not in "all")
//	planner — the locality planner against every fixed strategy (not in "all")
//
// Usage:
//
//	ddbench -experiment all                 # quick suite (~10 minutes)
//	ddbench -experiment table2 -full        # include the paper's moduli
//	ddbench -experiment fig8 -reps 3        # tighter timing
//	ddbench -experiment fig9 -csvdir out/   # also write raw CSV data
//	ddbench -experiment fig8 -metrics-out m.json -pprof prof/
//	ddbench -experiment fig8 -parallel 4    # sweep cells on a worker pool
//
// -parallel N runs the independent sweep cells (fig8/fig9, baselines
// included) through a bounded worker pool, each cell on its
// own freshly created engine. Marks and node counts are identical to
// serial mode — only the timing columns shift with machine load, so use
// -parallel for mark/telemetry sweeps and serial mode for headline
// speed-up numbers.
//
// Sweeps additionally write per-cell run telemetry (<name>_metrics.csv)
// next to the raw data when -csvdir is set. -metrics-out aggregates the
// engine counters of every measured run into one snapshot (JSON, or
// Prometheus text when the path ends in .prom); -progress streams
// per-run progress lines to stderr; -pprof captures CPU and heap
// profiles of the whole suite.
//
// Absolute times depend on the machine; the shapes (where the speed-up
// peaks, who wins by how much, which runs time out) are what the paper
// reports and what this harness reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "all | fig5 | fig8 | fig9 | table1 | table2 | enginestats | identity | planner | reorder")
		full       = flag.Bool("full", false, "larger instances (several minutes; table2 adds the paper's moduli)")
		reps       = flag.Int("reps", 1, "timing repetitions (fastest run reported)")
		budget     = flag.Duration("budget", 30*time.Second, "per-run timeout (paper: 2 CPU hours)")
		maxNodes   = flag.Int("max-nodes", 0, "per-run live-node budget; exceeding runs are reported as oom cells (0 = unlimited)")
		softBudget = flag.Int("soft-budget", 0, "arm the memory-pressure governor at this live-node target; rescued cells are marked degraded instead of oom (0 = off unless -degrade is set)")
		degrade    = flag.String("degrade", "", "governor mode: off, ladder, or approx (degraded cells then carry their fidelity bound)")
		parallel   = flag.Int("parallel", 1, "run sweep cells through a worker pool of this many workers (cells stay deterministic: same marks and node counts as serial mode, only timings shift)")
		csvDir     = flag.String("csvdir", "", "also write raw experiment data as CSV files into this directory")
		metricsOut = flag.String("metrics-out", "", "write an aggregated metrics snapshot over all measured runs (JSON, or Prometheus text if the path ends in .prom)")
		progress   = flag.Bool("progress", false, "stream per-run progress lines to stderr")
		pprofDir   = flag.String("pprof", "", "write cpu.pprof and heap.pprof profiles of the suite into this directory")
	)
	flag.Parse()

	cfg := bench.Config{
		Reps: *reps, Budget: *budget, MaxNodes: *maxNodes,
		SoftBudget: *softBudget, Degrade: *degrade,
		Full: *full, Parallel: *parallel,
	}
	if *metricsOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *progress {
		cfg.Events = obs.NewProgress(os.Stderr, 500*time.Millisecond)
	}
	if *pprofDir != "" {
		if err := os.MkdirAll(*pprofDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
			}
			runtime.GC() // settle the heap so the profile reflects live data
			hf, err := os.Create(filepath.Join(*pprofDir, "heap.pprof"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
				return
			}
			if err := pprof.WriteHeapProfile(hf); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
			}
			if err := hf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ddbench: -pprof:", err)
			}
		}()
	}
	defer func() {
		if *metricsOut == "" {
			return
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*metricsOut, ".prom") {
			err = cfg.Metrics.WritePrometheus(f)
		} else {
			err = cfg.Metrics.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("[metrics snapshot written to %s]\n", *metricsOut)
	}()

	writeCSV := func(name, csv string) {
		if *csvDir == "" || csv == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("[raw data written to %s]\n", path)
	}

	// run prints an experiment's rendered text and writes its raw CSV
	// plus (for sweeps) the per-cell telemetry CSV when -csvdir is set.
	run := func(name string, f func(bench.Config) (text, csv, metricsCSV string, err error)) {
		start := time.Now()
		text, csv, metricsCSV, err := f(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(text)
		writeCSV(name, csv)
		writeCSV(name+"_metrics", metricsCSV)
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	sweepRunner := func(f func(bench.Config) (*bench.SweepResult, error)) func(bench.Config) (string, string, string, error) {
		return func(cfg bench.Config) (string, string, string, error) {
			r, err := f(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderSweep(r), r.CSV(), r.MetricsCSV(), nil
		}
	}

	all := *experiment == "all"
	ran := false
	if all || *experiment == "fig5" {
		run("fig5", func(cfg bench.Config) (string, string, string, error) {
			r, err := bench.Fig5(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderFig5(r), bench.TraceCSV(r), "", nil
		})
		ran = true
	}
	if all || *experiment == "fig8" {
		run("fig8", sweepRunner(bench.Fig8))
		ran = true
	}
	if all || *experiment == "fig9" {
		run("fig9", sweepRunner(bench.Fig9))
		ran = true
	}
	if all || *experiment == "table1" {
		run("table1", func(cfg bench.Config) (string, string, string, error) {
			rows, err := bench.Table1(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderTable1(rows), bench.Table1CSV(rows), "", nil
		})
		ran = true
	}
	if all || *experiment == "table2" {
		run("table2", func(cfg bench.Config) (string, string, string, error) {
			rows, err := bench.Table2(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderTable2(rows, cfg.Budget.Seconds()),
				bench.Table2CSV(rows, cfg.Budget.Seconds()), "", nil
		})
		ran = true
	}
	if all || *experiment == "enginestats" {
		run("enginestats", func(cfg bench.Config) (string, string, string, error) {
			rows, err := bench.EngineStats(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderEngineStats(rows), bench.EngineStatsCSV(rows), "", nil
		})
		ran = true
	}
	if *experiment == "identity" { // kernel ablation; not part of "all"
		run("identity", func(cfg bench.Config) (string, string, string, error) {
			rows, err := bench.IdentitySweep(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderIdentity(rows), bench.IdentityCSV(rows), "", nil
		})
		ran = true
	}
	if *experiment == "reorder" { // variable-order ablation; not part of "all"
		run("reorder", func(cfg bench.Config) (string, string, string, error) {
			rows, err := bench.ReorderSweep(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderReorder(rows), bench.ReorderCSV(rows), "", nil
		})
		ran = true
	}
	if *experiment == "planner" { // strategy-planner comparison; not part of "all"
		run("planner", func(cfg bench.Config) (string, string, string, error) {
			r, err := bench.PlannerSweep(cfg)
			if err != nil {
				return "", "", "", err
			}
			return bench.RenderPlanner(r), bench.PlannerCSV(r), "", nil
		})
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ddbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddbench:", err)
	os.Exit(1)
}
