// Command ddperf runs the benchmark of perf/README.md.
//
//	ddperf -seed 1                    all four workloads, each in a child process
//	ddperf -seed 1 -trace spans.json  add the traced pass and the per-layer table
//	ddperf -seed 1 -out runs.json     append the run, with per-op samples, to a file
//	ddperf -workload eq1_supremacy -seed 1 -seconds 30 -trace 0
//	ddperf -compare parent.json change.json
//
// With -workload, ddperf measures that workload in this process and
// ends its output with one JSON line: correct, attempted, failed and
// the metrics (end-to-end, or per-layer with -trace). It exits 1 when
// an output is wrong.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/perf"
)

// setupProbes is how many fresh processes time a workload's set-up.
const setupProbes = 11

func main() {
	var (
		workload = flag.String("workload", "", "measure one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 30, "measure each workload for this long (whole rounds)")
		trace    = flag.String("trace", "0", "0 (off), 1 (add the traced pass), or a file to also write its spans to")
		out      = flag.String("out", "", "append the run, with per-op samples, to this JSON file")
		scratch  = flag.String("scratch", filepath.Join(".bench_build", "scratch"), "writable directory for server journals")
		commit   = flag.String("commit", "", "commit recorded with -out (default: from the build)")
		compare  = flag.Bool("compare", false, "compare two -out files of alternating runs: ddperf -compare parent.json change.json")
		bench    = flag.String("benchmark", "BENCHMARK.json", "the benchmark definition -compare takes bounds from")
		probe    = flag.Bool("probe-setup", false, "set -workload up once, print its input generation time in ms, and exit (used to time set-up)")
	)
	flag.Parse()
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg := perf.Config{
		Workload: *workload, Seed: *seed, RefSeed: *seed, Seconds: *seconds,
		Trace: *trace != "0" && *trace != "", SetupProbes: setupProbes, Exe: exe, Scratch: *scratch,
	}
	switch {
	case *compare:
		os.Exit(runCompare(*bench, flag.Args()))
	case *probe:
		ms, err := perf.ProbeSetup(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(strconv.FormatFloat(ms, 'g', -1, 64))
	case *workload != "":
		os.Exit(runOne(cfg, *trace, *out, *commit))
	default:
		os.Exit(runAll(cfg, *trace, *out, *commit))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddperf:", err)
	os.Exit(2)
}

// record describes this invocation for -out.
func record(cfg perf.Config, commit string) perf.RunRecord {
	if commit == "" {
		commit = "unknown"
		dirty := ""
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				switch {
				case s.Key == "vcs.revision":
					commit = s.Value
				case s.Key == "vcs.modified" && s.Value == "true":
					dirty = "-dirty"
				}
			}
		}
		commit += dirty
	}
	return perf.RunRecord{
		Commit: commit, Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
	}
}

// watchdog bounds a measuring run: past it, the op in flight counts as
// failed and the run ends with whatever it measured so far.
func watchdog(cfg perf.Config) time.Duration {
	d := min(600*time.Second, time.Duration(5*cfg.Seconds*float64(time.Second)))
	return max(d, time.Minute)
}

// runOne measures cfg.Workload in this process.
func runOne(cfg perf.Config, trace, out, commit string) int {
	progress := &perf.Progress{}
	cfg.Progress = progress
	type done struct {
		res *perf.Result
		err error
	}
	ch := make(chan done, 1)
	go func() {
		res, err := perf.Run(cfg)
		ch <- done{res, err}
	}()
	var d done
	select {
	case d = <-ch:
	case <-time.After(watchdog(cfg)):
		fmt.Fprintf(os.Stdout, "{\"correct\":false,\"attempted\":%d,\"failed\":%d,\"metrics\":{}}\n",
			progress.Attempted.Load(), progress.Failed.Load()+1)
		fmt.Fprintln(os.Stderr, "ddperf: watchdog fired with an op still running")
		return 1
	}
	if d.err != nil {
		fmt.Fprintln(os.Stderr, "ddperf:", d.err)
		return 2
	}
	res := d.res
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "ddperf: wrong answer:", e)
	}
	if out != "" {
		rec := record(cfg, commit)
		rec.Workloads = []*perf.Result{res}
		if err := perf.AppendRun(out, rec); err != nil {
			fatal(err)
		}
	}
	if cfg.Trace && trace != "1" {
		if err := perf.WriteSpans(trace, map[string][]perf.Span{res.Workload: res.Spans}); err != nil {
			fatal(err)
		}
	}
	perf.PrintLines(os.Stdout, res)
	line, err := perf.ContractLine(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll measures every workload, each in a child process of its own.
func runAll(cfg perf.Config, trace, out, commit string) int {
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(cfg.Scratch, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	rec := record(cfg, commit)
	spans := map[string][]perf.Span{}
	status := 0
	for _, w := range perf.Workloads() {
		resFile := filepath.Join(tmp, w+".json")
		spanFile := filepath.Join(tmp, w+".spans.json")
		childTrace := "0"
		if cfg.Trace {
			childTrace = spanFile
		}
		cmd := exec.Command(cfg.Exe, "-workload", w, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
			"-trace", childTrace, "-out", resFile, "-scratch", cfg.Scratch, "-commit", rec.Commit)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "ddperf: %s: %v\n", w, err)
			status = 1
		}
		f, err := perf.ReadFile(resFile)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			fatal(err)
		}
		res := f.Runs[0].Workloads[0]
		rec.Workloads = append(rec.Workloads, res)
		perf.PrintLines(os.Stdout, res)
		if cfg.Trace {
			s, err := perf.ReadSpans(spanFile)
			if err != nil {
				fatal(err)
			}
			spans[w] = s[w]
		}
	}
	if out != "" {
		if err := perf.AppendRun(out, rec); err != nil {
			fatal(err)
		}
	}
	if cfg.Trace && trace != "1" {
		if err := perf.WriteSpans(trace, spans); err != nil {
			fatal(err)
		}
	}
	return status
}

func runCompare(bench string, files []string) int {
	if len(files) != 2 {
		fatal(errors.New("-compare takes two files, the parent's runs and the change's"))
	}
	spec, err := perf.ReadSpec(bench)
	if err != nil {
		fatal(err)
	}
	var runs [2]*perf.File
	for i, p := range files {
		if runs[i], err = perf.ReadFile(p); err != nil {
			fatal(err)
		}
	}
	vs, err := perf.Compare(runs[0], runs[1], spec.EndToEnd)
	if err != nil {
		fatal(err)
	}
	if err := perf.PrintVerdicts(os.Stdout, vs); err != nil {
		fatal(err)
	}
	for _, v := range vs {
		if v.Outcome == "regression" {
			return 1
		}
	}
	return 0
}
