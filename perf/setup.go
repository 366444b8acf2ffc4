package perf

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// ProbeSetup performs one workload's set-up and tears it down again:
// input generation, then whatever start-up the workload needs (the
// serve_jobs server). It returns the input generation time in
// milliseconds. ddperf -probe-setup runs it in a fresh process, so that
// timing the process also covers the process start.
func ProbeSetup(cfg Config) (float64, error) {
	w, err := lookup(cfg.Workload)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	in, err := w.inputs(cfg.Seed)
	if err != nil {
		return 0, err
	}
	build := time.Since(t0)
	if err := errors.Join(in.start(cfg), in.close()); err != nil {
		return 0, err
	}
	return millis(build), nil
}

// measureSetup fills setup_s — the median over cfg.SetupProbes child
// processes that each start, set the workload up and exit — and returns
// the median input generation time in milliseconds. Without probes it
// times one in-process set-up.
func measureSetup(cfg Config, w *workload, res *Result) (float64, error) {
	var builds []float64
	if cfg.SetupProbes <= 0 {
		t0 := time.Now()
		ms, err := ProbeSetup(cfg)
		if err != nil {
			return 0, fmt.Errorf("perf: set-up: %w", err)
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(t0).Seconds())
		builds = append(builds, ms)
	}
	for i := 0; i < cfg.SetupProbes; i++ {
		cmd := exec.Command(cfg.Exe, "-probe-setup", "-workload", w.name,
			"-seed", strconv.FormatInt(cfg.Seed, 10), "-scratch", cfg.Scratch)
		t0 := time.Now()
		out, err := cmd.Output()
		dt := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("perf: set-up probe: %w", err)
		}
		ms, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("perf: set-up probe printed %q: %w", out, err)
		}
		res.SetupSeconds = append(res.SetupSeconds, dt.Seconds())
		builds = append(builds, ms)
	}
	res.Metrics["setup_s"] = Metric{percentile(res.SetupSeconds, 0.5), "s"}
	return percentile(builds, 0.5), nil
}
