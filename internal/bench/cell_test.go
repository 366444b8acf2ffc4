package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestTimeCapturesCellMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Reps: 1, Budget: time.Minute, Metrics: reg}
	m := Time(GroverWorkload(6), core.Options{Strategy: core.Sequential{}}, cfg)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	c := m.Cell
	if !c.Valid {
		t.Fatal("expected a captured run_end cell")
	}
	if c.MatVecMuls == 0 || c.NodesCreated == 0 || c.PeakNodes == 0 || c.StateNodes == 0 {
		t.Fatalf("cell totals not populated: %+v", c)
	}
	if c.Abort != "" || c.Degradations != 0 {
		t.Fatalf("clean run carries abort/degradation markers: %+v", c)
	}
	if c.Seconds != m.Seconds {
		t.Fatalf("cell seconds %v != measurement %v", c.Seconds, m.Seconds)
	}
	if r := c.CacheHitRate(); math.IsNaN(r) || r < 0 || r > 1 {
		t.Fatalf("hit rate %v", r)
	}
	// The shared registry aggregated the same run.
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "dd_matvec_muls_total" && s.Value == float64(c.MatVecMuls) {
			found = true
		}
	}
	if !found {
		t.Fatal("registry did not aggregate dd_matvec_muls_total to the cell total")
	}
}

func TestTimeCellOnTimeout(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Nanosecond}
	m := Time(GroverWorkload(10), core.Options{Strategy: core.Sequential{}}, cfg)
	if !m.TimedOut {
		t.Fatal("expected timeout")
	}
	if !m.Cell.Valid || m.Cell.Abort != "deadline" {
		t.Fatalf("timeout cell %+v", m.Cell)
	}
}

func TestCellHitRateNaNWithoutLookups(t *testing.T) {
	if !math.IsNaN((CellMetrics{}).CacheHitRate()) {
		t.Fatal("zero-lookup hit rate must be NaN")
	}
}

func TestSweepMetricsCSV(t *testing.T) {
	cfg := Config{Reps: 1, Budget: time.Minute}
	params := []int{2, 4}
	res, err := sweep(cfg, "test sweep", "k", params,
		func(p int) core.Strategy { return core.KOperations{K: p} }, tinyWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(res.Names) || len(res.BaselineCells) != len(res.Names) {
		t.Fatalf("cell shape: %d/%d rows for %d workloads", len(res.Cells), len(res.BaselineCells), len(res.Names))
	}
	out := res.MetricsCSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + (baseline + len(params)) rows per workload
	want := 1 + len(res.Names)*(1+len(params))
	if len(lines) != want {
		t.Fatalf("metrics CSV has %d lines, want %d:\n%s", len(lines), want, out)
	}
	if !strings.HasPrefix(lines[0], "workload,param,seconds,mark,matvec_muls") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.Contains(out, "grover_6,baseline,") {
		t.Fatalf("missing baseline row:\n%s", out)
	}
	cols := strings.Count(lines[0], ",")
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Fatalf("ragged row %q", l)
		}
	}
}

func TestMetricsCSVEmptyWithoutCells(t *testing.T) {
	r := &SweepResult{Names: []string{"w"}, Params: []int{1}}
	if got := r.MetricsCSV(); got != "" {
		t.Fatalf("pre-cells result rendered %q", got)
	}
}

func TestEngineStatsCarriesPeak(t *testing.T) {
	rows, err := EngineStats(Config{Budget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.PeakVNodes+r.PeakMNodes <= 0 {
			t.Fatalf("row %s/%s has no peak nodes", r.Workload, r.Strategy)
		}
	}
	text := RenderEngineStats(rows)
	if !strings.Contains(text, "peak") {
		t.Fatalf("render missing the peak column:\n%s", text)
	}
	csv := EngineStatsCSV(rows)
	if !strings.Contains(csv, ",peak_nodes\n") {
		t.Fatalf("CSV missing the peak_nodes column:\n%s", csv)
	}
}
