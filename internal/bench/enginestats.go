package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dd"
)

// EngineStatsRow is one workload×strategy run with the engine's
// counters snapshotted after the simulation.
type EngineStatsRow struct {
	Workload string
	Strategy string
	Seconds  float64
	dd.Stats
}

// EngineStats runs a small workload mix under each strategy family with
// a dedicated engine per run and reports the per-cache hit rates and GC
// behaviour. This is the harness view of the engine memory layer: the
// same counters ddsim -stats prints for a single circuit, across the
// paper's benchmark families.
func EngineStats(cfg Config) ([]EngineStatsRow, error) {
	ws := []Workload{
		GroverWorkload(14),
		ShorWorkload(15, 7),
		SupremacyWorkload(4, 4, 12, 7),
	}
	strategies := []core.Strategy{
		core.Sequential{},
		core.KOperations{K: 4},
		core.MaxSize{SMax: 128},
	}
	var rows []EngineStatsRow
	for _, w := range ws {
		for _, st := range strategies {
			e := dd.New()
			opt := core.Options{Strategy: st, Engine: e, Metrics: cfg.Metrics}
			if cfg.Budget > 0 {
				opt.Deadline = time.Now().Add(cfg.Budget)
			}
			start := time.Now()
			err := w.Run(opt)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				if errors.Is(err, core.ErrDeadlineExceeded) {
					continue // drop timed-out runs; the row would be partial
				}
				return nil, fmt.Errorf("bench: enginestats: %s/%s: %w", w.Name, st.Name(), err)
			}
			rows = append(rows, EngineStatsRow{
				Workload: w.Name,
				Strategy: st.Name(),
				Seconds:  elapsed,
				Stats:    e.Stats(),
			})
		}
	}
	return rows, nil
}

// RenderEngineStats renders the engine-counter table.
func RenderEngineStats(rows []EngineStatsRow) string {
	var sb strings.Builder
	sb.WriteString("Engine statistics: per-cache hit rates and GC behaviour per workload and strategy\n")
	sb.WriteString("(hit rate = cache hits / lookups; mul-rec = multiplication recursions, id-skips = identity\n")
	sb.WriteString(" short-circuits taken; nodes = created/recycled; pauses summed over all collections)\n\n")
	fmt.Fprintf(&sb, "%-18s %-18s %8s %8s %8s %8s %10s %9s %12s %12s %5s %10s %9s\n",
		"Benchmark", "Strategy", "add-v", "add-m", "mul-mv", "mul-mm",
		"mul-rec", "id-skips", "created", "recycled", "GCs", "pause", "peak")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %-18s %8s %8s %8s %8s %10d %9d %12d %12d %5d %10s %9d\n",
			r.Workload, r.Strategy,
			fmtRate(r.AddV), fmtRate(r.AddM), fmtRate(r.MulMV), fmtRate(r.MulMM),
			r.MulRecursions, r.IdentitySkipsMV+r.IdentitySkipsMM,
			r.NodesCreated, r.NodesRecycled, r.GCs, r.GCPause.Round(time.Microsecond),
			r.PeakVNodes+r.PeakMNodes)
	}
	return sb.String()
}

func fmtRate(c dd.CacheStats) string {
	if c.Lookups == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*c.HitRate())
}

// EngineStatsCSV renders the raw counters as CSV.
func EngineStatsCSV(rows []EngineStatsRow) string {
	var sb strings.Builder
	sb.WriteString("workload,strategy,seconds," +
		"addv_lookups,addv_hits,addm_lookups,addm_hits," +
		"mulmv_lookups,mulmv_hits,mulmm_lookups,mulmm_hits," +
		"mul_recursions,identity_skips,identity_skip_levels," +
		"nodes_created,nodes_recycled,gcs,gc_pause_seconds,peak_nodes\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d\n",
			csvEscape(r.Workload), csvEscape(r.Strategy), csvFloat(r.Seconds),
			r.AddV.Lookups, r.AddV.Hits, r.AddM.Lookups, r.AddM.Hits,
			r.MulMV.Lookups, r.MulMV.Hits, r.MulMM.Lookups, r.MulMM.Hits,
			r.MulRecursions, r.IdentitySkipsMV+r.IdentitySkipsMM, r.IdentitySkipLevels,
			r.NodesCreated, r.NodesRecycled, r.GCs, csvFloat(r.GCPause.Seconds()),
			r.PeakVNodes+r.PeakMNodes)
	}
	return sb.String()
}
