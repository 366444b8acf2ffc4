package bench

import (
	"bufio"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grover"
	"repro/internal/obs"
)

// TestTelemetrySchemaGolden pins the telemetry surfaces of one fixed run
// byte for byte: the Prometheus exposition (wall-time series masked),
// the JSON key set of every event kind, and the two CSV headers. Any
// change to a metric name, help string, registration order, event field
// or column fails here.
func TestTelemetrySchemaGolden(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(1 << 12)
	_, err := core.Run(grover.Circuit(8, 5, 0), core.Options{
		Strategy:  core.KOperations{K: 4},
		EventSink: ring,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if got := maskWallTime(prom.String()); got != goldenPrometheus {
		t.Errorf("Prometheus text changed:\n%s", got)
	}

	keys := map[string]map[string]bool{}
	for _, e := range ring.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		k := e.Kind.String()
		if keys[k] == nil {
			keys[k] = map[string]bool{}
		}
		for name := range m {
			keys[k][name] = true
		}
	}
	var kinds []string
	for k := range keys {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var ev strings.Builder
	for _, k := range kinds {
		var names []string
		for name := range keys[k] {
			names = append(names, name)
		}
		sort.Strings(names)
		ev.WriteString(k + ": " + strings.Join(names, ",") + "\n")
	}
	if got := ev.String(); got != goldenEventKeys {
		t.Errorf("event key sets changed:\n%s", got)
	}

	if metricsCSVHeader != goldenMetricsCSVHeader {
		t.Errorf("metrics CSV header changed:\n%s", metricsCSVHeader)
	}
	if got := EngineStatsCSV(nil); got != goldenEngineStatsCSVHeader {
		t.Errorf("enginestats CSV header changed:\n%s", got)
	}
}

// maskWallTime replaces the sample values of the wall-time histograms,
// which vary run to run, with "*".
func maskWallTime(s string) string {
	var out strings.Builder
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "dd_step_seconds") || strings.HasPrefix(line, "dd_gc_pause_seconds") {
			line = line[:strings.LastIndexByte(line, ' ')] + " *"
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

const goldenPrometheus = `# HELP dd_steps_total Applied operations (top-level matrix-vector steps).
# TYPE dd_steps_total counter
dd_steps_total 62
# HELP dd_matvec_muls_total Top-level matrix-vector multiplications (Eq. 1 cost).
# TYPE dd_matvec_muls_total counter
dd_matvec_muls_total 62
# HELP dd_matmat_muls_total Top-level matrix-matrix multiplications (Eq. 2 cost).
# TYPE dd_matmat_muls_total counter
dd_matmat_muls_total 186
# HELP dd_mul_recursions_total Multiplication-kernel recursion steps (mat-vec and mat-mat).
# TYPE dd_mul_recursions_total counter
dd_mul_recursions_total 1713
# HELP dd_identity_skips_mv_total Identity short-circuits taken in matrix-vector multiplications.
# TYPE dd_identity_skips_mv_total counter
dd_identity_skips_mv_total 202
# HELP dd_identity_skips_mm_total Identity short-circuits taken in matrix-matrix multiplications.
# TYPE dd_identity_skips_mm_total counter
dd_identity_skips_mm_total 63
# HELP dd_cache_lookups_total Compute-cache lookups across all four caches.
# TYPE dd_cache_lookups_total counter
dd_cache_lookups_total 2651
# HELP dd_cache_hits_total Compute-cache hits across all four caches.
# TYPE dd_cache_hits_total counter
dd_cache_hits_total 791
# HELP dd_cache_invalidations_total Compute-cache invalidations (GC, aborts, explicit clears).
# TYPE dd_cache_invalidations_total counter
dd_cache_invalidations_total 0
# HELP dd_nodes_created_total Fresh DD nodes interned into the unique tables.
# TYPE dd_nodes_created_total counter
dd_nodes_created_total 1234
# HELP dd_gc_total Engine garbage collections.
# TYPE dd_gc_total counter
dd_gc_total 0
# HELP dd_aborts_total Runs aborted (deadline, budget, cancellation, injection, panic).
# TYPE dd_aborts_total counter
dd_aborts_total 0
# HELP dd_checkpoints_total Checkpoints handed to the caller.
# TYPE dd_checkpoints_total counter
dd_checkpoints_total 0
# HELP dd_verifications_total Integrity verification passes.
# TYPE dd_verifications_total counter
dd_verifications_total 0
# HELP dd_verify_failures_total Verification passes that detected corruption.
# TYPE dd_verify_failures_total counter
dd_verify_failures_total 0
# HELP dd_planner_decisions_total Planner rule choices (one per run under the planner).
# TYPE dd_planner_decisions_total counter
dd_planner_decisions_total 0
# HELP dd_reorder_total Dynamic variable-reordering (sifting) passes.
# TYPE dd_reorder_total counter
dd_reorder_total 0
# HELP dd_reorder_swaps_total Adjacent level swaps performed by dynamic reordering.
# TYPE dd_reorder_swaps_total counter
dd_reorder_swaps_total 0
# HELP dd_reorder_sift_passes_total Variables sifted by dynamic reordering.
# TYPE dd_reorder_sift_passes_total counter
dd_reorder_sift_passes_total 0
# HELP dd_pressure_actions_total Degradation-ladder actions taken by the memory-pressure governor.
# TYPE dd_pressure_actions_total counter
dd_pressure_actions_total 0
# HELP dd_pressure_parks_total Runs parked behind a checkpoint by the pressure governor (rung 5).
# TYPE dd_pressure_parks_total counter
dd_pressure_parks_total 0
# HELP dd_pressure_approx_total Fidelity-bounded state approximations taken under pressure (rung 4).
# TYPE dd_pressure_approx_total counter
dd_pressure_approx_total 0
# HELP dd_pressure_level Pressure band of the governor's last action (1 low, 2 high, 3 critical).
# TYPE dd_pressure_level gauge
dd_pressure_level 0
# HELP dd_pressure_fidelity_bound_ppm Cumulative fidelity lower bound after approximations, in parts per million.
# TYPE dd_pressure_fidelity_bound_ppm gauge
dd_pressure_fidelity_bound_ppm 0
# HELP dd_live_nodes Live nodes in the unique tables (vector + matrix).
# TYPE dd_live_nodes gauge
dd_live_nodes 1242
# HELP dd_reorder_nodes_before State DD size entering the last sifting pass.
# TYPE dd_reorder_nodes_before gauge
dd_reorder_nodes_before 0
# HELP dd_reorder_nodes_after State DD size leaving the last sifting pass.
# TYPE dd_reorder_nodes_after gauge
dd_reorder_nodes_after 0
# HELP dd_step_seconds Wall time per applied operation.
# TYPE dd_step_seconds histogram
dd_step_seconds_bucket{le="1e-06"} *
dd_step_seconds_bucket{le="4e-06"} *
dd_step_seconds_bucket{le="1.6e-05"} *
dd_step_seconds_bucket{le="6.4e-05"} *
dd_step_seconds_bucket{le="0.000256"} *
dd_step_seconds_bucket{le="0.001024"} *
dd_step_seconds_bucket{le="0.004096"} *
dd_step_seconds_bucket{le="0.016384"} *
dd_step_seconds_bucket{le="0.065536"} *
dd_step_seconds_bucket{le="0.262144"} *
dd_step_seconds_bucket{le="1.048576"} *
dd_step_seconds_bucket{le="4.194304"} *
dd_step_seconds_bucket{le="+Inf"} *
dd_step_seconds_sum *
dd_step_seconds_count *
# HELP dd_gc_pause_seconds Engine GC pause durations.
# TYPE dd_gc_pause_seconds histogram
dd_gc_pause_seconds_bucket{le="1e-06"} *
dd_gc_pause_seconds_bucket{le="4e-06"} *
dd_gc_pause_seconds_bucket{le="1.6e-05"} *
dd_gc_pause_seconds_bucket{le="6.4e-05"} *
dd_gc_pause_seconds_bucket{le="0.000256"} *
dd_gc_pause_seconds_bucket{le="0.001024"} *
dd_gc_pause_seconds_bucket{le="0.004096"} *
dd_gc_pause_seconds_bucket{le="0.016384"} *
dd_gc_pause_seconds_bucket{le="0.065536"} *
dd_gc_pause_seconds_bucket{le="0.262144"} *
dd_gc_pause_seconds_bucket{le="+Inf"} *
dd_gc_pause_seconds_sum *
dd_gc_pause_seconds_count *
# HELP dd_state_nodes State DD size after each applied operation.
# TYPE dd_state_nodes histogram
dd_state_nodes_bucket{le="1"} 0
dd_state_nodes_bucket{le="4"} 0
dd_state_nodes_bucket{le="16"} 26
dd_state_nodes_bucket{le="64"} 62
dd_state_nodes_bucket{le="256"} 62
dd_state_nodes_bucket{le="1024"} 62
dd_state_nodes_bucket{le="4096"} 62
dd_state_nodes_bucket{le="16384"} 62
dd_state_nodes_bucket{le="65536"} 62
dd_state_nodes_bucket{le="262144"} 62
dd_state_nodes_bucket{le="1.048576e+06"} 62
dd_state_nodes_bucket{le="4.194304e+06"} 62
dd_state_nodes_bucket{le="+Inf"} 62
dd_state_nodes_sum 1048
dd_state_nodes_count 62
# HELP dd_op_nodes Operation DD size of each applied matrix.
# TYPE dd_op_nodes histogram
dd_op_nodes_bucket{le="1"} 0
dd_op_nodes_bucket{le="4"} 0
dd_op_nodes_bucket{le="16"} 62
dd_op_nodes_bucket{le="64"} 62
dd_op_nodes_bucket{le="256"} 62
dd_op_nodes_bucket{le="1024"} 62
dd_op_nodes_bucket{le="4096"} 62
dd_op_nodes_bucket{le="16384"} 62
dd_op_nodes_bucket{le="65536"} 62
dd_op_nodes_bucket{le="262144"} 62
dd_op_nodes_bucket{le="1.048576e+06"} 62
dd_op_nodes_bucket{le="4.194304e+06"} 62
dd_op_nodes_bucket{le="+Inf"} 62
dd_op_nodes_sum 664
dd_op_nodes_count 62
`

const goldenEventKeys = `run_end: cache_hits,cache_lookups,circuit,gate,identity_skips_mm,identity_skips_mv,kind,m_live,matmat_muls,matvec_muls,mul_recursions,nodes_created,peak_nodes,seq,state_nodes,time_unix_ns,total_gates,v_live,wall_ns
run_start: circuit,gate,kind,seq,time_unix_ns,total_gates,v_live
step: cache_hits,cache_lookups,combined,gate,identity_skips_mm,identity_skips_mv,kind,m_live,matmat_muls,matvec_muls,mul_recursions,nodes_created,op_nodes,seq,state_nodes,time_unix_ns,v_live,wall_ns
`

const goldenMetricsCSVHeader = `workload,param,seconds,mark,matvec_muls,matmat_muls,mul_recursions,identity_skips_mv,identity_skips_mm,cache_lookups,cache_hits,cache_hit_rate,nodes_created,gcs,gc_pause_seconds,peak_nodes,state_nodes,degradations,fidelity_bound
`

const goldenEngineStatsCSVHeader = `workload,strategy,seconds,addv_lookups,addv_hits,addm_lookups,addm_hits,mulmv_lookups,mulmv_hits,mulmm_lookups,mulmm_hits,mul_recursions,identity_skips,identity_skip_levels,nodes_created,nodes_recycled,gcs,gc_pause_seconds,peak_nodes
`
