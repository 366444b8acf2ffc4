package dd

import (
	"slices"
	"time"
)

// Counter is one row of the engine's counter table (Counters), the one
// place an engine counter is declared. Run deltas and totals, event
// fields, Prometheus families, CSV columns and `ddsim -stats` are all
// derived from it, so adding a counter is one Stats field plus one row.
// The table is read off the hot path only: the kernels increment the
// Stats fields directly.
type Counter struct {
	// Name is the snake-case wire name: the event JSON tag and CSV
	// column, and for step rows the Prometheus family dd_<Name>_total.
	Name string
	Help string
	// Max marks a high-water mark: Sub keeps the later value. Every
	// other row is a summed counter.
	Max bool

	get func(*Stats) uint64
	set func(*Stats, uint64)
}

// Value returns the row's value in s.
func (c Counter) Value(s *Stats) uint64 { return c.get(s) }

type number interface{ ~uint64 | ~int64 | ~int }

func row[T number](name, help string, field func(*Stats) *T) Counter {
	return Counter{
		Name: name,
		Help: help,
		get:  func(s *Stats) uint64 { return uint64(*field(s)) },
		set:  func(s *Stats, v uint64) { *field(s) = T(v) },
	}
}

func peak[T number](name, help string, field func(*Stats) *T) Counter {
	c := row(name, help, field)
	c.Max = true
	return c
}

// StepCounters are the rows the runner reports per applied operation:
// the step-event deltas, the run_end totals, the dd_<name>_total
// counters and the metrics-CSV columns.
var StepCounters = []Counter{
	row("matvec_muls", "Top-level matrix-vector multiplications (Eq. 1 cost).", func(s *Stats) *uint64 { return &s.MatVecMuls }),
	row("matmat_muls", "Top-level matrix-matrix multiplications (Eq. 2 cost).", func(s *Stats) *uint64 { return &s.MatMatMuls }),
	row("mul_recursions", "Multiplication-kernel recursion steps (mat-vec and mat-mat).", func(s *Stats) *uint64 { return &s.MulRecursions }),
	row("identity_skips_mv", "Identity short-circuits taken in matrix-vector multiplications.", func(s *Stats) *uint64 { return &s.IdentitySkipsMV }),
	row("identity_skips_mm", "Identity short-circuits taken in matrix-matrix multiplications.", func(s *Stats) *uint64 { return &s.IdentitySkipsMM }),
	row("cache_lookups", "Compute-cache lookups across all four caches.", func(s *Stats) *uint64 { return &s.CacheLookups }),
	row("cache_hits", "Compute-cache hits across all four caches.", func(s *Stats) *uint64 { return &s.CacheHits }),
	row("nodes_created", "Fresh DD nodes interned into the unique tables.", func(s *Stats) *uint64 { return &s.NodesCreated }),
}

// Counters is the counter table: the step rows, then one row for every
// other numeric Stats field.
var Counters = slices.Concat(StepCounters, []Counter{
	row("add_recursions", "Addition-kernel recursion steps (vector and matrix).", func(s *Stats) *uint64 { return &s.AddRecursions }),
	row("identity_skip_levels", "Recursion levels the identity short-circuits avoided.", func(s *Stats) *uint64 { return &s.IdentitySkipLevels }),
	row("addv_lookups", "Vector-addition cache lookups.", func(s *Stats) *uint64 { return &s.AddV.Lookups }),
	row("addv_hits", "Vector-addition cache hits.", func(s *Stats) *uint64 { return &s.AddV.Hits }),
	row("addm_lookups", "Matrix-addition cache lookups.", func(s *Stats) *uint64 { return &s.AddM.Lookups }),
	row("addm_hits", "Matrix-addition cache hits.", func(s *Stats) *uint64 { return &s.AddM.Hits }),
	row("mulmv_lookups", "Matrix-vector multiplication cache lookups.", func(s *Stats) *uint64 { return &s.MulMV.Lookups }),
	row("mulmv_hits", "Matrix-vector multiplication cache hits.", func(s *Stats) *uint64 { return &s.MulMV.Hits }),
	row("mulmm_lookups", "Matrix-matrix multiplication cache lookups.", func(s *Stats) *uint64 { return &s.MulMM.Lookups }),
	row("mulmm_hits", "Matrix-matrix multiplication cache hits.", func(s *Stats) *uint64 { return &s.MulMM.Hits }),
	row("gate_lookups", "GateDD calls that probed the gate memo.", func(s *Stats) *uint64 { return &s.GateLookups }),
	row("gate_hits", "GateDD calls the gate memo answered without building.", func(s *Stats) *uint64 { return &s.GateHits }),
	row("weight_hits", "Weight-table lookups that found an existing representative.", func(s *Stats) *uint64 { return &s.WeightHits }),
	row("weight_misses", "Weight-table lookups that registered a new representative.", func(s *Stats) *uint64 { return &s.WeightMisses }),
	row("nodes_recycled", "Dead nodes returned to the arena free lists by GC.", func(s *Stats) *uint64 { return &s.NodesRecycled }),
	row("gcs", "Engine garbage collections.", func(s *Stats) *uint64 { return &s.GCs }),
	row("gc_pause_ns", "Time spent inside GarbageCollect, in nanoseconds.", func(s *Stats) *time.Duration { return &s.GCPause }),
	peak("gc_max_pause_ns", "Longest single collection, in nanoseconds.", func(s *Stats) *time.Duration { return &s.GCMaxPause }),
	row("aborts", "Cooperative aborts raised by the abort layer.", func(s *Stats) *uint64 { return &s.Aborts }),
	row("reorder_swaps", "Adjacent level swaps performed by dynamic reordering.", func(s *Stats) *uint64 { return &s.ReorderSwaps }),
	row("sift_passes", "Variables sifted by dynamic reordering.", func(s *Stats) *uint64 { return &s.SiftPasses }),
	peak("peak_v_nodes", "Most live vector nodes in the unique table.", func(s *Stats) *int { return &s.PeakVNodes }),
	peak("peak_m_nodes", "Most live matrix nodes in the unique table.", func(s *Stats) *int { return &s.PeakMNodes }),
	peak("peak_vector_size", "Largest state-vector DD observed.", func(s *Stats) *int { return &s.PeakVectorSize }),
	peak("peak_matrix_size", "Largest operation DD observed.", func(s *Stats) *int { return &s.PeakMatrixSize }),
})

// Sub returns the counter growth from base to s, an earlier snapshot of
// the same engine. Max rows keep s's value.
func (s Stats) Sub(base Stats) Stats {
	for _, c := range Counters {
		if !c.Max {
			c.set(&s, c.get(&s)-c.get(&base))
		}
	}
	return s
}
