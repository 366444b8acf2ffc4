package repro

// Benchmarks regenerating the paper's evaluation artefacts through the
// standard Go tooling — one benchmark family per table/figure:
//
//	go test -bench=Fig8 -benchmem .     # Fig. 8  (k-operations sweep)
//	go test -bench=Fig9 -benchmem .     # Fig. 9  (max-size sweep)
//	go test -bench=Table1 -benchmem .   # Table I (grover / DD-repeating)
//	go test -bench=Table2 -benchmem .   # Table II (shor / DD-construct)
//
// cmd/ddbench renders the same experiments as the paper's tables and
// figures with speed-up columns; these benchmarks expose the underlying
// runtimes to `benchstat`-style tooling instead.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// fig8Workloads is the reduced benchmark mix (one per family plus the
// deeper supremacy instance) so `go test -bench=.` stays in the
// minutes range.
func figBenchWorkloads() []bench.Workload {
	return []bench.Workload{
		bench.GroverWorkload(14),
		bench.ShorWorkload(15, 7),
		bench.SupremacyWorkload(4, 4, 12, 7),
		bench.SupremacyWorkload(4, 4, 16, 7),
	}
}

func runWorkload(b *testing.B, w bench.Workload, opt core.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the Fig. 8 data points: each sub-benchmark
// is one (workload, k) cell; k=1 rows are the sequential baseline the
// speed-ups divide by.
func BenchmarkFig8(b *testing.B) {
	for _, w := range figBenchWorkloads() {
		for _, k := range []int{1, 2, 8, 32} {
			var st core.Strategy = core.KOperations{K: k}
			if k == 1 {
				st = core.Sequential{}
			}
			b.Run(fmt.Sprintf("%s/k=%d", w.Name, k), func(b *testing.B) {
				runWorkload(b, w, core.Options{Strategy: st})
			})
		}
	}
}

// BenchmarkFig9 regenerates the Fig. 9 data points over s_max.
func BenchmarkFig9(b *testing.B) {
	for _, w := range figBenchWorkloads() {
		for _, s := range []int{16, 128, 1024} {
			b.Run(fmt.Sprintf("%s/smax=%d", w.Name, s), func(b *testing.B) {
				runWorkload(b, w, core.Options{Strategy: core.MaxSize{SMax: s}})
			})
		}
	}
}

// BenchmarkTable1 regenerates Table I: per grover size the three
// columns t_sota (sequential), t_general (k-operations) and
// t_DD-repeating (block matrix re-used across iterations).
func BenchmarkTable1(b *testing.B) {
	for _, n := range []int{12, 14, 16} {
		w := bench.GroverWorkload(n)
		b.Run(fmt.Sprintf("%s/sota", w.Name), func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.Sequential{}})
		})
		b.Run(fmt.Sprintf("%s/general", w.Name), func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.KOperations{K: 8}})
		})
		b.Run(fmt.Sprintf("%s/dd-repeating", w.Name), func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.Sequential{}, UseBlocks: true})
		})
	}
}

// BenchmarkTable2 regenerates Table II: per shor instance t_sota,
// t_general (gate-level Beauregard circuit) and t_DD-construct (direct
// permutation-DD oracle on n+1 qubits).
func BenchmarkTable2(b *testing.B) {
	instances := []bench.ShorInstance{{N: 15, A: 7}, {N: 21, A: 2}, {N: 33, A: 5}}
	for _, inst := range instances {
		w := bench.ShorWorkload(inst.N, inst.A)
		b.Run(fmt.Sprintf("%s/sota", w.Name), func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.Sequential{}})
		})
		b.Run(fmt.Sprintf("%s/general", w.Name), func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.MaxSize{SMax: 128}})
		})
		b.Run(fmt.Sprintf("%s/dd-construct", w.Name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shor.SimulateDDConstruct(inst.N, inst.A, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The DD-construct column scales to the paper's own moduli.
	for _, inst := range []bench.ShorInstance{{N: 1007, A: 602}, {N: 1851, A: 17}} {
		b.Run(fmt.Sprintf("shor_%d_%d/dd-construct", inst.N, inst.A), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := shor.SimulateDDConstruct(inst.N, inst.A, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Trace measures the two parenthesisations of Example 3 on
// the supremacy slice: Eq. 1 per-gate application vs. combining k=4
// operations first.
func BenchmarkFig5Trace(b *testing.B) {
	c := supremacy.Circuit(4, 4, 14, 7)
	b.Run("eq1-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(c, core.Options{Strategy: core.Sequential{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eq2-combined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(c, core.Options{Strategy: core.KOperations{K: 4}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDenseBaseline contrasts the array-based simulation the paper
// argues against (footnote 9 / refs [13-17]) on the same workload.
func BenchmarkDenseBaseline(b *testing.B) {
	c := supremacy.Circuit(4, 4, 12, 7)
	b.Run("dense-array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dense.Simulate(c)
		}
	})
	b.Run("dd-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(c, core.Options{Strategy: core.Sequential{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations of design choices called out in DESIGN.md -----------------

// BenchmarkAblationCombineOrder contrasts the linear fold used by the
// DD-repeating block combiner against a balanced-tree fold on the same
// gate range (one full Grover iteration and a supremacy slice).
func BenchmarkAblationCombineOrder(b *testing.B) {
	grov := bench.GroverWorkload(14)
	_ = grov
	gc := groverIterationCircuit()
	sup := supremacy.Circuit(4, 4, 8, 7)
	cases := []struct {
		name string
		c    *circuitAlias
	}{
		{"grover-iter", &circuitAlias{gc}},
		{"supremacy", &circuitAlias{sup}},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/linear", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := dd.New()
				if _, err := core.CombineGates(eng, tc.c.c, 0, tc.c.c.GateCount()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := dd.New()
				if _, err := core.CombineGatesTree(eng, tc.c.c, 0, tc.c.c.GateCount()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type circuitAlias struct{ c *circuit.Circuit }

// groverIterationCircuit extracts one Grover iteration body as a
// standalone circuit.
func groverIterationCircuit() *circuit.Circuit {
	full := grover.Circuit(14, 1234, 1)
	blk := full.Blocks[0]
	c := circuit.New(full.NQubits)
	c.Gates = append(c.Gates, full.Gates[blk.Start:blk.End]...)
	return c
}

// BenchmarkAblationPlanner contrasts the fixed-threshold max-size
// strategy against the planner's locality-picked rule.
func BenchmarkAblationPlanner(b *testing.B) {
	for _, w := range []bench.Workload{
		bench.SupremacyWorkload(4, 4, 16, 7),
		bench.ShorWorkload(15, 7),
	} {
		b.Run(w.Name+"/max-size-128", func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.MaxSize{SMax: 128}})
		})
		b.Run(w.Name+"/planner", func(b *testing.B) {
			runWorkload(b, w, core.Options{Strategy: core.Planner{}})
		})
	}
}

// BenchmarkAblationScheduling measures whether commutation-aware
// reordering (internal/sched) changes combination effectiveness.
func BenchmarkAblationScheduling(b *testing.B) {
	c := supremacy.Circuit(4, 4, 14, 7)
	variants := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"original", c},
		{"asap", sched.ASAP(c)},
		{"by-locality", sched.ByLocality(c)},
	}
	for _, v := range variants {
		b.Run(v.name+"/k=4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(v.c, core.Options{Strategy: core.KOperations{K: 4}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(v.name+"/max-size-128", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(v.c, core.Options{Strategy: core.MaxSize{SMax: 128}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOptimizer measures simulation time with and without
// the peephole optimiser on a redundancy-rich workload (a circuit
// composed with its own inverse prefix).
func BenchmarkAblationOptimizer(b *testing.B) {
	base := supremacy.Circuit(3, 4, 10, 3)
	c := circuit.New(base.NQubits)
	c.Gates = append(c.Gates, base.Gates...)
	c.AppendCircuit(base.Inverse())
	c.Gates = append(c.Gates, base.Gates...)
	optimised, _ := opt.Optimize(c)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(c, core.Options{Strategy: core.MaxSize{SMax: 128}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(optimised, core.Options{Strategy: core.MaxSize{SMax: 128}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
