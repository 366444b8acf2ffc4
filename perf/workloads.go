package perf

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/hamiltonian"
	"repro/internal/mathutil"
	"repro/internal/obs"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// inputs generates the inputs from seed; the same seed always gives
	// the same inputs.
	inputs func(seed int64) (instance, error)
}

// instance is a workload's generated inputs.
type instance interface {
	// start finishes set-up (serve_jobs starts its server).
	start(cfg Config) error
	// measure computes the references from ref (inputs of RefSeed),
	// runs the passes, and records samples, counters and metrics.
	measure(cfg Config, ref instance, res *Result, layers map[string]float64) error
	close() error
}

// inProcess is the start/close of workloads that need no server.
type inProcess struct{}

func (inProcess) start(Config) error { return nil }
func (inProcess) close() error       { return nil }

var workloads = []workload{
	{"eq1_supremacy", newEq1},
	{"eq2_combine", newEq2},
	{"reuse_construct", newReuse},
	{"serve_jobs", newServeJobs},
}

// fidelityTol is how far below 1 a state's fidelity with its dense
// reference may fall.
const fidelityTol = 1e-9

// groverTol is how far a marked element's probability may stray from
// the analytic one. Combining drifts measurably: over 60 marked
// elements, max-size(s=64) on grover_16 landed up to 4.5e-5 low and
// DD-repeating on grover_16 up to 2e-8 off. DD-repeating drifts far
// more on larger searches (up to 3e-4 on grover_17, 2e-2 on
// grover_18), which is why reuse_construct stops at grover_16.
const groverTol = 1e-3

// --- eq1_supremacy -----------------------------------------------------

// supDepths are the eq1_supremacy cycle counts on the 4×4 grid. Every
// step is one gate DD times the state; the state DD grows with depth,
// to about 6k nodes at depth 15.
var supDepths = []int{11, 13, 15}

type eq1 struct {
	inProcess
	circuits []*circuit.Circuit
}

func newEq1(seed int64) (instance, error) {
	w := &eq1{}
	for _, d := range supDepths {
		w.circuits = append(w.circuits, supremacy.Circuit(4, 4, d, seed))
	}
	return w, nil
}

// measure runs sequential (pure Eq. 1) simulation. The first op of
// each depth is checked against the dense simulator; every later op
// must reproduce its node count and norm exactly.
func (w *eq1) measure(cfg Config, ref instance, res *Result, layers map[string]float64) error {
	type outcome struct {
		nodes int
		norm  float64
	}
	var classes []class
	for i, c := range w.circuits {
		want := dense.Simulate(ref.(*eq1).circuits[i])
		var first *outcome
		classes = append(classes, class{
			name: fmt.Sprintf("supremacy_d%d", supDepths[i]),
			run: func(sink obs.Sink) (func() (Counters, error), error) {
				r, err := core.Run(c, core.Options{EventSink: sink})
				if err != nil {
					return nil, err
				}
				return func() (Counters, error) {
					got := outcome{r.Engine.SizeV(r.State), r.State.Norm()}
					cnt := engineCounters(len(c.Gates), r.Stats, r.Engine)
					if first == nil {
						first = &got
						return cnt, checkFidelity(r.State, want)
					}
					if got != *first {
						return cnt, fmt.Errorf("state %d nodes, norm %v; first op had %d, %v", got.nodes, got.norm, first.nodes, first.norm)
					}
					return cnt, nil
				}, nil
			},
		})
	}
	closedLoop(cfg, func(int) []class { return append([]class(nil), classes...) }, res, layers)
	return nil
}

// checkFidelity compares a state with its dense reference.
func checkFidelity(v dd.VEdge, want *dense.State) error {
	if f := dense.FromVector(v.ToVector()).Fidelity(want); f < 1-fidelityTol {
		return fmt.Errorf("fidelity %.12f with the dense reference", f)
	}
	return nil
}

// --- grover ------------------------------------------------------------

// groverSet is a pool of Grover searches on n qubits with marked
// elements drawn from the workload's seed.
type groverSet struct {
	n        int
	marked   [pool]uint64
	circuits [pool]*circuit.Circuit
}

func newGroverSet(rng *rand.Rand, n int) *groverSet {
	g := &groverSet{n: n}
	for k := range g.marked {
		g.marked[k] = uint64(rng.Int63n(1 << n))
		g.circuits[k] = grover.Circuit(n, g.marked[k], 0)
	}
	return g
}

// op runs instance k under opt and checks that ref's marked element of
// instance k is found with the analytic probability.
func (g *groverSet) op(name string, opt core.Options, ref *groverSet, k int) class {
	c, marked := g.circuits[k], ref.marked[k]
	want := grover.SuccessProbability(g.n, grover.Iterations(g.n))
	return class{name: name, run: func(sink obs.Sink) (func() (Counters, error), error) {
		opt.EventSink = sink
		r, err := core.Run(c, opt)
		if err != nil {
			return nil, err
		}
		return func() (Counters, error) {
			cnt := engineCounters(len(c.Gates), r.Stats, r.Engine)
			if p := sq(cmplx.Abs(r.State.Amplitude(marked))); math.Abs(p-want) > groverTol {
				return cnt, fmt.Errorf("marked state %d has probability %.9f, want %.9f", marked, p, want)
			}
			return cnt, nil
		}, nil
	}}
}

func sq(x float64) float64 { return x * x }

// --- shor --------------------------------------------------------------

// shorCase is one order-finding instance.
type shorCase struct{ n, a uint64 }

func (s shorCase) String() string { return fmt.Sprintf("shor_%d_%d", s.n, s.a) }

// gateLevelGates returns, for each semiclassical round j, the gates of
// its segment apart from the feedback rotation: H, the controlled
// modular multiplier, H (see shor.SimulateGateLevel).
func (s shorCase) gateLevelGates() ([]int, error) {
	nBits := mathutil.BitLen(s.n)
	l := shor.NewLayout(nBits)
	m := 2 * nBits
	out := make([]int, m)
	for j := range out {
		seg := circuit.New(l.Total())
		factor := mathutil.PowMod(s.a, uint64(1)<<uint(m-1-j), s.n)
		if err := shor.AppendControlledUa(seg, l, factor, s.n, l.Control()); err != nil {
			return nil, err
		}
		out[j] = len(seg.Gates) + 2
	}
	return out, nil
}

// gatesSimulated counts the gates of a gate-level run that measured
// phase: round j adds the feedback rotation once any earlier bit was 1.
func gatesSimulated(perRound []int, phase uint64) int {
	total := 0
	for j, g := range perRound {
		total += g
		if phase&(uint64(1)<<uint(j)-1) != 0 {
			total++
		}
	}
	return total
}

// checkShor checks the classical post-processing of a run: a reported
// order r satisfies a^r ≡ 1 (mod N), reported factors multiply to N.
func checkShor(r *shor.Result) error {
	if r.Order != 0 && mathutil.PowMod(r.A, r.Order, r.N) != 1 {
		return fmt.Errorf("order %d: %d^%d ≢ 1 (mod %d)", r.Order, r.A, r.Order, r.N)
	}
	if r.Factored && r.Factors[0]*r.Factors[1] != r.N {
		return fmt.Errorf("factors %d×%d ≠ %d", r.Factors[0], r.Factors[1], r.N)
	}
	return nil
}

// --- eq2_combine -------------------------------------------------------

var eq2Shor = []shorCase{{15, 7}, {21, 2}}

type eq2 struct {
	inProcess
	g14, g16 *groverSet
	// shorSeeds seed the measurement randomness of each instance.
	shorSeeds [pool]int64
	shorGates [][]int
}

func newEq2(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &eq2{g14: newGroverSet(rng, 14), g16: newGroverSet(rng, 16)}
	for k := range w.shorSeeds {
		w.shorSeeds[k] = rng.Int63()
	}
	for _, s := range eq2Shor {
		g, err := s.gateLevelGates()
		if err != nil {
			return nil, err
		}
		w.shorGates = append(w.shorGates, g)
	}
	return w, nil
}

// measure runs the combination strategies of Sec. IV-A (Eq. 2): Grover
// under k-operations(k=4) and max-size(s=64), and gate-level Shor under
// k=4, whose phases must equal a sequential reference run.
func (w *eq2) measure(cfg Config, ref instance, res *Result, layers map[string]float64) error {
	r := ref.(*eq2)
	k4 := core.Options{Strategy: core.KOperations{K: 4}}
	s64 := core.Options{Strategy: core.MaxSize{SMax: 64}}
	// Each sequential reference is computed once, after the first op
	// that needs it, so a run of few rounds pays only for its own.
	want := make([][pool]func() (uint64, error), len(eq2Shor))
	for i, s := range eq2Shor {
		for k, seed := range r.shorSeeds {
			want[i][k] = sync.OnceValues(func() (uint64, error) {
				sr, err := shor.SimulateGateLevel(s.n, s.a, core.Options{}, rand.New(rand.NewSource(seed)))
				if err != nil {
					return 0, fmt.Errorf("sequential reference: %w", err)
				}
				return sr.Phase, nil
			})
		}
	}
	closedLoop(cfg, func(round int) []class {
		k := round % pool
		ops := []class{
			w.g14.op("grover_14/k4", k4, r.g14, k),
			w.g16.op("grover_16/k4", k4, r.g16, k),
			w.g16.op("grover_16/s64", s64, r.g16, k),
		}
		for i, s := range eq2Shor {
			ops = append(ops, w.shorOp(s, w.shorGates[i], k, want[i][k]))
		}
		return ops
	}, res, layers)
	return nil
}

func (w *eq2) shorOp(s shorCase, perRound []int, k int, want func() (uint64, error)) class {
	return class{name: s.String() + "/k4", layer: "shor.measure_ms", run: func(sink obs.Sink) (func() (Counters, error), error) {
		eng := dd.New()
		opt := core.Options{Strategy: core.KOperations{K: 4}, Engine: eng, EventSink: sink}
		r, err := shor.SimulateGateLevel(s.n, s.a, opt, rand.New(rand.NewSource(w.shorSeeds[k])))
		if err != nil {
			return nil, err
		}
		return func() (Counters, error) {
			cnt := engineCounters(gatesSimulated(perRound, r.Phase), r.Stats, eng)
			phase, err := want()
			if err != nil {
				return cnt, err
			}
			if r.Phase != phase {
				return cnt, fmt.Errorf("phase %d, sequential reference %d", r.Phase, phase)
			}
			return cnt, checkShor(r)
		}, nil
	}}
}

// --- reuse_construct ---------------------------------------------------

// tfimChain is the transverse-field Ising chain reuse_construct and
// serve_jobs evolve to t = 1 by Trotter steps.
var tfimChain = hamiltonian.TFIM{Sites: 10, J: 1, H: 0.9}

// reuseTFIMSteps: at 28 steps the chain's weight churn creates about
// 225k nodes, so it collects once under the default 200k threshold,
// while its state never exceeds 2^10 amplitudes.
const reuseTFIMSteps = 28

var reuseShor = []shorCase{{1007, 602}, {1851, 17}}

type reuse struct {
	inProcess
	g15, g16      *groverSet
	tfim          *circuit.Circuit
	constructSeed int64
}

func newReuse(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &reuse{g15: newGroverSet(rng, 15), g16: newGroverSet(rng, 16), constructSeed: rng.Int63()}
	c, err := tfimChain.TrotterCircuit(1, reuseTFIMSteps)
	if err != nil {
		return nil, err
	}
	w.tfim = c
	return w, nil
}

// measure runs the knowledge-exploiting strategies of Sec. IV-B:
// DD-repeating (UseBlocks) on Grover and the TFIM Trotter steps, and
// DD-construct Shor, whose oracles are built directly as permutation
// DDs.
func (w *reuse) measure(cfg Config, ref instance, res *Result, layers map[string]float64) error {
	r := ref.(*reuse)
	blocks := core.Options{UseBlocks: true}
	wantTFIM := dense.Simulate(r.tfim)
	tfimOp := class{name: "tfim_10/blocks", run: func(sink obs.Sink) (func() (Counters, error), error) {
		out, err := core.Run(w.tfim, core.Options{UseBlocks: true, EventSink: sink})
		if err != nil {
			return nil, err
		}
		return func() (Counters, error) {
			return engineCounters(len(w.tfim.Gates), out.Stats, out.Engine), checkFidelity(out.State, wantTFIM)
		}, nil
	}}
	var constructOps []class
	for _, s := range reuseShor {
		first := uint64(0)
		seen := false
		constructOps = append(constructOps, class{name: s.String() + "/construct", layer: "shor.construct_ms", run: func(obs.Sink) (func() (Counters, error), error) {
			r, err := shor.SimulateDDConstruct(s.n, s.a, rand.New(rand.NewSource(w.constructSeed)))
			if err != nil {
				return nil, err
			}
			return func() (Counters, error) {
				cnt := engineCounters(r.MatVecSteps, r.Stats, nil)
				if !seen {
					first, seen = r.Phase, true
				} else if r.Phase != first {
					return cnt, fmt.Errorf("phase %d, first op measured %d", r.Phase, first)
				}
				return cnt, checkShor(r)
			}, nil
		}})
	}
	closedLoop(cfg, func(round int) []class {
		k := round % pool
		return append([]class{
			w.g15.op("grover_15/blocks", blocks, r.g15, k),
			w.g16.op("grover_16/blocks", blocks, r.g16, k),
			tfimOp,
		}, constructOps...)
	}, res, layers)
	return nil
}
