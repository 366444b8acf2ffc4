package shor

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dynamic"
	"repro/internal/gates"
	"repro/internal/mathutil"
)

// Result is the outcome of one order-finding run.
type Result struct {
	N, A     uint64
	Phase    uint64 // measured 2n-bit phase estimate y (φ ≈ y/2^{2n})
	Order    uint64 // recovered multiplicative order r (0 if recovery failed)
	Factors  [2]uint64
	Factored bool
	Qubits   int
	// Aggregated simulation cost.
	MatVecSteps int
	MatMatSteps int
	Duration    time.Duration
	Stats       dd.Stats
}

// checkInstance validates N and a for order finding.
func checkInstance(modN, a uint64) error {
	if modN < 3 {
		return fmt.Errorf("shor: modulus %d too small", modN)
	}
	if modN%2 == 0 {
		return fmt.Errorf("shor: modulus %d is even; factor out 2 classically", modN)
	}
	if a < 2 || a >= modN {
		return fmt.Errorf("shor: base a=%d out of range [2,%d)", a, modN)
	}
	if g := mathutil.GCD(a, modN); g != 1 {
		return fmt.Errorf("shor: gcd(a=%d, N=%d) = %d — already a factor, no quantum part needed", a, modN, g)
	}
	return nil
}

// postprocess turns the measured phase into order and factors.
func postprocess(res *Result) {
	m := 2 * mathutil.BitLen(res.N)
	res.Order = mathutil.OrderFromPhase(res.Phase, m, res.A, res.N)
	if res.Order != 0 {
		if p, q, ok := mathutil.FactorsFromOrder(res.A, res.Order, res.N); ok {
			res.Factors = [2]uint64{p, q}
			res.Factored = true
		}
	}
}

// phaseCorrection returns the semiclassical inverse-QFT rotation applied
// before the j-th measurement, conditioned on the previously measured
// bits y_0..y_{j-1}: θ_j = -2π Σ_k y_k / 2^{j+1-k}.
func phaseCorrection(bits []int) float64 {
	var theta float64
	j := len(bits)
	for k, b := range bits {
		if b == 1 {
			theta -= 2 * math.Pi / float64(uint64(1)<<uint(j+1-k))
		}
	}
	return theta
}

// SimulateGateLevel runs Shor's algorithm for N with base a through the
// full Beauregard 2n+3-qubit circuit, simulated DD-based with the given
// combination strategy. One semiclassical phase-estimation round per
// bit: H on the control, controlled U_{a^{2^{m-1-j}}}, feedback
// rotation, H, measure, reset — 2n rounds in total.
func SimulateGateLevel(modN, a uint64, opt core.Options, rng *rand.Rand) (*Result, error) {
	if err := checkInstance(modN, a); err != nil {
		return nil, err
	}
	nBits := mathutil.BitLen(modN)
	l := NewLayout(nBits)
	m := 2 * nBits

	eng := opt.Engine
	if eng == nil {
		eng = dd.New()
	}
	opt.Engine = eng

	start := time.Now()
	statsBefore := eng.Stats()

	v := eng.BasisState(l.Total(), 1) // x register = 1, everything else 0
	var bits []int
	for j := 0; j < m; j++ {
		power := uint64(1) << uint(m-1-j)
		factor := mathutil.PowMod(a, power, modN)

		seg := circuit.New(l.Total())
		seg.Name = fmt.Sprintf("shor_%d_%d_round_%d", modN, a, j)
		seg.H(l.Control())
		if err := AppendControlledUa(seg, l, factor, modN, l.Control()); err != nil {
			return nil, err
		}
		if theta := phaseCorrection(bits); theta != 0 {
			seg.P(theta, l.Control())
		}
		seg.H(l.Control())

		opt.InitialState = &v
		res, err := core.Run(seg, opt)
		if err != nil {
			return nil, fmt.Errorf("shor: round %d: %w", j, err)
		}
		// Under dynamic reordering the control qubit may live at a
		// permuted DD level; ResetQubit addresses levels, so map it.
		// The reset itself leaves the permutation intact — carry it
		// into the next round so the state keeps its meaning.
		ctl := l.Control()
		for lev, q := range res.Order {
			if q == ctl {
				ctl = lev
				break
			}
		}
		bit, post := eng.ResetQubit(res.State, ctl, rng)
		bits = append(bits, bit)
		v = post
		opt.InitialOrder = res.Order
	}

	var phase uint64
	for k, b := range bits {
		phase |= uint64(b) << uint(k)
	}
	statsAfter := eng.Stats()
	out := &Result{
		N: modN, A: a, Phase: phase,
		Qubits:      l.Total(),
		MatVecSteps: int(statsAfter.MatVecMuls - statsBefore.MatVecMuls),
		MatMatSteps: int(statsAfter.MatMatMuls - statsBefore.MatMatMuls),
		Duration:    time.Since(start),
		Stats:       statsAfter,
	}
	postprocess(out)
	return out, nil
}

// MultiplyPermutation returns the bijection on [0, 2^n) that the
// DD-construct oracle encodes: x → a·x mod N for x < N, identity for
// the unused basis states x ≥ N.
func MultiplyPermutation(nBits int, a, modN uint64) func(uint64) uint64 {
	return func(x uint64) uint64 {
		if x < modN {
			return mathutil.MulMod(a, x, modN)
		}
		return x
	}
}

// BuildUaDD constructs the modular-multiplication unitary U_a directly
// as a matrix DD on nBits qubits — the DD-construct primitive.
func BuildUaDD(eng *dd.Engine, nBits int, a, modN uint64) dd.MEdge {
	return eng.FromPermutation(nBits, MultiplyPermutation(nBits, a, modN))
}

// SimulateDDConstruct runs the same order finding with the DD-construct
// strategy of Sec. IV-B: the Boolean oracle U_{a^{2^j}} is built
// directly from its function as a permutation DD (no working qubits, no
// elementary-gate decomposition), so only n+1 qubits are needed.
func SimulateDDConstruct(modN, a uint64, rng *rand.Rand) (*Result, error) {
	if err := checkInstance(modN, a); err != nil {
		return nil, err
	}
	nBits := mathutil.BitLen(modN)
	if nBits > dd.MaxOracleQubits {
		return nil, fmt.Errorf("shor: modulus %d needs %d bits; DD-construct builds oracles of at most %d qubits (N < 2^%d)",
			modN, nBits, dd.MaxOracleQubits, dd.MaxOracleQubits)
	}
	total := nBits + 1
	ctl := nBits
	m := 2 * nBits

	eng := dd.New()
	start := time.Now()

	// Pre-build the 2n controlled oracles (one per power); each is the
	// permutation DD with one control wrapped on top.
	cUs := make([]dd.MEdge, m)
	for j := 0; j < m; j++ {
		power := uint64(1) << uint(m-1-j)
		factor := mathutil.PowMod(a, power, modN)
		cUs[j] = eng.ControlledOp(BuildUaDD(eng, nBits, factor, modN), false)
	}
	h := eng.GateDD(gates.H, total, ctl, nil)

	v := eng.BasisState(total, 1)
	var bits []int
	for j := 0; j < m; j++ {
		v = eng.MulVec(h, v)
		v = eng.MulVec(cUs[j], v)
		if theta := phaseCorrection(bits); theta != 0 {
			v = eng.MulVec(eng.GateDD(gates.Phase(theta), total, ctl, nil), v)
		}
		v = eng.MulVec(h, v)
		bit, post := eng.ResetQubit(v, ctl, rng)
		bits = append(bits, bit)
		v = post
	}

	var phase uint64
	for k, b := range bits {
		phase |= uint64(b) << uint(k)
	}
	stats := eng.Stats()
	out := &Result{
		N: modN, A: a, Phase: phase,
		Qubits:      total,
		MatVecSteps: int(stats.MatVecMuls),
		MatMatSteps: int(stats.MatMatMuls),
		Duration:    time.Since(start),
		Stats:       stats,
	}
	postprocess(out)
	return out, nil
}

// FactorWithRetries runs order finding repeatedly (fresh randomness per
// attempt) until factors are found or attempts are exhausted. run picks
// the simulation path.
func FactorWithRetries(modN, a uint64, attempts int, rng *rand.Rand,
	run func(modN, a uint64, rng *rand.Rand) (*Result, error)) (*Result, error) {
	var last *Result
	for i := 0; i < attempts; i++ {
		res, err := run(modN, a, rng)
		if err != nil {
			return nil, err
		}
		last = res
		if res.Factored {
			return res, nil
		}
	}
	return last, nil
}

// DynamicProgram builds the complete semiclassical Beauregard
// order-finding procedure as a dynamic circuit: per phase bit an H on
// the control, the controlled modular multiplier, classically
// conditioned feedback rotations, H, measurement into classical bit j,
// and a conditioned X restoring the control to |0>. Classical bit j
// holds phase bit y_j afterwards.
func DynamicProgram(modN, a uint64) (*dynamic.Program, error) {
	if err := checkInstance(modN, a); err != nil {
		return nil, err
	}
	nBits := mathutil.BitLen(modN)
	if 2*nBits > 64 {
		return nil, fmt.Errorf("shor: modulus too large for the 64-bit classical register")
	}
	l := NewLayout(nBits)
	m := 2 * nBits
	p := dynamic.New(l.Total(), m)
	ctl := l.Control()

	// The x register starts at 1.
	p.Gate(circuit.Gate{Name: "x", Matrix: gates.X, Target: l.X(0)})

	for j := 0; j < m; j++ {
		power := uint64(1) << uint(m-1-j)
		factor := mathutil.PowMod(a, power, modN)

		p.Gate(circuit.Gate{Name: "h", Matrix: gates.H, Target: ctl})
		seg := circuit.New(l.Total())
		if err := AppendControlledUa(seg, l, factor, modN, ctl); err != nil {
			return nil, err
		}
		for _, g := range seg.Gates {
			p.Gate(g)
		}
		// Feedback rotations conditioned on the previously measured bits.
		for k := 0; k < j; k++ {
			theta := -2 * math.Pi / float64(uint64(1)<<uint(j+1-k))
			p.GateIf(circuit.Gate{Name: "p", Matrix: gates.Phase(theta), Target: ctl, Params: []float64{theta}},
				1<<uint(k), 1<<uint(k))
		}
		p.Gate(circuit.Gate{Name: "h", Matrix: gates.H, Target: ctl})
		p.Measure(ctl, j)
		p.GateIf(circuit.Gate{Name: "x", Matrix: gates.X, Target: ctl}, 1<<uint(j), 1<<uint(j))
	}
	return p, nil
}

// SimulateDynamic runs the dynamic-program formulation of the
// semiclassical procedure — same physics as SimulateGateLevel, with
// the measurement/feedback logic expressed declaratively.
func SimulateDynamic(modN, a uint64, opt core.Options, rng *rand.Rand) (*Result, error) {
	prog, err := DynamicProgram(modN, a)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	run, err := prog.Run(opt, rng)
	if err != nil {
		return nil, err
	}
	out := &Result{
		N: modN, A: a,
		Phase:       run.Classical,
		Qubits:      prog.NQubits,
		MatVecSteps: run.MatVecSteps,
		MatMatSteps: run.MatMatSteps,
		Duration:    time.Since(start),
		Stats:       run.Engine.Stats(),
	}
	postprocess(out)
	return out, nil
}
