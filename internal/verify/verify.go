// Package verify holds the dense-oracle comparison machinery shared by
// the differential test suites (internal/crossval, internal/batch) and
// by the runner's paranoid mode (internal/core): a random-circuit
// generator over the full supported gate vocabulary, fidelity against a
// dense reference state, and a Lockstep oracle that advances a
// conventional state-vector simulation gate-for-gate alongside a DD run
// and compares amplitudes on demand.
//
// Dense simulation is exactly what does not scale, so everything here
// is bounded by MaxOracleQubits; the DD engine's own integrity checks
// (dd.Engine.Audit, the norm and unitarity monitors) carry verification
// beyond that limit.
package verify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/cnum"
	"repro/internal/dd"
	"repro/internal/dense"
)

// FidelityTol is the default acceptance margin: a DD state agrees with
// the oracle when fidelity ≥ 1 − FidelityTol. Canonicalisation rounds
// each weight by up to cnum.Tol (1e-12); across the circuit lengths the
// test suites use, accumulated fidelity loss stays well under 1e-9
// while any genuine gate-application bug costs orders of magnitude
// more.
const FidelityTol = 1e-9

// MaxOracleQubits is the largest qubit count the dense oracle accepts —
// the dd.VEdge.ToVector expansion limit, beyond which a single
// amplitude vector no longer fits in sensible memory.
const MaxOracleQubits = 24

// ErrMismatch is wrapped by oracle-comparison failures; match with
// errors.Is.
var ErrMismatch = errors.New("verify: state disagrees with dense oracle")

// Fidelity returns |<b|a>|², the squared overlap between an amplitude
// slice (e.g. dd.VEdge.ToVector output) and a dense oracle state. The
// lengths must match.
func Fidelity(a []complex128, b *dense.State) float64 {
	var ip complex128
	for i := range a {
		ip += complex(real(b.Amps[i]), -imag(b.Amps[i])) * a[i]
	}
	return cnum.Abs2(ip)
}

// RandomCircuit generates a random circuit over n ≥ 2 qubits drawing
// from the full gate vocabulary every format layer supports (native
// text, QASM export, the optimiser). Shared by the crossval and batch
// differential suites so both sample the same circuit distribution.
func RandomCircuit(rng *rand.Rand, n, length int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < length; i++ {
		q := rng.Intn(n)
		p := (q + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(12) {
		case 0:
			c.H(q)
		case 1:
			c.X(q)
		case 2:
			c.T(q)
		case 3:
			c.Sdg(q)
		case 4:
			c.SX(q)
		case 5:
			c.P(rng.Float64()*2*math.Pi-math.Pi, q)
		case 6:
			c.RY(rng.Float64()*math.Pi, q)
		case 7:
			c.U(rng.Float64(), rng.Float64(), rng.Float64(), q)
		case 8:
			c.CX(q, p)
		case 9:
			c.CZ(q, p)
		case 10:
			c.CP(rng.Float64()*math.Pi, q, p)
		default:
			if n >= 3 {
				r := (p + 1 + rng.Intn(n-2)) % n
				if r != q && r != p {
					c.CCX(q, p, r)
					continue
				}
			}
			c.H(q)
		}
	}
	return c
}

// Lockstep advances a dense reference simulation of one circuit
// alongside a DD run. The runner asks it to Advance to the gate index
// the DD state has reached, then Check compares amplitudes; because the
// dense state only ever moves forward, a full paranoid run costs one
// dense simulation of the circuit regardless of how often it checks.
type Lockstep struct {
	c       *circuit.Circuit
	state   *dense.State
	applied int // gates of c reflected in state
}

// NewLockstep returns an oracle for c positioned at startGate. initial
// is the starting amplitude vector (nil for |0…0>); it is copied.
func NewLockstep(c *circuit.Circuit, startGate int, initial []complex128) (*Lockstep, error) {
	if c.NQubits > MaxOracleQubits {
		return nil, fmt.Errorf("verify: dense oracle supports at most %d qubits, circuit has %d", MaxOracleQubits, c.NQubits)
	}
	if startGate < 0 || startGate > len(c.Gates) {
		return nil, fmt.Errorf("verify: start gate %d out of range [0,%d]", startGate, len(c.Gates))
	}
	var st *dense.State
	if initial == nil {
		st = dense.NewState(c.NQubits)
	} else {
		amps := make([]complex128, len(initial))
		copy(amps, initial)
		st = dense.FromVector(amps)
		if st.N != c.NQubits {
			return nil, fmt.Errorf("verify: initial state spans %d qubits, circuit has %d", st.N, c.NQubits)
		}
	}
	return &Lockstep{c: c, state: st, applied: startGate}, nil
}

// Advance applies gates until the oracle reflects the first `to` gates
// of the circuit. Calls with to ≤ Applied() are no-ops: the oracle
// never rewinds.
func (l *Lockstep) Advance(to int) error {
	if to > len(l.c.Gates) {
		return fmt.Errorf("verify: advance to gate %d beyond circuit end %d", to, len(l.c.Gates))
	}
	for l.applied < to {
		l.state.ApplyGate(l.c.Gates[l.applied])
		l.applied++
	}
	return nil
}

// Applied returns the gate index the oracle has reached.
func (l *Lockstep) Applied() int { return l.applied }

// State exposes the oracle's dense state (not a copy; do not mutate).
func (l *Lockstep) State() *dense.State { return l.state }

// Check compares a DD state against the oracle at its current position
// and returns an ErrMismatch-wrapping error when fidelity falls below
// 1 − FidelityTol.
func (l *Lockstep) Check(v dd.VEdge) error {
	return l.CheckOrdered(v, nil)
}

// CheckOrdered is Check for a DD whose levels are permuted: order maps
// DD level to circuit qubit (dd reordering convention; nil means
// identity). The DD amplitudes are mapped back to circuit order before
// the fidelity comparison, so the oracle stays oblivious to how the
// runner permutes its levels.
func (l *Lockstep) CheckOrdered(v dd.VEdge, order []int) error {
	amps := dd.VectorInOrder(v, order)
	if len(amps) != len(l.state.Amps) {
		return fmt.Errorf("%w: state spans %d amplitudes, oracle %d after gate %d",
			ErrMismatch, len(amps), len(l.state.Amps), l.applied)
	}
	if f := Fidelity(amps, l.state); f < 1-FidelityTol {
		return fmt.Errorf("%w: fidelity %.12f after gate %d", ErrMismatch, f, l.applied)
	}
	return nil
}
