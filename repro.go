// Package repro is the public facade of the DD-based quantum circuit
// simulator reproducing Zulehner & Wille, "Matrix-Vector vs.
// Matrix-Matrix Multiplication: Potential in DD-based Simulation of
// Quantum Computations" (DATE 2019).
//
// The simulator represents states and operators as edge-weighted
// decision diagrams and supports the paper's strategies for combining
// operations via matrix-matrix multiplication before they are applied
// to the state vector:
//
//	c := repro.NewCircuit(2)
//	c.H(0).CX(0, 1)
//	res, err := repro.Simulate(c, repro.MaxSize(64))
//
// Algorithm generators (Grover, Shor/Beauregard, Google-style
// supremacy circuits, QFT), a textual circuit format, and the paper's
// benchmark harness are included; see the sub-packages under internal/
// and the runnable programs under cmd/ and examples/.
package repro

import (
	"io"
	"math/rand"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dynamic"
	"repro/internal/grover"
	"repro/internal/hamiltonian"
	"repro/internal/opt"
	"repro/internal/qasm"
	"repro/internal/qft"
	"repro/internal/realfmt"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// Re-exported core types. The facade keeps one import path for typical
// use; power users can import the internal packages directly.
type (
	// Circuit is a gate sequence over n qubits.
	Circuit = circuit.Circuit
	// Gate is one operation of a circuit.
	Gate = circuit.Gate
	// Strategy decides when combined operations are applied to the state.
	Strategy = core.Strategy
	// Options configures a simulation run.
	Options = core.Options
	// Result is the outcome of a simulation run.
	Result = core.Result
	// State is a quantum state represented as a decision diagram.
	State = dd.VEdge
	// Operator is a unitary represented as a decision diagram.
	Operator = dd.MEdge
	// Engine owns the decision-diagram tables of one simulation.
	Engine = dd.Engine
	// FactoringResult is the outcome of a Shor order-finding run.
	FactoringResult = shor.Result
	// DynamicProgram is a circuit with intermediate measurements, resets
	// and classically-controlled gates.
	DynamicProgram = dynamic.Program
)

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// ParseCircuit reads a circuit in the textual format (see
// internal/circuit).
func ParseCircuit(r io.Reader) (*Circuit, error) { return circuit.Parse(r) }

// NewEngine returns a fresh decision-diagram engine.
func NewEngine() *Engine { return dd.New() }

// Sequential returns the matrix-vector-only baseline strategy (Eq. 1 of
// the paper — the state of the art before this work).
func Sequential() Strategy { return core.Sequential{} }

// KOperations returns the strategy combining runs of k operations via
// matrix-matrix multiplication before each simulation step (Sec. IV-A).
func KOperations(k int) Strategy { return core.KOperations{K: k} }

// MaxSize returns the strategy combining operations until the product's
// DD exceeds sMax nodes (Sec. IV-A).
func MaxSize(sMax int) Strategy { return core.MaxSize{SMax: sMax} }

// Planner returns the strategy that picks one fixed rule per run from
// the circuit's gate locality: k-operations (k = 4) for chained gates,
// max-size (s_max = 128) for Grover-like circuits, and a flush once the
// operation DD passes twice the state DD for layers of disjoint gates
// (see core.Planner). No k / s_max tuning is needed.
func Planner() Strategy { return core.Planner{} }

// Simulate runs c from |0…0> under the given strategy (nil means
// sequential) and returns the final state as a decision diagram.
func Simulate(c *Circuit, strategy Strategy) (*Result, error) {
	return core.Run(c, core.Options{Strategy: strategy})
}

// SimulateOpts runs c with full control over the options, including the
// DD-repeating treatment of repeated blocks (Options.UseBlocks).
func SimulateOpts(c *Circuit, opt Options) (*Result, error) {
	return core.Run(c, opt)
}

// GroverCircuit returns a Grover search over 2^n entries for the marked
// element, with the iteration recorded as a repeatable block
// (iterations = 0 selects the optimal count).
func GroverCircuit(n int, marked uint64, iterations int) *Circuit {
	return grover.Circuit(n, marked, iterations)
}

// GroverIterations returns the optimal Grover iteration count for n
// qubits.
func GroverIterations(n int) int { return grover.Iterations(n) }

// SupremacyCircuit returns a Boixo-et-al.-style random grid circuit.
func SupremacyCircuit(rows, cols, depth int, seed int64) *Circuit {
	return supremacy.Circuit(rows, cols, depth, seed)
}

// QFTCircuit returns the quantum Fourier transform on n qubits.
func QFTCircuit(n int) *Circuit { return qft.Circuit(n, true) }

// Factor runs Shor's algorithm for N with base a using the paper's
// DD-construct strategy (oracle built directly as a permutation DD on
// n+1 qubits) and returns the recovered order and factors. rng drives
// the measurement outcomes. N must be below 2^24.
func Factor(n, a uint64, rng *rand.Rand) (*FactoringResult, error) {
	return shor.SimulateDDConstruct(n, a, rng)
}

// FactorGateLevel runs the same computation through the full Beauregard
// 2n+3-qubit circuit simulated with the given strategy — the expensive
// way the paper's Table II baselines measure.
func FactorGateLevel(n, a uint64, strategy Strategy, rng *rand.Rand) (*FactoringResult, error) {
	return shor.SimulateGateLevel(n, a, core.Options{Strategy: strategy}, rng)
}

// BernsteinVazirani returns the one-query circuit recovering the secret
// parity mask (qubits [0,n) input, qubit n ancilla).
func BernsteinVazirani(n int, secret uint64) *Circuit {
	return algos.BernsteinVazirani(n, secret)
}

// DeutschJozsa returns the one-query constant-vs-balanced circuit; a
// zero mask selects the constant oracle.
func DeutschJozsa(n int, mask uint64) *Circuit {
	if mask == 0 {
		return algos.DeutschJozsa(n, false, 0, false)
	}
	return algos.DeutschJozsa(n, true, mask, false)
}

// PhaseEstimation returns the t-counting-qubit phase estimation circuit
// for the eigenphase θ of P(2πθ).
func PhaseEstimation(t int, theta float64) *Circuit {
	return algos.PhaseEstimation(t, theta)
}

// ImportQASM reads an OpenQASM 2.0 program, returning the unitary part
// as a circuit (measurements are dropped; use internal/qasm for them).
func ImportQASM(r io.Reader) (*Circuit, error) {
	prog, err := qasm.Parse(r)
	if err != nil {
		return nil, err
	}
	return prog.Circuit, nil
}

// ExportQASM writes the circuit as an OpenQASM 2.0 program.
func ExportQASM(w io.Writer, c *Circuit) error { return qasm.Export(w, c) }

// Equivalent decides whether two circuits implement the same unitary up
// to global phase by comparing their combined operation DDs.
func Equivalent(c1, c2 *Circuit) (bool, error) {
	res, err := core.Equivalent(nil, c1, c2)
	if err != nil {
		return false, err
	}
	return res.Equivalent, nil
}

// NewDynamicProgram returns an empty dynamic circuit (intermediate
// measurements, resets, classically-controlled gates).
func NewDynamicProgram(nQubits, nClbits int) *DynamicProgram {
	return dynamic.New(nQubits, nClbits)
}

// ImportDynamicQASM parses an OpenQASM 2.0 program including measure,
// reset and `if` statements into a dynamic program.
func ImportDynamicQASM(r io.Reader) (*DynamicProgram, error) {
	return qasm.ParseDynamic(r)
}

// ImportReal reads a RevLib .real reversible circuit.
func ImportReal(r io.Reader) (*Circuit, error) {
	prog, err := realfmt.Parse(r)
	if err != nil {
		return nil, err
	}
	return prog.Circuit, nil
}

// SaveState serialises a state DD (shared structure preserved).
func SaveState(w io.Writer, v State) error { return dd.WriteV(w, v) }

// LoadState deserialises a state DD into the engine.
func LoadState(r io.Reader, eng *Engine) (State, error) { return dd.ReadV(r, eng) }

// Optimize runs the peephole circuit optimiser (inverse-pair
// cancellation, rotation merging, identity removal) and returns the
// reduced circuit; behaviour is preserved exactly.
func Optimize(c *Circuit) (*Circuit, OptimizeStats) {
	return opt.Optimize(c)
}

// OptimizeStats reports what the optimiser removed.
type OptimizeStats = opt.Stats

// TFIM is a transverse-field Ising chain whose Trotterized time
// evolution serves as a further benchmark family (each Trotter step is
// a repeated block the DD-repeating strategy re-uses).
type TFIM = hamiltonian.TFIM
