package core

import "repro/internal/circuit"

// The planner's locality bands. Locality is the share of consecutive
// gate pairs that act on a common qubit (see localityOf); it separates
// the circuit families of the paper's evaluation, each of which has a
// different best fixed strategy (Figs. 8/9):
//
//   - Shor's modular arithmetic (0.74–0.76), QFT-16 (0.87) and TFIM
//     Trotter chains (0.71–0.75) chain every gate on the same
//     registers: k-operations with k = 4;
//   - Grover (0.14–0.22 for n = 10–18) alternates disjoint H layers
//     with all-qubit oracles: max-size with s_max = 128;
//   - supremacy random circuits (0.00) are layers of disjoint gates,
//     whose products stay tensor products the identity-skip kernels
//     keep compact: flush once the operation DD passes twice the state
//     DD.
const (
	plannerNarrowLocality = 0.5
	plannerRideLocality   = 0.02
	// plannerLocalitySample bounds how many gates localityOf reads.
	plannerLocalitySample = 256
)

// Planner picks one fixed flush rule per run from the gate locality of
// the circuit's first gates, so the user need not know which fixed
// strategy suits the circuit family:
//
//   - locality >= 0.5: KOperations{K: 4};
//   - 0.02 <= locality < 0.5: MaxSize{SMax: 128};
//   - locality < 0.02: flush once the operation DD has more than twice
//     the state DD's nodes (the Planner's own ShouldApply).
//
// Locality is read from gate 0 whatever Options.StartGate says, so a
// resumed run picks the rule the interrupted one did. The choice is a
// function of the circuit alone: the planner reads no clock and no
// engine counter, and identical runs make identical cuts. RunContext
// reports it as one obs.KindPlanner event per run.
type Planner struct{}

// Name implements Strategy.
func (Planner) Name() string { return "planner" }

// ShouldApply implements Strategy with the low-locality band's rule;
// RunContext hands the other bands' runs to KOperations and MaxSize.
// It is allocation-free (guarded by BenchmarkPlannerDecision in CI).
func (Planner) ShouldApply(_ int, opSize, stateSize func() int) bool {
	return opSize() > 2*stateSize()
}

// rule returns the flush rule a run of c follows and the name its
// planner event reports.
func (p Planner) rule(c *circuit.Circuit) (Strategy, string) {
	switch loc := localityOf(c); {
	case loc >= plannerNarrowLocality:
		st := KOperations{K: 4}
		return st, st.Name()
	case loc >= plannerRideLocality:
		st := MaxSize{SMax: 128}
		return st, st.Name()
	}
	return p, "op>2*state"
}

// localityOf is the fraction of consecutive gate pairs sharing a qubit
// over c's first gates (at most plannerLocalitySample), or -1 when c
// has fewer than two gates.
func localityOf(c *circuit.Circuit) float64 {
	if c == nil || len(c.Gates) < 2 {
		return -1
	}
	n := min(plannerLocalitySample, len(c.Gates))
	shared := 0
	for i := 1; i < n; i++ {
		if gatesOverlap(&c.Gates[i-1], &c.Gates[i]) {
			shared++
		}
	}
	return float64(shared) / float64(n-1)
}

// gatesOverlap reports whether two gates act on a common qubit.
func gatesOverlap(a, b *circuit.Gate) bool {
	if a.Target == b.Target {
		return true
	}
	for _, ca := range a.Controls {
		if ca.Qubit == b.Target {
			return true
		}
		for _, cb := range b.Controls {
			if ca.Qubit == cb.Qubit {
				return true
			}
		}
	}
	for _, cb := range b.Controls {
		if cb.Qubit == a.Target {
			return true
		}
	}
	return false
}
