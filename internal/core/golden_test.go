// Engine-level golden values: the exact amplitude bits and engine
// counters of a few fixed workloads, pinned so that any change to the
// kernels or to weight canonicalisation that moves a single canonical
// representative fails here loudly. The file lives in the external test
// package because internal/shor imports core.
package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/hamiltonian"
	"repro/internal/shor"
	"repro/internal/supremacy"
)

// golden is the pinned outcome of one run. Digest is the SHA-256 of the
// final amplitudes' IEEE-754 bits (real then imaginary part, little
// endian, basis-state order); for gate-level Shor, whose final state is
// consumed by the last measurement, it covers the measured phase.
type golden struct {
	Digest        string
	Weights       int
	AddRecursions uint64
	MulRecursions uint64
	NodesCreated  uint64
}

func amplitudeDigest(v dd.VEdge) string {
	h := sha256.New()
	var b [16]byte
	for _, a := range v.ToVector() {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(a)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(a)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func phaseDigest(phase uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], phase)
	sum := sha256.Sum256(b[:])
	return hex.EncodeToString(sum[:])
}

func outcomeOf(digest string, eng *dd.Engine, s dd.Stats) golden {
	return golden{
		Digest:        digest,
		Weights:       eng.WeightTableSize(),
		AddRecursions: s.AddRecursions,
		MulRecursions: s.MulRecursions,
		NodesCreated:  s.NodesCreated,
	}
}

// circuitRun returns a run of c under opt on a fresh engine.
func circuitRun(c *circuit.Circuit, opt core.Options) func() (golden, error) {
	return func() (golden, error) {
		r, err := core.Run(c, opt)
		if err != nil {
			return golden{}, err
		}
		return outcomeOf(amplitudeDigest(r.State), r.Engine, r.Stats), nil
	}
}

// TestGoldenRuns reruns each workload on a fresh engine and compares it
// with the values recorded when addition moved to ratio-keyed caching
// (a·x + b·y = a·(x + (b/a)·y)) and cnum.Tol to 1e-12. Each amplitude
// digest notes its fidelity |<dense|dd>|² against dense.Simulate, and
// what moved it.
func TestGoldenRuns(t *testing.T) {
	sup := supremacy.Circuit(4, 4, 13, 1)
	g14 := grover.Circuit(14, 0x2d3b, 0)
	tfim, err := hamiltonian.TFIM{Sites: 10, J: 1, H: 0.9}.TrotterCircuit(1, 28)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() (golden, error)
		want golden
	}{
		{
			"supremacy_4x4_d13/sequential",
			circuitRun(sup, core.Options{}),
			// Fidelity 1 − 8.9e-16 (was 1). Moved by ratio keying alone
			// (the tolerance alone leaves it unchanged): 62 % fewer
			// weights and 56 % fewer add recursions; nodes and mul
			// recursions stay.
			golden{"10de42e3e14af8796f14c3482ed091e467f205ad6013d1fda29c0dad4a41e745", 5856, 90196, 33663, 28112},
		},
		{
			"grover_14/k4",
			circuitRun(g14, core.Options{Strategy: core.KOperations{K: 4}}),
			// Fidelity 1 + 6.1e-13 (was 1 − 2.9e-11). Both changes move
			// the digest; the interned ratios add weights, while
			// recursion and node counts stay.
			golden{"50bb2941226524f6a852698d665cd2e51f7c1f2a85fc014662b0819d4c73ec02", 17386, 101495, 29533, 29637},
		},
		{
			"grover_14/s64",
			circuitRun(g14, core.Options{Strategy: core.MaxSize{SMax: 64}}),
			// Fidelity 1 + 4.0e-13 (was 1 + 3.0e-13). The tighter
			// tolerance keeps two more nodes and so shifts the max-size
			// flush points (mul recursions); ratio keying moves the
			// digest and the weights.
			golden{"3398ece307bc82f8ba6638971b5995709ab463b0e03481c25476f1a9e2483bfd", 20180, 40495, 21699, 11584},
		},
		{
			"tfim_10/blocks",
			circuitRun(tfim, core.Options{UseBlocks: true}),
			// Fidelity 1 − 1.2e-12 (was 1 + 1.1e-10). Both changes move
			// everything: ratio keying alone creates 26 % fewer nodes,
			// the tolerance alone 0.7 % more; together 16 % fewer nodes
			// and 5 % more weights.
			golden{"5f92ce0957fe9928b1fd9ac7d2fc43814501c8352da1712a02f43e8624bdb4a5", 701782, 470008, 86916, 191117},
		},
		{
			"shor_15_7/k4",
			func() (golden, error) {
				eng := dd.New()
				opt := core.Options{Strategy: core.KOperations{K: 4}, Engine: eng}
				r, err := shor.SimulateGateLevel(15, 7, opt, rand.New(rand.NewSource(1)))
				if err != nil {
					return golden{}, err
				}
				return outcomeOf(phaseDigest(r.Phase), eng, r.Stats), nil
			},
			// The measured phase does not move; ratio keying saves 8 %
			// of the add recursions.
			golden{"bfc8eb98ff2c59a56f2f0e8239a5a36f5f8367591cd0385696f0896be69c2c96", 95, 34046, 37611, 9223},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("outcome moved:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
