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
// with the values recorded when the compute tables began to start small
// and grow on conflict misses (the table size decides which add-cache
// hits within Tol a run takes, so it moves digests). Each amplitude
// digest notes its fidelity |<dense|dd>|² against dense.Simulate, and
// what moved it.
func TestGoldenRuns(t *testing.T) {
	sup := supremacy.Circuit(4, 4, 13, 1)
	g14 := grover.Circuit(14, 0x2d3b, 0)
	g10 := grover.Circuit(10, 3, 0)
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
			// Fidelity 1 − 2.2e-16 (unchanged by the move to growing
			// compute tables, which moved the digest: add-cache hits
			// within Tol depend on the table size). Add recursions
			// +2.5 %, mul recursions +1.3 %; weights and nodes stay.
			golden{"da8f8be05ae0d1e49681140304b5fd21db457d47c9a2741e02b840760c608092", 1482, 65164, 34085, 28112},
		},
		{
			"grover_14/k4",
			circuitRun(g14, core.Options{Strategy: core.KOperations{K: 4}}),
			// Fidelity 1 + 6.1e-13 (was 1 + 6.2e-13). 44 % fewer
			// weights and 10 fewer nodes; recursions stay. The final
			// state has 50 nodes (was 60; sequential goes 60 → 69):
			// leaf ratios differ from each other by a few Tol, so
			// which of them merge moves with the add-cache hits.
			// Growing compute tables: digest unchanged, recursions
			// +0.2 % (add) and +0.7 % (mul).
			golden{"f8f1033dfb7394b8673c8dc7a6817cef83415e2c62f899d6051ba4aad9359f5a", 5059, 101694, 29728, 29662},
		},
		{
			"grover_14/s64",
			circuitRun(g14, core.Options{Strategy: core.MaxSize{SMax: 64}}),
			// Fidelity 1 + 3.0e-13, digest unchanged. 43 % fewer
			// weights and 0.7 % fewer add recursions; nodes and mul
			// recursions stay. Final state 50 nodes, as under k4.
			// Growing compute tables: digest unchanged, recursions
			// +0.2 % (add) and +0.4 % (mul).
			golden{"4a1335f63c1a68ff4ad411faf7c02694d2e3faaff97efc4ac4f6b31af16400cf", 3286, 40307, 21787, 11607},
		},
		{
			"grover_14/planner",
			circuitRun(g14, core.Options{Strategy: core.Planner{}}),
			// Locality 0.15 picks max-size s_max = 128: 84 mat-vec and
			// 3,130 mat-mat steps, the same digest and counts as
			// MaxSize{SMax: 128}. Fidelity 1 + 3.9e-13; final state 27
			// nodes. Growing compute tables: digest unchanged,
			// recursions +2.3 % (add) and +4.1 % (mul).
			golden{"1c24353371cf67246b35853dae6d749d1ccfc1c34fc663644542ab017161203d", 4905, 83498, 38804, 21559},
		},
		{
			"supremacy_4x4_d13/planner",
			circuitRun(sup, core.Options{Strategy: core.Planner{}}),
			// Locality 0 picks the flush at twice the state DD's size.
			// Fidelity 1 + 1.3e-15 (unchanged by the move to growing
			// compute tables, which moved the digest). Add recursions
			// +28 % (the tables stay small enough to miss more), mul
			// recursions +1.1 %; weights and nodes stay.
			golden{"61d9cf57f4813abbb3481a12300f6c3427d2ad9ecaaf613b1c09b9068b34db46", 5742, 99164, 10613, 26023},
		},
		{
			"tfim_10/blocks",
			circuitRun(tfim, core.Options{UseBlocks: true}),
			// Fidelity 1 − 2.7e-12 (unchanged by the move to growing
			// compute tables, which moved the digest). Weights and
			// nodes +8, add and mul recursions +0.1 % and +0.2 %.
			golden{"d18a70984569655db5afd6f9a8c58936ba8a80d4bf00f77340f4ccb97ba2d090", 189649, 468848, 86740, 190673},
		},
		{
			"grover_10/s1M_budget150",
			circuitRun(g10, core.Options{Strategy: core.MaxSize{SMax: 1 << 20}, MaxNodes: 150}),
			// Budget-degraded: the combination trips the 150-node budget
			// and each tripped gate run is replayed gate by gate (17
			// replays). Fidelity 1 + 2.2e-13; the same digest as the
			// governed combine-all row below. Growing compute tables:
			// recursions +16 (add) and +4 (mul).
			golden{"8c6a19304dd42536e3cfd6f349b405de0b678b114f3aa5c33a75283fb23597e1", 1671, 92398, 49776, 27337},
		},
		{
			"grover_10/combine-all_budget150_ladder",
			circuitRun(g10, core.Options{Strategy: core.CombineAll{}, MaxNodes: 150, Degrade: "ladder"}),
			// The ladder governs against MaxNodes: rung-1 collections
			// plus 16 replays of budget-tripped gate runs. Fidelity
			// 1 + 2.2e-13. Growing compute tables: recursions +12 (add)
			// and +8 (mul).
			golden{"8c6a19304dd42536e3cfd6f349b405de0b678b114f3aa5c33a75283fb23597e1", 1796, 96917, 51073, 28090},
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
			// The measured phase and the weight count do not move;
			// add recursions −0.6 %, mul recursions and nodes stay.
			// Growing compute tables: recursions +2.8 % (add) and
			// +2.5 % (mul).
			golden{"bfc8eb98ff2c59a56f2f0e8239a5a36f5f8367591cd0385696f0896be69c2c96", 39, 34879, 38652, 9242},
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
