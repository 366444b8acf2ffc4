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
// with the values recorded before the weight-table probe was pruned to
// the cells that can hold a match.
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
			golden{"5f0c2c5a60e1f6063cd10c9bf9832a855569d04615c7e105d4ed128ca5af28f0", 15432, 205786, 33663, 28112},
		},
		{
			"grover_14/k4",
			circuitRun(g14, core.Options{Strategy: core.KOperations{K: 4}}),
			golden{"c38309426f2e46635476c48520b6a1cd1afc44b0129741ba429ccd8b29656181", 12390, 101495, 29533, 29637},
		},
		{
			"grover_14/s64",
			circuitRun(g14, core.Options{Strategy: core.MaxSize{SMax: 64}}),
			golden{"91aed123b9f6f0de29dfda6bf127fc9a0501a525acbc0dc155e8de32073dd706", 16159, 40939, 21323, 11582},
		},
		{
			"tfim_10/blocks",
			circuitRun(tfim, core.Options{UseBlocks: true}),
			golden{"cff7c0df85450d4b9e6c3f36157a783125d6806bfa683ce6a515c43dea382e10", 666938, 522136, 101080, 227834},
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
			golden{"bfc8eb98ff2c59a56f2f0e8239a5a36f5f8367591cd0385696f0896be69c2c96", 95, 36964, 37611, 9223},
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
