package core

import (
	"testing"

	"repro/internal/dd"
)

// ForceSifting makes the Reorder "sifting" trigger fire at every flush
// boundary (no size floor, no growth factor) for the rest of the test.
func ForceSifting(t testing.TB) {
	growth, floor := siftGrowth, siftMinNodes
	siftGrowth, siftMinNodes = 1, 1
	t.Cleanup(func() { siftGrowth, siftMinNodes = growth, floor })
}

// SetPressureWatermarks bands the soft budget at w instead of the
// default 70/85/95 % for the rest of the test.
func SetPressureWatermarks(t testing.TB, w dd.Watermarks) {
	old := pressureMarks
	pressureMarks = w
	t.Cleanup(func() { pressureMarks = old })
}
