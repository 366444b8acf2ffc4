package main

import (
	"testing"

	"repro/perf"
)

// TestWrongReferenceExits checks that a run whose references come from
// another seed — so that its answers read as wrong — exits non-zero.
func TestWrongReferenceExits(t *testing.T) {
	cfg := perf.Config{Workload: "eq1_supremacy", Seed: 1, RefSeed: 2, Rounds: 1, Scratch: t.TempDir()}
	if code := runOne(cfg, "0", "", ""); code == 0 {
		t.Fatal("a run with wrong answers exited 0")
	}
	cfg.RefSeed = 1
	if code := runOne(cfg, "0", "", ""); code != 0 {
		t.Fatalf("a correct run exited %d", code)
	}
}
