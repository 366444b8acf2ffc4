package circuit_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/grover"
	"repro/internal/hamiltonian"
)

// TestWriteKeepsBlocks: Parse(Write(c)) restores every Block's
// Start/End/Repeat and leaves the gates identical, so a circuit written
// by ddgen keeps its DD-repeating blocks through ddsim -blocks.
func TestWriteKeepsBlocks(t *testing.T) {
	tfim, err := hamiltonian.TFIM{Sites: 6, J: 1, H: 0.7, Periodic: true}.TrotterCircuit(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{grover.Circuit(8, 0x2d, 0), tfim} {
		text := c.String()
		if strings.Count(text, "repeat ") != len(c.Blocks) {
			t.Fatalf("%s: %d blocks written as %d repeat lines:\n%s",
				c.Name, len(c.Blocks), strings.Count(text, "repeat "), text)
		}
		parsed, err := circuit.ParseString(text)
		if err != nil {
			t.Fatalf("%s: re-parsing: %v", c.Name, err)
		}
		if !reflect.DeepEqual(parsed.Gates, c.Gates) {
			t.Fatalf("%s: gates changed in the round trip", c.Name)
		}
		if len(parsed.Blocks) != len(c.Blocks) {
			t.Fatalf("%s: %d blocks after the round trip, want %d", c.Name, len(parsed.Blocks), len(c.Blocks))
		}
		for i, b := range c.Blocks {
			p := parsed.Blocks[i]
			if p.Start != b.Start || p.End != b.End || p.Repeat != b.Repeat {
				t.Fatalf("%s: block %d = %+v after the round trip, want %+v", c.Name, i, p, b)
			}
		}
	}
}

// TestWriteExpandsUnfoldableBlocks: a Block whose repetitions differ
// from its body is written as its expanded gates, and nested blocks
// are written nested.
func TestWriteExpandsUnfoldableBlocks(t *testing.T) {
	c := circuit.New(2)
	c.H(0).X(1).H(0).Z(1) // "repeated" twice, but the copy differs
	c.Blocks = []circuit.Block{{Name: "bad", Start: 0, End: 2, Repeat: 2}}
	parsed, err := circuit.ParseString(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Blocks) != 0 || !reflect.DeepEqual(parsed.Gates, c.Gates) {
		t.Fatalf("unfoldable block: blocks %+v, gates changed %v", parsed.Blocks, !reflect.DeepEqual(parsed.Gates, c.Gates))
	}

	nested, err := circuit.ParseString("qubits 2\nrepeat 3\nh 0\nrepeat 2\nx 1\nendrepeat\nendrepeat\nz 0\n")
	if err != nil {
		t.Fatal(err)
	}
	again, err := circuit.ParseString(nested.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Gates, nested.Gates) {
		t.Fatal("nested blocks: gates changed in the round trip")
	}
	if len(again.Blocks) != len(nested.Blocks) {
		t.Fatalf("nested blocks: %+v after the round trip, want %+v", again.Blocks, nested.Blocks)
	}
	for i, b := range nested.Blocks {
		p := again.Blocks[i]
		if p.Start != b.Start || p.End != b.End || p.Repeat != b.Repeat {
			t.Fatalf("nested block %d = %+v after the round trip, want %+v", i, p, b)
		}
	}
}
