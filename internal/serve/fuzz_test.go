package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeJobRequest hammers the job-submission decoder — JSON body
// plus embedded QASM / native circuit text — with hostile inputs. The
// decoder must never panic, and anything it accepts must respect the
// caps it was given (they mirror the QASM parser's own register-size
// and gate-expansion limits).
func FuzzDecodeJobRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "submit_*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no testdata seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hostile hand-picked seeds: truncation, trailing data, huge
	// registers, deep repeats, dynamic ops, strategy edge cases.
	for _, s := range []string{
		`{`,
		`{}`,
		`null`,
		`{"circuit":""}`,
		`{"circuit":"qubits 1\nh 0\n"} }`,
		`{"qasm":"OPENQASM 2.0;\nqreg q[99999999];\nh q[0];\n"}`,
		`{"circuit":"qubits 2\nrepeat 1000000\nh 0\nendrepeat\n"}`,
		`{"qasm":"OPENQASM 2.0;\nqreg q[1];\nif(c==1) h q[0];\n"}`,
		`{"circuit":"qubits 1\nh 0\n","strategy":"adaptive"}`,
		`{"circuit":"qubits 1\nh 0\n","shots":-9223372036854775808}`,
		"{\"circuit\":\"qubits 1\\nh \xff0\\n\"}",
	} {
		f.Add([]byte(s))
	}

	caps := Caps{MaxBodyBytes: 1 << 16, MaxQubits: 12, MaxGates: 4096, MaxShots: 1 << 12}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, circ, err := DecodeJobRequest(body, caps)
		if err != nil {
			if spec != nil || circ != nil {
				t.Fatal("non-nil result alongside error")
			}
			if _, ok := err.(*RequestError); !ok {
				t.Fatalf("decoder returned a non-RequestError: %v", err)
			}
			return
		}
		if spec == nil || circ == nil {
			t.Fatal("nil result without error")
		}
		// Everything the decoder accepts must sit inside the caps and
		// be executable as-is.
		if circ.NQubits <= 0 || circ.NQubits > caps.MaxQubits {
			t.Fatalf("accepted %d qubits (cap %d)", circ.NQubits, caps.MaxQubits)
		}
		if len(circ.Gates) == 0 || len(circ.Gates) > caps.MaxGates {
			t.Fatalf("accepted %d gates (cap %d)", len(circ.Gates), caps.MaxGates)
		}
		if spec.Shots < 0 || spec.Shots > caps.MaxShots {
			t.Fatalf("accepted %d shots (cap %d)", spec.Shots, caps.MaxShots)
		}
		switch spec.Priority {
		case "high", "normal", "low":
		default:
			t.Fatalf("accepted priority %q", spec.Priority)
		}
		if _, serr := StrategyFor(spec); serr != nil {
			t.Fatalf("accepted spec with unbuildable strategy: %v", serr)
		}
	})
}
