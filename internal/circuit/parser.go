package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dd"
	"repro/internal/gates"
)

// The textual circuit format, line oriented:
//
//	# comment
//	name my_circuit
//	qubits 5
//	h 0
//	cx 0 1            // leading c's are controls: operands are controls… target
//	ccp(pi/4) 0 1 2   // parameters in parentheses; pi expressions allowed
//	cx !0 1           // '!' marks a negative (control-on-zero) control
//	repeat 10         // repeated block, recorded as a Block annotation
//	  h 2
//	  cz 0 2
//	endrepeat
//
// Base gate mnemonics: i x y z h s sdg t tdg sx sy swap p(θ) rx(θ) ry(θ)
// rz(θ) u(θ,φ,λ). swap takes two operands and is decomposed into CXs.

// maxGateExpansion bounds the gate count a repeat block may expand to
// — the same 1M limit the OpenQASM parser enforces, so a small hostile
// input cannot balloon into gigabytes of gate storage. (Programmatic
// circuit construction is unaffected.)
const maxGateExpansion = 1 << 20

// Parse reads a circuit from r in the textual format.
func Parse(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var c *Circuit
	name := ""
	lineNo := 0
	type repeatFrame struct {
		name  string
		start int
		count int
		line  int
	}
	var repeats []repeatFrame
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexAny(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch strings.ToLower(fields[0]) {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: name takes exactly one argument", lineNo)
			}
			name = fields[1]
			continue
		case "qubits":
			if c != nil {
				return nil, fmt.Errorf("line %d: duplicate qubits declaration", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: qubits takes exactly one argument", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("line %d: invalid qubit count %q", lineNo, fields[1])
			}
			c = New(n)
			c.Name = name
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("line %d: qubits declaration must precede gates", lineNo)
		}
		switch strings.ToLower(fields[0]) {
		case "repeat":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: repeat takes exactly one argument", lineNo)
			}
			k, err := strconv.Atoi(fields[1])
			if err != nil || k <= 0 {
				return nil, fmt.Errorf("line %d: invalid repeat count %q", lineNo, fields[1])
			}
			repeats = append(repeats, repeatFrame{
				name:  fmt.Sprintf("repeat@%d", lineNo),
				start: len(c.Gates),
				count: k,
				line:  lineNo,
			})
		case "endrepeat":
			if len(repeats) == 0 {
				return nil, fmt.Errorf("line %d: endrepeat without repeat", lineNo)
			}
			fr := repeats[len(repeats)-1]
			repeats = repeats[:len(repeats)-1]
			end := len(c.Gates)
			if end == fr.start {
				return nil, fmt.Errorf("line %d: empty repeat block opened at line %d", lineNo, fr.line)
			}
			if total := int64(fr.start) + int64(end-fr.start)*int64(fr.count); total > maxGateExpansion {
				return nil, fmt.Errorf("line %d: repeat expands to %d gates (limit %d)", lineNo, total, maxGateExpansion)
			}
			body := append([]Gate(nil), c.Gates[fr.start:end]...)
			for i := 1; i < fr.count; i++ {
				c.Gates = append(c.Gates, body...)
			}
			c.Blocks = append(c.Blocks, Block{Name: fr.name, Start: fr.start, End: end, Repeat: fr.count})
		default:
			if err := parseGateLine(c, fields); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("circuit: read: %w", err)
	}
	if len(repeats) > 0 {
		return nil, fmt.Errorf("unterminated repeat opened at line %d", repeats[len(repeats)-1].line)
	}
	if c == nil {
		return nil, fmt.Errorf("circuit: empty input (missing qubits declaration)")
	}
	return c, nil
}

// ParseString parses a circuit from a string.
func ParseString(s string) (*Circuit, error) {
	return Parse(strings.NewReader(s))
}

func parseGateLine(c *Circuit, fields []string) error {
	head := strings.ToLower(fields[0])
	mnemonic := head
	var params []float64
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return fmt.Errorf("malformed parameter list in %q", head)
		}
		mnemonic = head[:i]
		for _, part := range strings.Split(head[i+1:len(head)-1], ",") {
			v, err := parseAngle(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			params = append(params, v)
		}
	}
	nControls := 0
	base := mnemonic
	for strings.HasPrefix(base, "c") && !isBaseGate(base) {
		base = base[1:]
		nControls++
	}
	if !isBaseGate(base) {
		return fmt.Errorf("unknown gate %q", fields[0])
	}

	operands := fields[1:]
	var controls []dd.Control
	parseOperand := func(s string) (int, bool, error) {
		neg := false
		if strings.HasPrefix(s, "!") {
			neg = true
			s = s[1:]
		}
		q, err := strconv.Atoi(s)
		if err != nil {
			return 0, false, fmt.Errorf("invalid qubit %q", s)
		}
		if q < 0 || q >= c.NQubits {
			return 0, false, fmt.Errorf("qubit %d out of range [0,%d)", q, c.NQubits)
		}
		return q, neg, nil
	}

	if base == "swap" {
		if nControls > 1 {
			return fmt.Errorf("swap supports at most one control")
		}
		if len(operands) != nControls+2 {
			return fmt.Errorf("swap expects %d operands, got %d", nControls+2, len(operands))
		}
		qs := make([]int, 0, len(operands))
		for i, op := range operands {
			q, neg, err := parseOperand(op)
			if err != nil {
				return err
			}
			if neg && i >= nControls {
				return fmt.Errorf("swap operand %q: only controls may be negative", op)
			}
			if neg {
				return fmt.Errorf("controlled swap with negative control is not supported")
			}
			qs = append(qs, q)
		}
		if nControls == 1 {
			c.CSwap(qs[0], qs[1], qs[2])
		} else {
			c.Swap(qs[0], qs[1])
		}
		return nil
	}

	if len(operands) != nControls+1 {
		return fmt.Errorf("gate %s expects %d operands, got %d", fields[0], nControls+1, len(operands))
	}
	for _, op := range operands[:nControls] {
		q, neg, err := parseOperand(op)
		if err != nil {
			return err
		}
		controls = append(controls, dd.Control{Qubit: q, Negative: neg})
	}
	target, neg, err := parseOperand(operands[nControls])
	if err != nil {
		return err
	}
	if neg {
		return fmt.Errorf("target %q may not be negated", operands[nControls])
	}

	m, nParams, err := baseMatrix(base, params)
	if err != nil {
		return err
	}
	if len(params) != nParams {
		return fmt.Errorf("gate %s expects %d parameter(s), got %d", base, nParams, len(params))
	}
	c.Append(Gate{Name: base, Matrix: m, Target: target, Controls: controls, Params: params})
	return nil
}

func isBaseGate(s string) bool {
	switch s {
	case "i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg", "sy", "sydg", "swap", "p", "rx", "ry", "rz", "u":
		return true
	}
	return false
}

func baseMatrix(base string, params []float64) (gates.Matrix, int, error) {
	p := func(i int) float64 {
		if i < len(params) {
			return params[i]
		}
		return 0
	}
	switch base {
	case "i":
		return gates.I, 0, nil
	case "x":
		return gates.X, 0, nil
	case "y":
		return gates.Y, 0, nil
	case "z":
		return gates.Z, 0, nil
	case "h":
		return gates.H, 0, nil
	case "s":
		return gates.S, 0, nil
	case "sdg":
		return gates.Sdg, 0, nil
	case "t":
		return gates.T, 0, nil
	case "tdg":
		return gates.Tdg, 0, nil
	case "sx":
		return gates.SX, 0, nil
	case "sxdg":
		return gates.SXdg, 0, nil
	case "sy":
		return gates.SY, 0, nil
	case "sydg":
		return gates.SYdg, 0, nil
	case "p":
		return gates.Phase(p(0)), 1, nil
	case "rx":
		return gates.RX(p(0)), 1, nil
	case "ry":
		return gates.RY(p(0)), 1, nil
	case "rz":
		return gates.RZ(p(0)), 1, nil
	case "u":
		return gates.U(p(0), p(1), p(2)), 3, nil
	}
	return gates.Matrix{}, 0, fmt.Errorf("unknown base gate %q", base)
}

// parseAngle parses a float, optionally involving "pi": "0.5", "pi",
// "-pi", "pi/4", "2pi", "3pi/8", "-pi/2".
func parseAngle(s string) (float64, error) {
	orig := s
	if s == "" {
		return 0, fmt.Errorf("empty angle")
	}
	sign := 1.0
	if strings.HasPrefix(s, "-") {
		sign = -1
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	factor := 1.0
	div := 1.0
	if i := strings.Index(s, "/"); i >= 0 {
		d, err := strconv.ParseFloat(s[i+1:], 64)
		if err != nil || d == 0 {
			return 0, fmt.Errorf("invalid angle %q", orig)
		}
		div = d
		s = s[:i]
	}
	hasPi := false
	if strings.HasSuffix(s, "pi") {
		hasPi = true
		s = strings.TrimSuffix(s, "pi")
	}
	if s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("invalid angle %q", orig)
		}
		factor = f
	} else if !hasPi {
		return 0, fmt.Errorf("invalid angle %q", orig)
	}
	v := sign * factor / div
	if hasPi {
		v *= math.Pi
	}
	return v, nil
}

// Write serialises the circuit in the textual format. A Block whose
// repetitions are gate-for-gate copies of its body (the same text,
// line for line) is written as a repeat … endrepeat block, so Parse
// restores it; nested blocks nest. Any other Block is written as its
// expanded gates. Parse names the restored blocks repeat@<line>.
func (c *Circuit) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if c.Name != "" {
		fmt.Fprintf(bw, "name %s\n", c.Name)
	}
	fmt.Fprintf(bw, "qubits %d\n", c.NQubits)
	lines := make([]string, len(c.Gates))
	for i, g := range c.Gates {
		lines[i] = formatGate(g)
	}
	blocks := append([]Block(nil), c.Blocks...)
	// Outer blocks first: by Start, then by the larger expanded span.
	sort.SliceStable(blocks, func(i, j int) bool {
		if blocks[i].Start != blocks[j].Start {
			return blocks[i].Start < blocks[j].Start
		}
		return blocks[i].span() > blocks[j].span()
	})
	used := make([]bool, len(blocks))
	var write func(lo, hi int)
	write = func(lo, hi int) {
		for i, b := range blocks {
			if used[i] || b.Start < lo || b.Start+b.span() > hi || !foldable(lines, b) {
				continue
			}
			used[i] = true
			for _, l := range lines[lo:b.Start] {
				fmt.Fprintln(bw, l)
			}
			fmt.Fprintf(bw, "repeat %d\n", b.Repeat)
			write(b.Start, b.End)
			fmt.Fprintln(bw, "endrepeat")
			lo = b.Start + b.span()
		}
		for _, l := range lines[lo:hi] {
			fmt.Fprintln(bw, l)
		}
	}
	write(0, len(lines))
	return bw.Flush()
}

// span is the number of gates the block covers once expanded.
func (b Block) span() int { return (b.End - b.Start) * b.Repeat }

// foldable reports whether b is well formed over lines and each of its
// repetitions reads exactly like its body.
func foldable(lines []string, b Block) bool {
	body := b.End - b.Start
	if b.Start < 0 || body <= 0 || b.Repeat <= 0 || b.Start+b.span() > len(lines) {
		return false
	}
	for i := b.End; i < b.Start+b.span(); i++ {
		if lines[i] != lines[i-body] {
			return false
		}
	}
	return true
}

// String renders the circuit in the textual format.
func (c *Circuit) String() string {
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		return "<error: " + err.Error() + ">"
	}
	return sb.String()
}

func formatGate(g Gate) string {
	var sb strings.Builder
	for range g.Controls {
		sb.WriteByte('c')
	}
	sb.WriteString(strings.TrimSuffix(g.Name, "†"))
	if len(g.Params) > 0 {
		sb.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%g", p)
		}
		sb.WriteByte(')')
	}
	for _, ctl := range g.Controls {
		if ctl.Negative {
			fmt.Fprintf(&sb, " !%d", ctl.Qubit)
		} else {
			fmt.Fprintf(&sb, " %d", ctl.Qubit)
		}
	}
	fmt.Fprintf(&sb, " %d", g.Target)
	return sb.String()
}
