package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dd"
	"repro/internal/qft"
)

// ckptBytes serialises a representative checkpoint in the version-2
// format and returns both the checkpoint and its encoding.
func ckptBytes(t testing.TB) (*Checkpoint, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	e := dd.New()
	ck := &Checkpoint{
		CircuitName: "hardening",
		NQubits:     4,
		NextGate:    9,
		Seed:        -77,
		Fallbacks:   1,
		Strategy:    "k-operations(k=4)",
		Order:       []int{2, 0, 3, 1},
		State:       e.FromVector(randAmps(rng, 4)),
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return ck, buf.Bytes()
}

// TestCheckpointV2Roundtrip checks the version-2 fields survive a
// write/read cycle, including the verification-era additions.
func TestCheckpointV2Roundtrip(t *testing.T) {
	ck, data := ckptBytes(t)
	got, err := ReadCheckpoint(bytes.NewReader(data), dd.New())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("version %d, want 2", got.Version)
	}
	if got.Strategy != ck.Strategy {
		t.Fatalf("strategy mismatch: %+v", got)
	}
	if got.CircuitName != ck.CircuitName || got.NQubits != ck.NQubits ||
		got.NextGate != ck.NextGate || got.Seed != ck.Seed || got.Fallbacks != ck.Fallbacks {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !ordersEqual(got.Order, ck.Order) {
		t.Fatalf("order mismatch: %v, want %v", got.Order, ck.Order)
	}
	vectorsMatch(t, got.State.ToVector(), ck.State.ToVector())
}

// TestCheckpointRepairCountIgnored: the header's last field is a
// retired repair count, written as 0. Files from builds that counted
// repairs carry a non-zero value there; they must still load.
func TestCheckpointRepairCountIgnored(t *testing.T) {
	ck, data := ckptBytes(t)
	// Magic, then the header section: tag, one-byte length, CRC32,
	// payload; the payload's last byte is the repair count.
	hdrLen := int(data[9])
	if data[8] != ckptSectionHeader || hdrLen >= 0x80 || data[14+hdrLen-1] != 0 {
		t.Fatalf("unexpected header layout % x", data[:16])
	}
	old := append([]byte(nil), data...)
	old[14+hdrLen-1] = 3
	binary.LittleEndian.PutUint32(old[10:14], crc32.ChecksumIEEE(old[14:14+hdrLen]))
	got, err := ReadCheckpoint(bytes.NewReader(old), dd.New())
	if err != nil {
		t.Fatalf("checkpoint with a repair count: %v", err)
	}
	if got.Strategy != ck.Strategy || got.NextGate != ck.NextGate || !ordersEqual(got.Order, ck.Order) {
		t.Fatalf("header mismatch: %+v", got)
	}
	vectorsMatch(t, got.State.ToVector(), ck.State.ToVector())
}

func ordersEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCheckpointV1Compat proves legacy files remain readable: a file in
// the version-1 encoding loads with Version 1 and no strategy.
func TestCheckpointV1Compat(t *testing.T) {
	ck, _ := ckptBytes(t)
	var buf bytes.Buffer
	if err := writeCheckpointV1(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), dd.New())
	if err != nil {
		t.Fatalf("v1 checkpoint no longer readable: %v", err)
	}
	if got.Version != 1 || got.Strategy != "" {
		t.Fatalf("v1 decode: version=%d strategy=%q", got.Version, got.Strategy)
	}
	if got.CircuitName != ck.CircuitName || got.Seed != ck.Seed {
		t.Fatalf("v1 header mismatch: %+v", got)
	}
	vectorsMatch(t, got.State.ToVector(), ck.State.ToVector())
}

// TestCheckpointBitFlipDetected flips every single byte of a
// checkpoint in turn; every mutation must surface as an error wrapping
// ErrCheckpointCorrupt — never a silent wrong read, never a panic.
func TestCheckpointBitFlipDetected(t *testing.T) {
	ck, data := ckptBytes(t)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x10
		got, err := ReadCheckpoint(bytes.NewReader(mut), dd.New())
		if err == nil {
			// The only acceptable silent outcome is the 'O' tag byte
			// flipping to an unknown tag: the optional order section is
			// then CRC-verified and skipped (the tagged-section format
			// cannot distinguish that from a genuine future section).
			// Everything else must fail, and even the tag-flip case must
			// decode every remaining field exactly.
			if got.CircuitName != ck.CircuitName || got.NextGate != ck.NextGate {
				t.Fatalf("byte %d: corrupt checkpoint decoded to %+v", i, got)
			}
			if mut[i] != byte(ckptSectionOrder)^0x10 || got.Order != nil {
				t.Fatalf("byte %d: flip not detected (order %v)", i, got.Order)
			}
			continue
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("byte %d: error %v does not wrap ErrCheckpointCorrupt", i, err)
		}
	}
}

// TestCheckpointTruncationNoPanic feeds every strict prefix of a valid
// checkpoint to the reader; each must fail cleanly as corruption.
func TestCheckpointTruncationNoPanic(t *testing.T) {
	_, data := ckptBytes(t)
	for n := 0; n < len(data); n++ {
		_, err := ReadCheckpoint(bytes.NewReader(data[:n]), dd.New())
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("prefix %d: error %v does not wrap ErrCheckpointCorrupt", n, err)
		}
	}
}

// TestCheckpointErrorContext checks the typed error localises damage:
// section name and a plausible byte offset.
func TestCheckpointErrorContext(t *testing.T) {
	_, data := ckptBytes(t)
	// The state section is the last one; flipping the final byte damages
	// its payload without touching the header or order.
	mut := bytes.Clone(data)
	mut[len(mut)-1] ^= 0x01
	_, err := ReadCheckpoint(bytes.NewReader(mut), dd.New())
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CheckpointError, got %T: %v", err, err)
	}
	if ce.Section != "state" {
		t.Fatalf("section %q, want state", ce.Section)
	}
	if ce.Offset <= 8 || ce.Offset >= int64(len(data)) {
		t.Fatalf("offset %d not inside the file (len %d)", ce.Offset, len(data))
	}
}

// TestCheckpointUnknownSectionSkipped checks forward compatibility: a
// reader must CRC-verify and skip tags it does not know.
func TestCheckpointUnknownSectionSkipped(t *testing.T) {
	ck, data := ckptBytes(t)
	// Splice an unknown section directly after the magic.
	var buf bytes.Buffer
	buf.Write(data[:8])
	bw := bufio.NewWriter(&buf)
	if err := writeCkptSection(bw, 'Z', []byte("future payload")); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write(data[8:])
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), dd.New())
	if err != nil {
		t.Fatalf("unknown section broke the read: %v", err)
	}
	if got.CircuitName != ck.CircuitName || got.Strategy != ck.Strategy {
		t.Fatalf("decode through unknown section: %+v", got)
	}
	// A corrupted unknown section must still be caught by its CRC.
	raw := buf.Bytes()
	raw[8+1+1+4+2] ^= 0x40 // a byte inside the 'Z' payload
	if _, err := ReadCheckpoint(bytes.NewReader(raw), dd.New()); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt unknown section not detected: %v", err)
	}
}

// TestCheckpointOrderSectionCorruption hand-crafts malformed 'O'
// sections: every corruption must surface as a typed *CheckpointError
// naming the order section and wrapping ErrCheckpointCorrupt — a CRC
// can be forged (or borrowed from another file), so the decoded content
// itself is validated before it can scramble a resumed run.
func TestCheckpointOrderSectionCorruption(t *testing.T) {
	ck, _ := ckptBytes(t)
	ck.Order = nil
	var base bytes.Buffer
	if err := WriteCheckpoint(&base, ck); err != nil {
		t.Fatal(err)
	}
	withOrder := func(payload []byte) []byte {
		var buf bytes.Buffer
		buf.Write(base.Bytes())
		bw := bufio.NewWriter(&buf)
		if err := writeCkptSection(bw, ckptSectionOrder, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	uvarints := func(vs ...uint64) []byte {
		var p []byte
		var tmp [10]byte
		for _, v := range vs {
			n := binary.PutUvarint(tmp[:], v)
			p = append(p, tmp[:n]...)
		}
		return p
	}

	// Sanity: a well-formed section decodes.
	got, err := ReadCheckpoint(bytes.NewReader(withOrder(uvarints(4, 3, 2, 1, 0))), dd.New())
	if err != nil {
		t.Fatal(err)
	}
	if !ordersEqual(got.Order, []int{3, 2, 1, 0}) {
		t.Fatalf("order decoded as %v", got.Order)
	}

	bad := map[string][]byte{
		"duplicate entry":      uvarints(4, 0, 0, 1, 2),
		"entry out of range":   uvarints(4, 0, 1, 2, 4),
		"length != qubits":     uvarints(3, 2, 1, 0),
		"truncated entries":    uvarints(4, 0, 1),
		"implausible count":    uvarints(1 << 40),
		"trailing bytes":       append(uvarints(4, 3, 2, 1, 0), 0x7f),
		"empty payload":        {},
		"truncated mid-varint": {4, 0x80},
	}
	for name, payload := range bad {
		_, err := ReadCheckpoint(bytes.NewReader(withOrder(payload)), dd.New())
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCheckpointCorrupt", name, err)
		}
		var ce *CheckpointError
		if !errors.As(err, &ce) || ce.Section != "order" {
			t.Fatalf("%s: error %v does not name the order section", name, err)
		}
	}
}

// TestVerifyCheckpointFile exercises the fsck entry point on a good
// file, a corrupted file, and a legacy v1 file.
func TestVerifyCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	ck, data := ckptBytes(t)
	good := filepath.Join(dir, "good.ckpt")
	if err := SaveCheckpoint(good, ck); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyCheckpoint(good)
	if err != nil {
		t.Fatalf("good checkpoint failed fsck: %v", err)
	}
	if rep.Version != 2 || rep.Strategy != ck.Strategy || rep.StateNodes == 0 {
		t.Fatalf("fsck report: %+v", rep)
	}
	if rep.Norm < 0.999999 || rep.Norm > 1.000001 {
		t.Fatalf("fsck norm %v", rep.Norm)
	}

	bad := filepath.Join(dir, "bad.ckpt")
	mut := bytes.Clone(data)
	mut[len(mut)/2] ^= 0x08
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCheckpoint(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("fsck on corrupt file: %v", err)
	}

	v1 := filepath.Join(dir, "v1.ckpt")
	var v1buf bytes.Buffer
	if err := writeCheckpointV1(&v1buf, ck); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v1, v1buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyCheckpoint(v1)
	if err != nil {
		t.Fatalf("v1 checkpoint failed fsck: %v", err)
	}
	if rep.Version != 1 {
		t.Fatalf("v1 fsck report: %+v", rep)
	}
}

// TestStrategyFromName round-trips every strategy through its Name()
// and rejects malformed strings.
func TestStrategyFromName(t *testing.T) {
	for _, st := range []Strategy{
		Sequential{}, KOperations{K: 4}, MaxSize{SMax: 4096},
		Planner{}, CombineAll{},
	} {
		parsed, err := StrategyFromName(st.Name())
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if parsed.Name() != st.Name() {
			t.Fatalf("round trip %q -> %q", st.Name(), parsed.Name())
		}
	}
	for _, bad := range []string{
		"", "bogus", "k-operations(k=0)", "k-operations(k=x)",
		"max-size(", "max-size(s=-3)", "adaptive(r=1)", "sequential ",
		"sequential(x)",
	} {
		if _, err := StrategyFromName(bad); err == nil {
			t.Fatalf("malformed name %q accepted", bad)
		}
	}
}

// TestResumeOptionsStrategy covers the strategy adoption/mismatch
// logic added with the version-2 checkpoint.
func TestResumeOptionsStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randomCircuit(rng, 4, 10, false)
	e := dd.New()
	ck := &Checkpoint{NQubits: 4, NextGate: 3, Strategy: "max-size(s=64)", State: e.ZeroState(4)}

	opt, err := ResumeOptions(Options{}, c, ck)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Strategy == nil || opt.Strategy.Name() != "max-size(s=64)" {
		t.Fatalf("recorded strategy not adopted: %v", opt.Strategy)
	}

	if _, err := ResumeOptions(Options{Strategy: Sequential{}}, c, ck); err == nil {
		t.Fatal("strategy mismatch accepted")
	}
	if _, err := ResumeOptions(Options{Strategy: MaxSize{SMax: 64}}, c, ck); err != nil {
		t.Fatalf("matching strategy rejected: %v", err)
	}

	ck.Strategy = "not-a-strategy"
	if _, err := ResumeOptions(Options{}, c, ck); err == nil {
		t.Fatal("unparseable recorded strategy accepted")
	}
	// Clearing the recorded strategy is the documented override path.
	ck.Strategy = ""
	if _, err := ResumeOptions(Options{Strategy: Sequential{}}, c, ck); err != nil {
		t.Fatalf("cleared strategy still validated: %v", err)
	}

	// The recorded order wins over any caller-set InitialOrder — the
	// state is only meaningful under the order it was taken with.
	ck.Order = []int{1, 0, 3, 2}
	opt, err = ResumeOptions(Options{Strategy: Sequential{}, InitialOrder: []int{3, 2, 1, 0}}, c, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !ordersEqual(opt.InitialOrder, ck.Order) {
		t.Fatalf("resume order %v, want %v", opt.InitialOrder, ck.Order)
	}
	ck.Order = nil
	opt, err = ResumeOptions(Options{Strategy: Sequential{}, InitialOrder: []int{3, 2, 1, 0}}, c, ck)
	if err != nil {
		t.Fatal(err)
	}
	if opt.InitialOrder != nil {
		t.Fatalf("identity-order checkpoint resumed with order %v", opt.InitialOrder)
	}
}

// resumeFrom writes a mid-run checkpoint of c recorded under the given
// strategy name, reads it back and resumes it with opt.
func resumeFrom(t *testing.T, c *circuit.Circuit, recorded string, opt Options) (*Result, error) {
	t.Helper()
	var ck *Checkpoint
	var buf bytes.Buffer
	_, err := Run(c, Options{Strategy: Planner{}, CheckpointEvery: len(c.Gates) / 2, OnCheckpoint: func(got *Checkpoint) error {
		if ck == nil {
			ck = got
			ck.Strategy = recorded
			return WriteCheckpoint(&buf, ck)
		}
		return nil
	}})
	if err != nil || ck == nil {
		t.Fatalf("checkpointed run: %v (checkpoint taken: %v)", err, ck != nil)
	}
	eng := dd.New()
	back, err := ReadCheckpoint(&buf, eng)
	if err != nil {
		t.Fatal(err)
	}
	opt.Engine = eng
	ropt, err := ResumeOptions(opt, c, back)
	if err != nil {
		return nil, err
	}
	return Run(c, ropt)
}

// TestResumeLegacyPlannerCheckpoint: a checkpoint recorded under the
// planner's old knob-carrying name resumes as "planner", both when the
// resume adopts the recorded strategy and when it names the planner.
func TestResumeLegacyPlannerCheckpoint(t *testing.T) {
	c := qft.Circuit(8, true)
	for _, opt := range []Options{{}, {Strategy: Planner{}}} {
		res, err := resumeFrom(t, c, "planner(w=1024,r=1,g=2)", opt)
		if err != nil {
			t.Fatalf("resume with strategy %v: %v", opt.Strategy, err)
		}
		if f := fidelityWithDense(t, res, c); f < 1-1e-9 {
			t.Fatalf("resumed planner run: fidelity %v", f)
		}
	}
}

// TestResumeRemovedStrategyCheckpointFails: a checkpoint recorded under the
// removed adaptive strategy fails to resume with a *ConfigError that
// names it.
func TestResumeRemovedStrategyCheckpointFails(t *testing.T) {
	_, err := resumeFrom(t, qft.Circuit(8, true), "adaptive(r=1)", Options{})
	var ce *ConfigError
	if !errors.As(err, &ce) || !strings.Contains(ce.Msg, `"adaptive" was removed`) {
		t.Fatalf("adaptive checkpoint resume: %v, want a *ConfigError naming the removed strategy", err)
	}
}

// FuzzReadCheckpoint throws arbitrary bytes at the reader: it must
// never panic, and anything it accepts must survive a write/read
// fixpoint with identical header fields.
func FuzzReadCheckpoint(f *testing.F) {
	ck, v2 := ckptBytes(f)
	f.Add(v2)
	var v1 bytes.Buffer
	if err := writeCheckpointV1(&v1, ck); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2[:len(v2)/2])
	f.Add([]byte("DDCKPT2\n"))
	f.Add([]byte("DDCKPT1\n"))
	f.Add([]byte{})
	mut := bytes.Clone(v2)
	mut[11] ^= 0xff
	f.Add(mut)
	// Order-section seeds: a corrupted byte inside the 'O' payload, and
	// the 'O' tag flipped to an unknown section. The section is located
	// by walking the tagged-section layout.
	forOrderTag := func(mutate func(data []byte, tagPos int)) []byte {
		data := bytes.Clone(v2)
		pos := 8
		for pos < len(data) {
			tag := data[pos]
			length, n := binary.Uvarint(data[pos+1:])
			if tag == byte(ckptSectionOrder) {
				mutate(data, pos)
				return data
			}
			pos += 1 + n + 4 + int(length)
		}
		f.Fatal("order section not found in seed checkpoint")
		return nil
	}
	f.Add(forOrderTag(func(data []byte, tagPos int) {
		_, n := binary.Uvarint(data[tagPos+1:])
		data[tagPos+1+n+4] ^= 0x01 // first byte of the 'O' payload
	}))
	f.Add(forOrderTag(func(data []byte, tagPos int) { data[tagPos] = 'Q' }))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(data), dd.New())
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("reader error %v does not wrap ErrCheckpointCorrupt", err)
			}
			return
		}
		var buf bytes.Buffer
		if got.Version == 1 {
			err = writeCheckpointV1(&buf, got)
		} else {
			err = WriteCheckpoint(&buf, got)
		}
		if err != nil {
			t.Fatalf("re-encoding accepted checkpoint: %v", err)
		}
		again, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), dd.New())
		if err != nil {
			t.Fatalf("re-read of re-encoded checkpoint: %v", err)
		}
		if again.CircuitName != got.CircuitName || again.NQubits != got.NQubits ||
			again.NextGate != got.NextGate || again.Seed != got.Seed ||
			again.Fallbacks != got.Fallbacks || again.Strategy != got.Strategy {
			t.Fatalf("fixpoint mismatch: %+v vs %+v", got, again)
		}
		// The v1 encoding has no order section, so only the v2 round
		// trip preserves Order.
		if got.Version == 2 && !ordersEqual(again.Order, got.Order) {
			t.Fatalf("order fixpoint mismatch: %v vs %v", got.Order, again.Order)
		}
	})
}

// writeCheckpointV1 emits the legacy version-1 encoding (no sections,
// no checksums, no strategy field), so the compatibility tests can
// prove v1 files remain readable.
func writeCheckpointV1(w io.Writer, ck *Checkpoint) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagicV1[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(ck.CircuitName))); err != nil {
		return err
	}
	if _, err := bw.WriteString(ck.CircuitName); err != nil {
		return err
	}
	if err := putUvarint(uint64(ck.NQubits)); err != nil {
		return err
	}
	if err := putUvarint(uint64(ck.NextGate)); err != nil {
		return err
	}
	n := binary.PutVarint(buf[:], ck.Seed)
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	if err := putUvarint(uint64(ck.Fallbacks)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// WriteV takes the raw writer; bw is flushed so ordering is safe.
	return dd.WriteV(w, ck.State)
}
