package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/circuit"
	"repro/internal/dd"
)

// Checkpoint is a resumable snapshot of a simulation: the state DD
// after NextGate gates, plus the bookkeeping needed to continue the
// run and reproduce downstream sampling.
//
// On-disk format (see DESIGN.md "Verification & self-healing"): the
// current version 2 ("DDCKPT2\n" magic) is a sequence of sections,
// each carrying a one-byte tag, a uvarint payload length, a CRC32
// (IEEE) of the payload, and the payload itself:
//
//	'H'  header: circuit name, qubit count, next gate index, RNG seed,
//	     fallback count, strategy name, repair count (varint-encoded)
//	'S'  state: the state DD in the serialize.go DDV1 format
//	'O'  order: the variable order the state DD was taken under — a
//	     uvarint count followed by count uvarint entries, order[level] =
//	     circuit qubit (absent when the run used identity order; files
//	     without it load with Order nil)
//
// Unknown section tags are CRC-checked and skipped, so the format can
// grow without breaking old readers. A flipped bit anywhere in a
// section fails its CRC with a *CheckpointError naming the section —
// corruption is detected at load time, not discovered as wrong
// amplitudes hours into a resumed run. Version 1 files ("DDCKPT1\n",
// no sections, no checksums) are still readable.
type Checkpoint struct {
	CircuitName string
	NQubits     int
	// NextGate is the index of the first gate NOT yet reflected in
	// State; resuming sets Options.StartGate to it.
	NextGate int
	Seed     int64
	// Fallbacks is the number of budget-abort replays the run took
	// (its "replay" degradation entries), under its on-disk name.
	Fallbacks int
	// Strategy is the Strategy.Name() the run was using, recorded so a
	// resume can adopt it (and flag accidental mismatches). Empty on
	// version-1 checkpoints.
	Strategy string
	// Repairs is the number of corruption recoveries the run had
	// performed when the checkpoint was taken (see Result.Repairs).
	Repairs int
	// Version is the on-disk format version the checkpoint was read
	// from (2 for fresh checkpoints; set by ReadCheckpoint).
	Version int
	// Order is the variable order State was taken under: order[level] =
	// circuit qubit, nil for identity (see internal/dd reordering).
	// Checkpoints written before dynamic reordering existed load with
	// Order nil, which resumes them under identity order — correct,
	// since those runs never permuted their levels.
	Order []int
	State dd.VEdge
}

var (
	ckptMagicV1 = [8]byte{'D', 'D', 'C', 'K', 'P', 'T', '1', '\n'}
	ckptMagicV2 = [8]byte{'D', 'D', 'C', 'K', 'P', 'T', '2', '\n'}
)

const (
	ckptSectionHeader = 'H'
	ckptSectionState  = 'S'
	ckptSectionOrder  = 'O'
	// ckptMaxSection bounds a section's declared payload length; the
	// length field is untrusted input.
	ckptMaxSection = 1 << 30
)

// ErrCheckpointCorrupt is wrapped by every corruption-class checkpoint
// failure (bad magic, CRC mismatch, truncation, malformed payload);
// match with errors.Is. I/O errors opening a file are not corruption
// and do not wrap it.
var ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")

// CheckpointError reports a checkpoint decode failure with enough
// context to localise the damage: the section being decoded and the
// absolute byte offset where decoding failed.
type CheckpointError struct {
	// Section is "magic", "header", "state", or "section <tag>" for an
	// unrecognised tag.
	Section string
	// Offset is the byte offset into the file at which the failure was
	// detected (the start of the section for CRC mismatches).
	Offset int64
	Err    error
}

// Error implements error.
func (e *CheckpointError) Error() string {
	return fmt.Sprintf("core: checkpoint %s section at byte %d: %v", e.Section, e.Offset, e.Err)
}

// Unwrap exposes both the corruption sentinel and the underlying error.
func (e *CheckpointError) Unwrap() []error { return []error{ErrCheckpointCorrupt, e.Err} }

// WriteCheckpoint serialises ck to w in the version-2 format.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	var hdr bytes.Buffer
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		hdr.Write(buf[:n])
	}
	putU(uint64(len(ck.CircuitName)))
	hdr.WriteString(ck.CircuitName)
	putU(uint64(ck.NQubits))
	putU(uint64(ck.NextGate))
	n := binary.PutVarint(buf[:], ck.Seed)
	hdr.Write(buf[:n])
	putU(uint64(ck.Fallbacks))
	putU(uint64(len(ck.Strategy)))
	hdr.WriteString(ck.Strategy)
	putU(uint64(ck.Repairs))

	var state bytes.Buffer
	if err := dd.WriteV(&state, ck.State); err != nil {
		return fmt.Errorf("core: encoding checkpoint state: %w", err)
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagicV2[:]); err != nil {
		return err
	}
	if err := writeCkptSection(bw, ckptSectionHeader, hdr.Bytes()); err != nil {
		return err
	}
	// The optional order section is written BEFORE the required state
	// section: a file truncated at any section boundary then also loses
	// the state and fails the missing-section check, instead of quietly
	// decoding with the order dropped (which would resume a permuted
	// state under identity order).
	if ck.Order != nil {
		var ord bytes.Buffer
		n := binary.PutUvarint(buf[:], uint64(len(ck.Order)))
		ord.Write(buf[:n])
		for _, q := range ck.Order {
			n := binary.PutUvarint(buf[:], uint64(q))
			ord.Write(buf[:n])
		}
		if err := writeCkptSection(bw, ckptSectionOrder, ord.Bytes()); err != nil {
			return err
		}
	}
	if err := writeCkptSection(bw, ckptSectionState, state.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

func writeCkptSection(bw *bufio.Writer, tag byte, payload []byte) error {
	if err := bw.WriteByte(tag); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(payload)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// writeCheckpointV1 emits the legacy version-1 encoding (no sections,
// no checksums, no strategy/repair fields). Kept for compatibility
// tests proving v1 files remain readable.
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

// ckptReader tracks the absolute byte offset of everything consumed so
// decode failures can be localised. It implements io.Reader and
// io.ByteReader (the latter keeps binary.ReadUvarint from allocating a
// shim and keeps offsets exact for header fields).
type ckptReader struct {
	br  *bufio.Reader
	off int64
}

func (c *ckptReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.off += int64(n)
	return n, err
}

func (c *ckptReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

// corruptAt builds the typed decode error, mapping a bare EOF from an
// interior read to ErrUnexpectedEOF — a checkpoint that ends mid-field
// is truncated, not merely finished.
func corruptAt(section string, off int64, err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		err = io.ErrUnexpectedEOF
	}
	return &CheckpointError{Section: section, Offset: off, Err: err}
}

// ReadCheckpoint deserialises a checkpoint from r, building the state
// DD in e. Both format versions are accepted; corruption-class
// failures (bad magic, CRC mismatch, truncation, malformed fields)
// return a *CheckpointError wrapping ErrCheckpointCorrupt and never
// panic.
func ReadCheckpoint(r io.Reader, e *dd.Engine) (*Checkpoint, error) {
	cr := &ckptReader{br: bufio.NewReader(r)}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, corruptAt("magic", 0, err)
	}
	switch magic {
	case ckptMagicV1:
		return readCheckpointV1(cr, e)
	case ckptMagicV2:
		return readCheckpointV2(cr, e)
	default:
		return nil, corruptAt("magic", 0, fmt.Errorf("not a checkpoint file (magic %q)", magic[:]))
	}
}

func readCheckpointV2(cr *ckptReader, e *dd.Engine) (*Checkpoint, error) {
	ck := &Checkpoint{Version: 2}
	var haveHeader, haveState bool
	for {
		secStart := cr.off
		tag, err := cr.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, corruptAt("section", secStart, err)
		}
		secName := sectionName(tag)
		length, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, corruptAt(secName, secStart, err)
		}
		if length > ckptMaxSection {
			return nil, corruptAt(secName, secStart, fmt.Errorf("implausible section length %d", length))
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
			return nil, corruptAt(secName, secStart, err)
		}
		want := binary.LittleEndian.Uint32(crcBuf[:])
		payload, err := readCapped(cr, length)
		if err != nil {
			return nil, corruptAt(secName, secStart, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != want {
			return nil, corruptAt(secName, secStart,
				fmt.Errorf("CRC mismatch: stored %08x, computed %08x over %d bytes", want, got, length))
		}
		switch tag {
		case ckptSectionHeader:
			if err := decodeCkptHeader(payload, ck); err != nil {
				return nil, corruptAt(secName, secStart, err)
			}
			haveHeader = true
		case ckptSectionState:
			st, err := dd.ReadV(bytes.NewReader(payload), e)
			if err != nil {
				return nil, corruptAt(secName, secStart, err)
			}
			ck.State = st
			haveState = true
		case ckptSectionOrder:
			ord, err := decodeCkptOrder(payload)
			if err != nil {
				return nil, corruptAt(secName, secStart, err)
			}
			ck.Order = ord
		default:
			// CRC verified; payload intentionally ignored (future section).
		}
	}
	if !haveHeader || !haveState {
		missing := "header"
		if haveHeader {
			missing = "state"
		}
		return nil, corruptAt(missing, cr.off, fmt.Errorf("missing %s section", missing))
	}
	if ck.Order != nil && len(ck.Order) != ck.NQubits {
		return nil, corruptAt("order", cr.off,
			fmt.Errorf("order spans %d levels, header declares %d qubits", len(ck.Order), ck.NQubits))
	}
	return ck, nil
}

// decodeCkptOrder parses the 'O' payload into a validated permutation.
// The CRC has passed, but the content is still untrusted: a section
// borrowed from another file could carry a non-permutation, which would
// silently scramble every amplitude of a resumed run.
func decodeCkptOrder(payload []byte) ([]int, error) {
	br := bytes.NewReader(payload)
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("order count: %w", err)
	}
	if count > uint64(br.Len()) { // each entry is ≥ 1 byte
		return nil, fmt.Errorf("order count %d exceeds remaining payload %d", count, br.Len())
	}
	ord := make([]int, count)
	for i := range ord {
		q, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("order entry %d: %w", i, err)
		}
		if q >= count {
			return nil, fmt.Errorf("order entry %d is %d, want < %d", i, q, count)
		}
		ord[i] = int(q)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after order entries", br.Len())
	}
	if !dd.IsPermutation(ord) {
		return nil, fmt.Errorf("order %v is not a permutation", ord)
	}
	return ord, nil
}

func sectionName(tag byte) string {
	switch tag {
	case ckptSectionHeader:
		return "header"
	case ckptSectionState:
		return "state"
	case ckptSectionOrder:
		return "order"
	default:
		return fmt.Sprintf("section %q", tag)
	}
}

// readCapped reads exactly length bytes, growing the buffer
// incrementally so a corrupt length costs a truncation error rather
// than a huge allocation.
func readCapped(r io.Reader, length uint64) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min64(length, chunk))
	for uint64(len(buf)) < length {
		n := min64(length-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// decodeCkptHeader parses the 'H' payload (already CRC-verified, but
// still length-validated: a forged CRC must not buy a panic).
func decodeCkptHeader(payload []byte, ck *Checkpoint) error {
	br := bytes.NewReader(payload)
	readStr := func(what string) (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", fmt.Errorf("%s length: %w", what, err)
		}
		if n > uint64(br.Len()) {
			return "", fmt.Errorf("%s length %d exceeds remaining payload %d", what, n, br.Len())
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("%s: %w", what, err)
		}
		return string(b), nil
	}
	name, err := readStr("circuit name")
	if err != nil {
		return err
	}
	nq, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("qubit count: %w", err)
	}
	nextGate, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("gate index: %w", err)
	}
	seed, err := binary.ReadVarint(br)
	if err != nil {
		return fmt.Errorf("seed: %w", err)
	}
	fallbacks, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("fallback count: %w", err)
	}
	strategy, err := readStr("strategy name")
	if err != nil {
		return err
	}
	repairs, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("repair count: %w", err)
	}
	ck.CircuitName = name
	ck.NQubits = int(nq)
	ck.NextGate = int(nextGate)
	ck.Seed = seed
	ck.Fallbacks = int(fallbacks)
	ck.Strategy = strategy
	ck.Repairs = int(repairs)
	return nil
}

// readCheckpointV1 decodes the legacy format (magic already consumed).
func readCheckpointV1(cr *ckptReader, e *dd.Engine) (*Checkpoint, error) {
	fieldStart := cr.off
	nameLen, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("circuit name length: %w", err))
	}
	if nameLen > 1<<20 {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("circuit name length %d implausible", nameLen))
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, name); err != nil {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("circuit name: %w", err))
	}
	fieldStart = cr.off
	nq, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("qubit count: %w", err))
	}
	fieldStart = cr.off
	nextGate, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("gate index: %w", err))
	}
	fieldStart = cr.off
	seed, err := binary.ReadVarint(cr)
	if err != nil {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("seed: %w", err))
	}
	fieldStart = cr.off
	fallbacks, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, corruptAt("header", fieldStart, fmt.Errorf("fallback count: %w", err))
	}
	stateStart := cr.off
	// dd.ReadV adds node-level context to its own errors; the wrapper
	// localises the section (offsets inside it shift with ReadV's
	// internal buffering).
	state, err := dd.ReadV(cr, e)
	if err != nil {
		return nil, corruptAt("state", stateStart, err)
	}
	return &Checkpoint{
		CircuitName: string(name),
		NQubits:     int(nq),
		NextGate:    int(nextGate),
		Seed:        seed,
		Fallbacks:   int(fallbacks),
		Version:     1,
		State:       state,
	}, nil
}

// SaveCheckpoint writes ck to path atomically and durably: the data is
// written to a temp file, fsynced, renamed over path, and the parent
// directory is fsynced so the rename itself survives a crash. Without
// the syncs a crash shortly after a "successful" save could surface a
// zero-length or torn checkpoint — rename is atomic in the namespace
// but says nothing about when file contents or the directory entry
// reach stable storage.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	if err := WriteCheckpoint(f, ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: installing checkpoint: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
// Platforms whose directory handles reject Sync (it is optional in
// POSIX) degrade to the pre-sync behaviour rather than failing saves.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: opening checkpoint dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("core: syncing checkpoint dir: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint from path into e.
func LoadCheckpoint(path string, e *dd.Engine) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	ck, rerr := ReadCheckpoint(f, e)
	if cerr := f.Close(); cerr != nil && rerr == nil {
		return nil, fmt.Errorf("core: closing checkpoint: %w", cerr)
	}
	return ck, rerr
}

// FsckReport summarises a verified checkpoint for ddsim -fsck.
type FsckReport struct {
	Version     int
	CircuitName string
	NQubits     int
	NextGate    int
	Seed        int64
	Fallbacks   int // budget-abort replays, as Checkpoint.Fallbacks
	Strategy    string
	Repairs     int
	// Order is the recorded variable order (nil for identity).
	Order []int
	// StateNodes is the decoded state DD's node count; Norm its 2-norm.
	StateNodes int
	Norm       float64
}

// VerifyCheckpoint loads and deep-checks a checkpoint file: format and
// per-section CRC32 (version 2), then structural audit of the decoded
// state DD, header/state qubit agreement, and unit-norm. It returns a
// report describing the checkpoint; errors from corruption-class
// failures wrap ErrCheckpointCorrupt.
func VerifyCheckpoint(path string) (*FsckReport, error) {
	eng := dd.New()
	ck, err := LoadCheckpoint(path, eng)
	if err != nil {
		return nil, err
	}
	rep := &FsckReport{
		Version:     ck.Version,
		CircuitName: ck.CircuitName,
		NQubits:     ck.NQubits,
		NextGate:    ck.NextGate,
		Seed:        ck.Seed,
		Fallbacks:   ck.Fallbacks,
		Strategy:    ck.Strategy,
		Repairs:     ck.Repairs,
		Order:       ck.Order,
		StateNodes:  eng.SizeV(ck.State),
	}
	if got := ck.State.Qubits(); got != ck.NQubits {
		return rep, fmt.Errorf("%w: header declares %d qubits, state DD spans %d", ErrCheckpointCorrupt, ck.NQubits, got)
	}
	if err := eng.AuditV(ck.State); err != nil {
		return rep, fmt.Errorf("%w: state DD fails audit: %w", ErrCheckpointCorrupt, err)
	}
	drift, err := dd.CheckNorm(ck.State, 0)
	rep.Norm = 1 + drift
	if err != nil {
		rep.Norm = ck.State.Norm()
		return rep, fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	rep.Norm = ck.State.Norm()
	return rep, nil
}

// ResumeOptions prepares opt for resuming c from ck: the checkpoint's
// state becomes the initial state, StartGate skips the already-applied
// prefix, and the recorded seed is restored. It validates that the
// checkpoint matches the circuit, and — when the checkpoint records a
// strategy — either adopts it (opt.Strategy nil) or requires agreement
// with the one configured; callers overriding deliberately should
// clear ck.Strategy first.
func ResumeOptions(opt Options, c *circuit.Circuit, ck *Checkpoint) (Options, error) {
	if ck.NQubits != c.NQubits {
		return opt, fmt.Errorf("core: checkpoint has %d qubits, circuit %q has %d", ck.NQubits, c.Name, c.NQubits)
	}
	if ck.NextGate < 0 || ck.NextGate > len(c.Gates) {
		return opt, fmt.Errorf("core: checkpoint gate index %d out of range for %d gates", ck.NextGate, len(c.Gates))
	}
	if ck.CircuitName != "" && c.Name != "" && ck.CircuitName != c.Name {
		return opt, fmt.Errorf("core: checkpoint is for circuit %q, not %q", ck.CircuitName, c.Name)
	}
	if ck.Strategy != "" && (opt.Strategy == nil || opt.Strategy.Name() != ck.Strategy) {
		// Parse before comparing: an older spelling of the same
		// strategy (the planner's knob-carrying name) still agrees.
		st, err := StrategyFromName(ck.Strategy)
		if err != nil {
			return opt, fmt.Errorf("core: checkpoint strategy: %w", err)
		}
		if opt.Strategy == nil {
			opt.Strategy = st
		} else if opt.Strategy.Name() != st.Name() {
			return opt, fmt.Errorf("core: checkpoint was taken under strategy %q, options request %q (clear ck.Strategy to override)",
				ck.Strategy, opt.Strategy.Name())
		}
	}
	st := ck.State
	opt.InitialState = &st
	opt.StartGate = ck.NextGate
	opt.Seed = ck.Seed
	// The recorded order (nil for identity) wins over any caller-set
	// InitialOrder: the state DD is only meaningful under the order it
	// was checkpointed with.
	opt.InitialOrder = ck.Order
	return opt, nil
}
