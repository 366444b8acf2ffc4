package main

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/supremacy"
)

// TestMain lets the test binary stand in for ddsim: with DDSIM_MAIN=1
// in its environment it runs main on its own arguments, so a test can
// drive the real flag parsing and report through a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("DDSIM_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet("ddsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ddsim runs the command with args and returns its stdout; a non-zero
// exit fails the test with stderr attached.
func ddsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDSIM_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ddsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// writeCircuit writes c to sup.qc in dir and returns the path.
func writeCircuit(t *testing.T, dir string, c *circuit.Circuit) string {
	t.Helper()
	qc := filepath.Join(dir, "sup.qc")
	f, err := os.Create(qc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return qc
}

// parseSamples reads the "|bits>  count" lines of a histogram,
// skipping everything else.
func parseSamples(t *testing.T, text string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || !strings.HasPrefix(f[0], "|") || !strings.HasSuffix(f[0], ">") {
			continue
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("bad sample line %q", sc.Text())
		}
		counts[f[0]] = n
	}
	return counts
}

// TestParallelShotsGolden pins the static -parallel histogram: the
// circuit is simulated once and the 1000 shots are drawn in four seeded
// streams from its final state. The golden was captured when every
// stream ran its own simulation on its own engine; the streams are the
// same, so the histogram is too, while the event stream now holds one
// run_start instead of four. -checkpoint is accepted alongside
// -parallel, since there is one run to checkpoint.
func TestParallelShotsGolden(t *testing.T) {
	dir := t.TempDir()
	qc := writeCircuit(t, dir, supremacy.Circuit(3, 3, 8, 1))
	events := filepath.Join(dir, "ev.jsonl")
	out := ddsim(t, "-file", qc, "-strategy", "k-operations", "-k", "4",
		"-shots", "1000", "-parallel", "4", "-seed", "3", "-top", "0",
		"-trace-out", events, "-checkpoint", filepath.Join(dir, "ck.bin"))

	golden, err := os.ReadFile(filepath.Join("testdata", "parallel_shots.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want, got := parseSamples(t, string(golden)), parseSamples(t, out)
	if len(want) != 282 {
		t.Fatalf("golden holds %d outcomes, want 282", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct outcomes, golden has %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("outcome %s drawn %d times, golden %d", k, got[k], n)
		}
	}

	trace, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(trace), `"kind":"run_start"`); n != 1 {
		t.Fatalf("event stream holds %d run_start events, want 1", n)
	}
	if !strings.Contains(out, "parallel:       4 sampling streams from one simulation") {
		t.Fatalf("missing parallel report line:\n%s", out)
	}
}

// TestInterruptWritesCheckpoint sends SIGINT to a -checkpoint run once
// its simulation has started (the -progress run_start line) and expects
// exit status 5 (canceled) and an abort checkpoint that passes -fsck.
// The circuit, sequential supremacy 5×4 at depth 15, takes seconds to
// simulate; -timeout bounds a run the signal fails to stop.
func TestInterruptWritesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	qc := writeCircuit(t, dir, supremacy.Circuit(5, 4, 15, 1))
	ck := filepath.Join(dir, "ck.bin")
	cmd := exec.Command(os.Args[0], "-file", qc, "-checkpoint", ck, "-progress", "-timeout", "60s", "-top", "0")
	cmd.Env = append(os.Environ(), "DDSIM_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	started := false
	for !started && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		started = strings.HasPrefix(sc.Text(), "progress: ")
	}
	if started {
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
	}
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
	}
	err = cmd.Wait()
	if !started {
		t.Fatalf("run ended (%v) before its progress line:\n%s", err, log.String())
	}
	if code := cmd.ProcessState.ExitCode(); code != 5 {
		t.Fatalf("interrupted run exited %d (%v), want 5:\n%s", code, err, log.String())
	}
	if !strings.Contains(log.String(), "checkpoint:     "+ck) {
		t.Fatalf("interrupted run reports no checkpoint:\n%s", log.String())
	}
	if out := ddsim(t, "-fsck", ck); !strings.Contains(out, "fsck:           ok") {
		t.Fatalf("-fsck of the abort checkpoint:\n%s", out)
	}
}
