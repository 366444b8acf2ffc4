package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dd"
	"repro/internal/grover"
	"repro/internal/obs"
)

func eventsOfKind(evs []obs.Event, k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestEventStreamGrover is the tentpole acceptance test: a Grover run
// emits run_start, exactly one step event per applied operation with
// monotonically consistent gate indices and node counts, and a closing
// run_end whose totals match the Result.
func TestEventStreamGrover(t *testing.T) {
	c := grover.Circuit(8, 3, grover.Iterations(8))
	ring := obs.NewRing(1 << 16)
	reg := obs.NewRegistry()
	res, err := Run(c, Options{EventSink: ring, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) < 3 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].Kind != obs.KindRunStart {
		t.Fatalf("first event is %v, want run_start", evs[0].Kind)
	}
	if evs[0].Circuit != c.Name || evs[0].TotalGates != len(c.Gates) {
		t.Fatalf("run_start = %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != obs.KindRunEnd {
		t.Fatalf("last event is %v, want run_end", last.Kind)
	}

	steps := eventsOfKind(evs, obs.KindStep)
	if len(steps) != res.MatVecSteps {
		t.Fatalf("%d step events, but Result reports %d matrix-vector steps", len(steps), res.MatVecSteps)
	}
	prevGate, prevSeq := 0, uint64(0)
	var sumCombined int
	for i, s := range steps {
		if s.Seq <= prevSeq {
			t.Fatalf("step %d: seq %d not increasing", i, s.Seq)
		}
		prevSeq = s.Seq
		if s.Gate < prevGate {
			t.Fatalf("step %d: gate %d < previous %d", i, s.Gate, prevGate)
		}
		prevGate = s.Gate
		if s.StateNodes <= 0 || s.OpNodes <= 0 {
			t.Fatalf("step %d: non-positive sizes %+v", i, s)
		}
		// The state DD is interned, so its size can never exceed the
		// live vector-node count at emission time.
		if s.StateNodes > s.VLive {
			t.Fatalf("step %d: state %d nodes > %d live", i, s.StateNodes, s.VLive)
		}
		if s.MatVecMuls != 1 {
			t.Fatalf("step %d: %d matrix-vector muls, want exactly 1", i, s.MatVecMuls)
		}
		sumCombined += s.Combined
	}
	if prevGate != len(c.Gates) || last.Gate != len(c.Gates) {
		t.Fatalf("final gate %d / run_end gate %d, want %d", prevGate, last.Gate, len(c.Gates))
	}
	if sumCombined != len(c.Gates) {
		t.Fatalf("steps cover %d gates, circuit has %d", sumCombined, len(c.Gates))
	}
	if got := int(last.MatVecMuls); got != res.MatVecSteps {
		t.Fatalf("run_end matvec total %d, Result %d", got, res.MatVecSteps)
	}
	if last.PeakNodes != res.Stats.PeakVNodes+res.Stats.PeakMNodes {
		t.Fatalf("run_end peak %d, stats %d", last.PeakNodes, res.Stats.PeakVNodes+res.Stats.PeakMNodes)
	}

	// Metrics: counter totals match the event stream; snapshots
	// round-trip as valid JSON and Prometheus text.
	snap := reg.Snapshot()
	byName := map[string]obs.MetricSnapshot{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if got := byName["dd_steps_total"].Value; int(got) != len(steps) {
		t.Fatalf("dd_steps_total = %g, want %d", got, len(steps))
	}
	if byName["dd_matvec_muls_total"].Value != float64(res.MatVecSteps) {
		t.Fatalf("dd_matvec_muls_total = %g", byName["dd_matvec_muls_total"].Value)
	}
	h := byName["dd_state_nodes"]
	if h.Count != uint64(len(steps)) || len(h.Buckets) == 0 {
		t.Fatalf("dd_state_nodes histogram: %+v", h)
	}
	if lastB := h.Buckets[len(h.Buckets)-1]; lastB.LE != "+Inf" || lastB.Count != h.Count {
		t.Fatalf("+Inf bucket %+v != count %d", lastB, h.Count)
	}
	var jsonBuf, promBuf bytes.Buffer
	if err := reg.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(jsonBuf.Bytes()) {
		t.Fatalf("metrics JSON invalid:\n%s", jsonBuf.String())
	}
	if err := reg.WritePrometheus(&promBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE dd_steps_total counter", "dd_step_seconds_bucket{le=\"+Inf\"}", "dd_live_nodes"} {
		if !strings.Contains(promBuf.String(), want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, promBuf.String())
		}
	}
}

// TestTraceMatchesEvents pins the Result.Trace contract: the trace is
// now derived from the same step observations as the event stream, and
// the two must agree point for point.
func TestTraceMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	c := randomCircuit(rng, 6, 80, true)
	ring := obs.NewRing(1 << 12)
	res, err := Run(c, Options{Strategy: KOperations{K: 4}, UseBlocks: true,
		RecordTrace: true, EventSink: ring})
	if err != nil {
		t.Fatal(err)
	}
	steps := eventsOfKind(ring.Events(), obs.KindStep)
	if len(steps) != len(res.Trace) {
		t.Fatalf("%d step events vs %d trace points", len(steps), len(res.Trace))
	}
	for i, tp := range res.Trace {
		s := steps[i]
		if tp.GateIndex != s.Gate || tp.OpSize != s.OpNodes || tp.StateSize != s.StateNodes ||
			tp.Combined != s.Combined || tp.FromBlock != s.FromBlock ||
			tp.BlockName != s.Block || tp.BlockReuse != s.BlockReuse {
			t.Fatalf("trace[%d] %+v != event %+v", i, tp, s)
		}
	}
}

// TestTraceUnchangedByObservability pins that attaching a sink does not
// perturb the recorded trace relative to a plain RecordTrace run.
func TestTraceUnchangedByObservability(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	c := randomCircuit(rng, 5, 60, false)
	plain, err := Run(c, Options{Strategy: MaxSize{SMax: 64}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(c, Options{Strategy: MaxSize{SMax: 64}, RecordTrace: true,
		EventSink: obs.NewRing(16), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Trace) != len(observed.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(plain.Trace), len(observed.Trace))
	}
	for i := range plain.Trace {
		if plain.Trace[i] != observed.Trace[i] {
			t.Fatalf("trace[%d]: %+v vs %+v", i, plain.Trace[i], observed.Trace[i])
		}
	}
}

// TestFallbackAndGCEvents drives a budget-constrained run and checks
// the replay and GC paths show up in the stream and the registry:
// every journal entry is one KindPressure event, and their count is
// dd_pressure_actions_total.
func TestFallbackAndGCEvents(t *testing.T) {
	c := grover.Circuit(10, 3, grover.Iterations(10))
	ring := obs.NewRing(1 << 16)
	reg := obs.NewRegistry()
	res, err := Run(c, Options{Strategy: MaxSize{SMax: 1 << 20}, MaxNodes: 150,
		EventSink: ring, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays() == 0 {
		t.Fatal("budget never tripped; replay path untested")
	}
	evs := ring.Events()
	pes := eventsOfKind(evs, obs.KindPressure)
	if len(pes) != len(res.Degradations) {
		t.Fatalf("%d pressure events, journal holds %d entries", len(pes), len(res.Degradations))
	}
	for i, e := range pes {
		d := res.Degradations[i]
		if e.Action != d.Action || e.Rung != d.Rung || e.Level != d.Level ||
			e.NodesBefore != d.LiveBefore || e.NodesAfter != d.LiveAfter {
			t.Fatalf("pressure event %d %+v does not match journal entry %+v", i, e, d)
		}
	}
	if len(eventsOfKind(evs, obs.KindGC)) == 0 {
		t.Fatal("budgeted run emitted no gc events")
	}
	end := evs[len(evs)-1]
	if end.Kind != obs.KindRunEnd || end.Degradations != len(res.Degradations) || end.Abort != "" {
		t.Fatalf("run_end = %+v", end)
	}
	var actions float64 = -1
	for _, m := range reg.Snapshot() {
		if m.Name == "dd_pressure_actions_total" {
			actions = m.Value
		}
		if m.Name == "dd_gc_total" && m.Value == 0 {
			t.Fatal("dd_gc_total = 0 despite gc events")
		}
	}
	if int(actions) != len(pes) {
		t.Fatalf("dd_pressure_actions_total = %g, want %d", actions, len(pes))
	}
}

// TestAbortEvents checks that a deadline abort is visible in the stream
// and stamped onto run_end.
func TestAbortEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c := randomCircuit(rng, 6, 200, false)
	ring := obs.NewRing(1 << 12)
	_, err := Run(c, Options{Deadline: time.Now().Add(-time.Second), EventSink: ring})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	evs := ring.Events()
	aborts := eventsOfKind(evs, obs.KindAbort)
	if len(aborts) != 1 || aborts[0].Abort != "deadline" {
		t.Fatalf("abort events: %+v", aborts)
	}
	end := evs[len(evs)-1]
	if end.Kind != obs.KindRunEnd || end.Abort != "deadline" {
		t.Fatalf("run_end = %+v", end)
	}
}

// TestCheckpointEventsEmitted checks periodic checkpoints appear in the
// stream after the callback succeeded.
func TestCheckpointEventsEmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c := randomCircuit(rng, 5, 100, false)
	ring := obs.NewRing(1 << 12)
	saves := 0
	_, err := Run(c, Options{
		CheckpointEvery: 20,
		OnCheckpoint:    func(*Checkpoint) error { saves++; return nil },
		EventSink:       ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if saves == 0 {
		t.Fatal("no checkpoints taken")
	}
	if got := len(eventsOfKind(ring.Events(), obs.KindCheckpoint)); got != saves {
		t.Fatalf("%d checkpoint events, %d saves", got, saves)
	}
}

// TestSaveCheckpointDurable covers the durability fix: the installed
// file is complete and loadable, overwriting an existing checkpoint
// works, and no temp files are left behind.
func TestSaveCheckpointDurable(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	e := dd.New()
	ck := &Checkpoint{CircuitName: "durable", NQubits: 5, NextGate: 9, Seed: 3,
		State: e.FromVector(randAmps(rng, 5))}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("installed checkpoint: %v (size %d)", err, fi.Size())
	}
	got, err := LoadCheckpoint(path, dd.New())
	if err != nil {
		t.Fatalf("installed checkpoint unreadable: %v", err)
	}
	if got.CircuitName != "durable" || got.NextGate != 9 {
		t.Fatalf("loaded %+v", got)
	}
	vectorsMatch(t, got.State.ToVector(), ck.State.ToVector())

	// Overwrite with a later checkpoint; the new content must win.
	ck2 := &Checkpoint{CircuitName: "durable", NQubits: 5, NextGate: 21, Seed: 3,
		State: e.FromVector(randAmps(rng, 5))}
	if err := SaveCheckpoint(path, ck2); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadCheckpoint(path, dd.New())
	if err != nil {
		t.Fatal(err)
	}
	if got2.NextGate != 21 {
		t.Fatalf("overwrite kept stale checkpoint: %+v", got2)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".ckpt-") {
			t.Fatalf("temp file %q left behind", ent.Name())
		}
	}
}
