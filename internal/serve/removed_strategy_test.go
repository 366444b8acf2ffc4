package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestAdmissionRejectsRemovedStrategy: a job naming the removed
// adaptive strategy is a 400 whose message names it, backed by a
// *core.ConfigError; so is a job still setting one of the planner's
// removed knobs.
func TestAdmissionRejectsRemovedStrategy(t *testing.T) {
	caps := Caps{MaxQubits: 8, MaxGates: 100, MaxShots: 1000}
	_, _, err := DecodeJobRequest([]byte(`{"circuit":"qubits 1\nh 0\n","strategy":"adaptive"}`), caps)
	var re *RequestError
	if !errors.As(err, &re) || re.Status != 400 || !strings.Contains(re.Msg, `"adaptive" was removed`) {
		t.Fatalf("adaptive job: %v, want a 400 naming the removed strategy", err)
	}
	var ce *core.ConfigError
	if _, err := StrategyFor(&JobSpec{Strategy: "adaptive"}); !errors.As(err, &ce) {
		t.Fatalf("StrategyFor(adaptive) = %v, want *core.ConfigError", err)
	}
	for _, knob := range []string{`"ratio":2`, `"window":8`, `"growth":2`} {
		body := `{"circuit":"qubits 1\nh 0\n","strategy":"planner",` + knob + `}`
		if _, _, err := DecodeJobRequest([]byte(body), caps); !errors.As(err, &re) || re.Status != 400 {
			t.Fatalf("planner job with %s: %v, want 400", knob, err)
		}
	}
}

// TestRecoveryFailsJournaledRemovedStrategy: a job journaled under the
// adaptive strategy fails at recovery, and the restarted server keeps
// serving other jobs.
func TestRecoveryFailsJournaledRemovedStrategy(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := formatJobID(1)
	spec := &JobSpec{Client: "a", Priority: "normal", Circuit: testCircuit(4, 12), Strategy: "adaptive"}
	if err := jn.appendJob(spec, &JobStatus{
		ID: id, State: StateQueued, Client: "a", Priority: "normal", NQubits: 4, Gates: 12, Strategy: "adaptive(r=1)",
	}); err != nil {
		t.Fatal(err)
	}

	s, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("restart over an adaptive journal entry: %v", err)
	}
	defer s.Kill()
	got, ok := s.Status(id)
	if !ok || got.State != StateFailed || !strings.Contains(got.Error, `"adaptive" was removed`) {
		t.Fatalf("journaled adaptive job after recovery = %+v, want failed naming the removed strategy", got)
	}

	next, circ, err := DecodeJobRequest([]byte(`{"circuit":`+jsonStr(testCircuit(4, 12))+`,"strategy":"planner"}`), Caps{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(next, circ)
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	if final := waitTerminal(t, s, st.ID, 30*time.Second); final.State != StateDone {
		t.Fatalf("job after recovery = %+v, want done", final)
	}
}
