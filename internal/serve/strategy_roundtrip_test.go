package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// TestRetryAfterRoundsUp covers the Retry-After header contract: the
// advertised backoff is rounded up to whole seconds and floored at 1,
// never truncated — a 500ms RetryAfter must not render as "0" and
// invite an immediate retry stampede.
func TestRetryAfterRoundsUp(t *testing.T) {
	cases := []struct {
		retryAfter time.Duration
		want       string
	}{
		{500 * time.Millisecond, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{0, ""}, // unset: no header
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeRequestError(rec, &RequestError{Status: 429, Msg: "busy", RetryAfter: c.retryAfter})
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("RetryAfter %v -> header %q, want %q", c.retryAfter, got, c.want)
		}
		if rec.Code != 429 {
			t.Errorf("RetryAfter %v -> status %d, want 429", c.retryAfter, rec.Code)
		}
	}
}

// TestStrategyRoundTripAllSurfaces is the drift guard for the strategy
// name surface: every selector in the shared table (core.StrategyNames)
// must be accepted by the job decoder, spell the same canonical name as
// the shared constructor, and survive the checkpoint-name round trip
// the resume path depends on.
func TestStrategyRoundTripAllSurfaces(t *testing.T) {
	caps := Caps{MaxQubits: 8, MaxGates: 100, MaxShots: 1000}
	for _, name := range core.StrategyNames() {
		t.Run(name, func(t *testing.T) {
			body := fmt.Sprintf(`{"circuit":"qubits 2\nh 0\ncx 0 1\n","strategy":%q}`, name)
			spec, _, err := DecodeJobRequest([]byte(body), caps)
			if err != nil {
				t.Fatalf("decoder rejects %q: %v", name, err)
			}
			st, err := StrategyFor(spec)
			if err != nil {
				t.Fatalf("StrategyFor: %v", err)
			}
			ref, err := core.NewStrategy(name, core.StrategyKnobs{})
			if err != nil {
				t.Fatalf("core.NewStrategy: %v", err)
			}
			if st.Name() != ref.Name() {
				t.Fatalf("serve spells %q, core spells %q", st.Name(), ref.Name())
			}
			back, err := core.StrategyFromName(st.Name())
			if err != nil {
				t.Fatalf("checkpoint name %q does not parse: %v", st.Name(), err)
			}
			if back.Name() != st.Name() {
				t.Fatalf("round trip %q -> %q", st.Name(), back.Name())
			}
		})
	}
	// Negative knobs are a 400-class configuration error, not a silent
	// default.
	if _, err := StrategyFor(&JobSpec{Strategy: "k-operations", K: -2}); err == nil {
		t.Fatal("negative k accepted")
	}
}

// TestServeParkedPlannerJobResumes parks a running planner job via
// Drain and restarts the server on the same journal: the job must
// resume under the same canonical strategy name and finish.
func TestServeParkedPlannerJobResumes(t *testing.T) {
	dir := t.TempDir()
	s, hits, release := stalledServer(t, dir, func(c *Config) {
		c.Workers = 1
		c.CheckpointEvery = 8
	})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	spec := `{"circuit":` + jsonStr(testCircuit(8, 400)) + `,"strategy":"planner","shots":8,"seed":11}`
	_, st := submitJSON(t, ts, spec)
	<-hits // the job is frozen inside its first durable checkpoint

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.testDraining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, _ := s.Status(st.ID)
	if got.State != StateParked {
		t.Fatalf("job after drain = %+v, want parked", got)
	}
	if got.Gate == 0 {
		t.Fatal("parked planner job has no checkpoint progress")
	}

	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	final := waitTerminal(t, s2, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("parked planner job after restart = %+v", final)
	}
	if final.Strategy != "planner" {
		t.Fatalf("resumed under strategy %q, want planner", final.Strategy)
	}
}
