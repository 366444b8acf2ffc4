package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/obs"
	"repro/internal/serve/retry"
)

// test-only accessors for internal lifecycle flags.
func (s *Server) testKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

func (s *Server) testDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// fastRetry is a test policy with no real backoff.
var fastRetry = retry.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: 0, Attempts: 3}

func testConfig(dir string) Config {
	return Config{
		Dir:             dir,
		Workers:         2,
		Queue:           16,
		CheckpointEvery: 16,
		Retry:           fastRetry,
		Registry:        obs.NewRegistry(),
	}
}

// testCircuit builds a native-format text of the given width and
// length whose state stays small (Clifford+T pattern).
func testCircuit(n, gateCount int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "qubits %d\n", n)
	for i := 0; i < gateCount; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "h %d\n", i%n)
		case 1:
			fmt.Fprintf(&b, "cx %d %d\n", i%n, (i+1)%n)
		case 2:
			fmt.Fprintf(&b, "t %d\n", (i+2)%n)
		}
	}
	return b.String()
}

func submitJSON(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	resp.Body.Close()
	return resp, st
}

func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			return *st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServeHappyPathHTTP(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := `{"qasm":` + jsonStr(bellQASM) + `,"shots":64,"seed":7,"client":"alice"}`
	resp, st := submitJSON(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
	final := waitTerminal(t, s, st.ID, 10*time.Second)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Summary == nil || final.Summary.Norm < 0.999 || final.Summary.Norm > 1.001 {
		t.Fatalf("summary = %+v", final.Summary)
	}
	// Bell state: only 00 and 11 outcomes.
	total := 0
	for outcome, count := range final.Summary.Samples {
		if outcome != "00" && outcome != "11" {
			t.Fatalf("impossible Bell outcome %q", outcome)
		}
		total += count
	}
	if total != 64 {
		t.Fatalf("sampled %d outcomes, want 64", total)
	}

	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", rr.StatusCode)
	}

	for _, ep := range []string{"/healthz", "/readyz"} {
		hr, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", ep, hr.StatusCode)
		}
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	expo, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"serve_jobs_admitted_total", "serve_jobs_done_total", "pool_queue_depth"} {
		if !strings.Contains(string(expo), series) {
			t.Fatalf("metrics exposition missing %s:\n%s", series, expo)
		}
	}
}

// jsonStr JSON-quotes a string (tiny local helper to keep test bodies
// readable).
func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// stalledServer starts a server whose jobs block inside the first
// durable checkpoint until release is closed.
func stalledServer(t *testing.T, dir string, mut func(*Config)) (*Server, chan string, chan struct{}) {
	t.Helper()
	cfg := testConfig(dir)
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits := make(chan string, 64)
	release := make(chan struct{})
	s.afterCheckpoint = func(id string, gate int) {
		select {
		case hits <- id:
		default:
		}
		<-release
	}
	return s, hits, release
}

func TestServeQueueOverflowReturns429(t *testing.T) {
	s, hits, release := stalledServer(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.Queue = 1
		c.CheckpointEvery = 4
		c.PerClientActive = -1 // exercise the queue bound, not the quota
	})
	defer func() {
		close(release)
		s.Kill()
	}()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	long := `{"circuit":` + jsonStr(testCircuit(6, 200)) + `}`
	resp, _ := submitJSON(t, ts, long) // runs, stalls at its first checkpoint
	if resp.StatusCode != 202 {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	<-hits
	resp, _ = submitJSON(t, ts, long) // fills the queue
	if resp.StatusCode != 202 {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	resp, _ = submitJSON(t, ts, long) // over capacity
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestServeCancelQueuedJobMapsTo499(t *testing.T) {
	s, hits, release := stalledServer(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.CheckpointEvery = 4
	})
	defer func() {
		close(release)
		s.Kill()
	}()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	long := `{"circuit":` + jsonStr(testCircuit(6, 200)) + `}`
	submitJSON(t, ts, long)
	<-hits
	_, queued := submitJSON(t, ts, long)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	st, _ := s.Status(queued.ID)
	if st.State != StateFailed || st.ErrorKind != "canceled" {
		t.Fatalf("cancelled job = %+v", st)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != StatusClientClosedRequest {
		t.Fatalf("result of cancelled job = %d, want 499", rr.StatusCode)
	}
}

func TestServeDeadlineMapsTo504(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	body := `{"circuit":` + jsonStr(testCircuit(16, 20000)) + `,"timeout_ms":1}`
	resp, st := submitJSON(t, ts, body)
	if resp.StatusCode != 202 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	if final.State != StateFailed || final.ErrorKind != "deadline" {
		t.Fatalf("final = %+v", final)
	}
	if final.Attempt != 1 {
		t.Fatalf("deadline failure was retried (%d attempts); deadlines are non-retryable", final.Attempt)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("result = %d, want 504", rr.StatusCode)
	}
}

func TestServeBudgetRetriesThenMapsTo507(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	// An entangling circuit that cannot fit in 8 nodes; the budget
	// failure is retryable, so the job burns all attempts and fails.
	body := `{"circuit":` + jsonStr(testCircuit(14, 600)) + `,"max_nodes":8}`
	resp, st := submitJSON(t, ts, body)
	if resp.StatusCode != 202 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	final := waitTerminal(t, s, st.ID, 30*time.Second)
	if final.State != StateFailed || final.ErrorKind != "budget" {
		t.Fatalf("final = %+v", final)
	}
	if final.Attempt != fastRetry.MaxAttempts() {
		t.Fatalf("budget failure made %d attempts, want %d", final.Attempt, fastRetry.MaxAttempts())
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("result = %d, want 507", rr.StatusCode)
	}
}

func TestServeDrainParksRunningJobs(t *testing.T) {
	dir := t.TempDir()
	s, hits, release := stalledServer(t, dir, func(c *Config) {
		c.Workers = 1
		c.CheckpointEvery = 8
	})
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	spec := `{"circuit":` + jsonStr(testCircuit(8, 400)) + `,"shots":8,"seed":11}`
	_, st := submitJSON(t, ts, spec)
	<-hits // running job has a durable checkpoint and is frozen in it

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.testDraining() {
		time.Sleep(time.Millisecond)
	}
	// Draining: not ready, and submissions bounce with 503.
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rr.StatusCode)
	}
	resp, _ := submitJSON(t, ts, spec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After")
	}

	close(release) // let the stalled job observe the cancellation
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, _ := s.Status(st.ID)
	if got.State != StateParked {
		t.Fatalf("job after drain = %+v, want parked", got)
	}
	if got.Gate == 0 {
		t.Fatal("parked job has no checkpoint progress")
	}

	// A restart against the same journal finishes the parked job.
	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	final := waitTerminal(t, s2, st.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("parked job after restart = %+v", final)
	}
}

// TestServeCrashRecovery is the acceptance e2e: kill -9 the server
// mid-job, restart it on the same journal, and require every job to
// reach a terminal state exactly once with amplitudes identical to an
// uninterrupted run.
func TestServeCrashRecovery(t *testing.T) {
	const (
		nq    = 8
		gates = 240
		shots = 32
		seed  = 42
	)
	circText := testCircuit(nq, gates)

	// Uninterrupted reference run (plain core, same strategy).
	refCirc, err := circuit.ParseString(circText)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := core.Run(refCirc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refAmp := make([]complex128, 1<<nq)
	for i := range refAmp {
		refAmp[i] = refRes.State.Amplitude(uint64(i))
	}
	refSamples := map[string]int{}
	rng := rand.New(rand.NewSource(seed))
	sampler := refRes.State.Sampler()
	for i := 0; i < shots; i++ {
		refSamples[fmt.Sprintf("%0*b", nq, sampler.Draw(rng))]++
	}

	dir := t.TempDir()
	s, hits, release := stalledServer(t, dir, func(c *Config) {
		c.Workers = 2
		c.CheckpointEvery = 16
	})
	spec := &JobSpec{Circuit: circText, Priority: "normal", Shots: shots, Seed: seed}
	circ, err := circuit.ParseString(circText)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		sp := *spec
		st, err := s.Submit(&sp, circ)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	// Two workers stall inside their first durable checkpoint; the
	// third job waits in the queue.
	stalled := map[string]bool{}
	stalled[<-hits] = true
	stalled[<-hits] = true
	if len(stalled) != 2 {
		t.Fatalf("expected two distinct stalled jobs, got %v", stalled)
	}

	// kill -9: journal writes freeze, contexts die, nothing terminal is
	// recorded.
	killDone := make(chan struct{})
	go func() {
		s.Kill()
		close(killDone)
	}()
	for !s.testKilled() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-killDone

	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s missing after kill", id)
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s despite the crash", id, st.State)
		}
	}

	// Restart on the same journal: every job must recover and finish.
	reg2 := obs.NewRegistry()
	cfg2 := testConfig(dir)
	cfg2.Registry = reg2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()

	for _, id := range ids {
		final := waitTerminal(t, s2, id, 60*time.Second)
		if final.State != StateDone {
			t.Fatalf("job %s after recovery = %+v", id, final)
		}
		if stalled[id] {
			if final.Attempt < 2 {
				t.Fatalf("stalled job %s finished on attempt %d; expected a resumed second attempt", id, final.Attempt)
			}
			if final.Gate != gates {
				t.Fatalf("job %s gate = %d, want %d", id, final.Gate, gates)
			}
		}
		// Amplitudes must be identical to the uninterrupted run.
		eng := dd.New()
		ck, err := core.LoadCheckpoint(s2.jn.resultPath(id), eng)
		if err != nil {
			t.Fatalf("load result %s: %v", id, err)
		}
		if ck.NextGate != gates {
			t.Fatalf("result %s covers %d gates, want %d", id, ck.NextGate, gates)
		}
		for i, want := range refAmp {
			if got := ck.State.Amplitude(uint64(i)); got != want {
				t.Fatalf("job %s amplitude[%d] = %v, want %v (diverged after recovery)", id, i, got, want)
			}
		}
		// And so must the deterministic samples.
		if len(final.Summary.Samples) != len(refSamples) {
			t.Fatalf("job %s samples = %v, want %v", id, final.Summary.Samples, refSamples)
		}
		for outcome, n := range refSamples {
			if final.Summary.Samples[outcome] != n {
				t.Fatalf("job %s samples = %v, want %v", id, final.Summary.Samples, refSamples)
			}
		}
	}

	// Exactly-once terminal accounting on the recovery server: three
	// recoveries, three dones, zero failures.
	snap := map[string]float64{}
	for _, m := range reg2.Snapshot() {
		snap[m.Name] = m.Value
	}
	if snap["serve_jobs_recovered_total"] != 3 {
		t.Fatalf("recovered = %v, want 3", snap["serve_jobs_recovered_total"])
	}
	if snap["serve_jobs_done_total"] != 3 {
		t.Fatalf("done = %v, want 3", snap["serve_jobs_done_total"])
	}
	if snap["serve_jobs_failed_total"] != 0 {
		t.Fatalf("failed = %v, want 0", snap["serve_jobs_failed_total"])
	}

	// A third generation sees only terminal jobs and re-runs nothing.
	s3, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Kill()
	for _, id := range ids {
		st, ok := s3.Status(id)
		if !ok || st.State != StateDone {
			t.Fatalf("job %s lost its terminal state across restarts: %+v", id, st)
		}
	}
}
