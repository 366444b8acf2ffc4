package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestTerminalJobsDropCircuit: once a job is done or failed, its
// Server.jobs entry holds neither the parsed circuit nor the circuit
// text, in the serving process and after recovery, while
// GET /v1/jobs/<id> keeps answering the same status.
func TestTerminalJobsDropCircuit(t *testing.T) {
	dir := t.TempDir()
	s, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	defer ts.Close()

	var ids []string
	for _, body := range []string{
		`{"qasm":` + jsonStr(bellQASM) + `,"shots":16,"seed":3}`,
		`{"circuit":` + jsonStr(testCircuit(14, 600)) + `,"max_nodes":8}`, // fails on its budget
	} {
		resp, st := submitJSON(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	want := map[string][]byte{}
	for i, id := range ids {
		st := waitTerminal(t, s, id, 30*time.Second)
		if wantState := []JobState{StateDone, StateFailed}[i]; st.State != wantState {
			t.Fatalf("job %s: state %s (%s), want %s", id, st.State, st.Error, wantState)
		}
		want[id] = getStatus(t, ts.URL, id)
		var got JobStatus
		if err := json.Unmarshal(want[id], &got); err != nil {
			t.Fatal(err)
		}
		if got.State != st.State {
			t.Fatalf("job %s: GET answered %s, Status %s", id, want[id], st.State)
		}
	}
	checkDropped := func(s *Server, when string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, id := range ids {
			j := s.jobs[id]
			if j.circ != nil || j.spec.Circuit != "" || j.spec.QASM != "" {
				t.Errorf("%s: terminal job %s still holds its circuit (parsed %v, text %d+%d bytes)",
					when, id, j.circ != nil, len(j.spec.Circuit), len(j.spec.QASM))
			}
		}
	}
	checkDropped(s, "serving")
	s.Kill()

	s2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	ts2 := httptest.NewServer(Handler(s2))
	defer ts2.Close()
	checkDropped(s2, "recovered")
	for _, id := range ids {
		if got := getStatus(t, ts2.URL, id); string(got) != string(want[id]) {
			t.Errorf("job %s after recovery: GET answered\n%s\nwant\n%s", id, got, want[id])
		}
	}
}

// getStatus returns the body of GET /v1/jobs/<id>.
func getStatus(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d", id, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
