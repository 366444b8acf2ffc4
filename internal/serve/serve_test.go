package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const bellQASM = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"

func TestDecodeJobRequest(t *testing.T) {
	caps := Caps{MaxQubits: 8, MaxGates: 100, MaxShots: 1000}
	cases := []struct {
		name    string
		body    string
		wantErr int // 0 = success
	}{
		{"native ok", `{"circuit":"qubits 2\nh 0\ncx 0 1\n"}`, 0},
		{"qasm ok", `{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"}`, 0},
		{"bad json", `{"circuit":`, 400},
		{"trailing data", `{"circuit":"qubits 1\nh 0\n"} extra`, 400},
		{"unknown field", `{"circuit":"qubits 1\nh 0\n","bogus":1}`, 400},
		{"neither source", `{"shots":5}`, 400},
		{"both sources", `{"circuit":"qubits 1\nh 0\n","qasm":"OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"}`, 400},
		{"dynamic qasm", `{"qasm":"OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"}`, 400},
		{"parse error", `{"circuit":"qubits 2\nfrobnicate 0\n"}`, 400},
		{"too wide", `{"circuit":"qubits 9\nh 0\n"}`, 400},
		{"no gates", `{"circuit":"qubits 2\n"}`, 400},
		{"bad priority", `{"circuit":"qubits 1\nh 0\n","priority":"urgent"}`, 400},
		{"bad strategy", `{"circuit":"qubits 1\nh 0\n","strategy":"psychic"}`, 400},
		{"negative shots", `{"circuit":"qubits 1\nh 0\n","shots":-1}`, 400},
		{"too many shots", `{"circuit":"qubits 1\nh 0\n","shots":1001}`, 400},
		{"negative timeout", `{"circuit":"qubits 1\nh 0\n","timeout_ms":-5}`, 400},
		{"strategies ok", `{"circuit":"qubits 2\nh 0\ncx 0 1\n","strategy":"k-operations","k":3}`, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, circ, err := DecodeJobRequest([]byte(c.body), caps)
			if c.wantErr == 0 {
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if spec == nil || circ == nil {
					t.Fatal("nil spec or circuit on success")
				}
				if spec.Priority == "" {
					t.Fatal("priority not normalised")
				}
				return
			}
			re, ok := err.(*RequestError)
			if !ok {
				t.Fatalf("decode = %v, want *RequestError(%d)", err, c.wantErr)
			}
			if re.Status != c.wantErr {
				t.Fatalf("status = %d (%s), want %d", re.Status, re.Msg, c.wantErr)
			}
		})
	}
}

func TestDecodeJobRequestBodyCap(t *testing.T) {
	big := `{"circuit":"` + strings.Repeat("x", 2048) + `"}`
	_, _, err := DecodeJobRequest([]byte(big), Caps{MaxBodyBytes: 1024})
	re, ok := err.(*RequestError)
	if !ok || re.Status != 413 {
		t.Fatalf("oversized body = %v, want 413", err)
	}
}

func TestDecodeGateCapCountsExpandedGates(t *testing.T) {
	// 30 gates through a repeat block; the cap sees the expansion.
	body := `{"circuit":"qubits 2\nrepeat 30\nh 0\nendrepeat\n"}`
	_, circ, err := DecodeJobRequest([]byte(body), Caps{MaxGates: 100})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(circ.Gates) != 30 {
		t.Fatalf("expanded to %d gates, want 30", len(circ.Gates))
	}
	if _, _, err = DecodeJobRequest([]byte(body), Caps{MaxGates: 29}); err == nil {
		t.Fatal("gate cap did not count expanded gates")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := breaker{threshold: 3, cooldown: time.Minute}
	now := time.Unix(1000, 0)
	if ok, _ := b.allow(now); !ok {
		t.Fatal("fresh breaker rejects")
	}
	b.onFailure(now)
	b.onFailure(now)
	if ok, _ := b.allow(now); !ok {
		t.Fatal("breaker opened below threshold")
	}
	b.onFailure(now) // third: opens
	ok, ra := b.allow(now)
	if ok {
		t.Fatal("breaker did not open at threshold")
	}
	if ra != time.Minute {
		t.Fatalf("retry-after = %v, want 1m", ra)
	}
	// Half-open after cooldown: admits, and one failure re-opens.
	later := now.Add(2 * time.Minute)
	if ok, _ := b.allow(later); !ok {
		t.Fatal("breaker still open after cooldown")
	}
	b.onFailure(later)
	if ok, _ := b.allow(later); ok {
		t.Fatal("half-open breaker did not re-open on failure")
	}
	// Success closes it fully.
	b.onSuccess()
	if ok, _ := b.allow(later); !ok {
		t.Fatal("breaker open after success")
	}
	b.onFailure(later)
	if ok, _ := b.allow(later); !ok {
		t.Fatal("single failure after close re-opened the breaker")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := breaker{}
	now := time.Now()
	for i := 0; i < 100; i++ {
		b.onFailure(now)
	}
	if ok, _ := b.allow(now); !ok {
		t.Fatal("disabled breaker opened")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	jn, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := &JobSpec{Circuit: "qubits 1\nh 0\n", Priority: "normal", Shots: 3}
	st := &JobStatus{ID: "j00000001", State: StateQueued, Client: "anon", Priority: "normal", NQubits: 1, Gates: 1}
	if err := jn.appendJob(spec, st); err != nil {
		t.Fatal(err)
	}
	st.State = StateDone
	if err := jn.saveState(st); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := jn.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v", skipped)
	}
	if len(entries) != 1 || entries[0].Status.State != StateDone || entries[0].Spec.Shots != 3 {
		t.Fatalf("round trip: %+v", entries)
	}
	next, err := jn.nextID()
	if err != nil {
		t.Fatal(err)
	}
	if next != 2 {
		t.Fatalf("nextID = %d, want 2", next)
	}
}

func TestJournalQuarantinesDamage(t *testing.T) {
	dir := t.TempDir()
	jn, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := &JobStatus{ID: "j00000001", State: StateQueued, Client: "anon"}
	if err := jn.appendJob(&JobSpec{Circuit: "qubits 1\nh 0\n"}, good); err != nil {
		t.Fatal(err)
	}
	bad := &JobStatus{ID: "j00000002", State: StateQueued, Client: "anon"}
	if err := jn.appendJob(&JobSpec{Circuit: "qubits 1\nh 0\n"}, bad); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jn.statePath("j00000002"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := jn.load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Status.ID != "j00000001" {
		t.Fatalf("entries = %+v, want only the intact job", entries)
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped = %v, want one quarantined entry", skipped)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "j00000002.damaged")); err != nil {
		t.Fatalf("damaged dir not renamed aside: %v", err)
	}
	// IDs are never reused, even for quarantined jobs.
	next, err := jn.nextID()
	if err != nil {
		t.Fatal(err)
	}
	if next != 3 {
		t.Fatalf("nextID = %d, want 3", next)
	}
}

func TestStatusForKindMapping(t *testing.T) {
	want := map[string]int{
		"deadline":         504,
		"budget":           507,
		"canceled":         499,
		"corruption":       500,
		"checkpoint-write": 500,
		"panic":            500,
		"injected":         500,
		"anything-else":    500,
	}
	for kind, status := range want {
		if got := statusForKind(kind); got != status {
			t.Errorf("statusForKind(%q) = %d, want %d", kind, got, status)
		}
	}
}

func TestClientLabelCardinalityCap(t *testing.T) {
	m := newServeMetrics(nil)
	for i := 0; i < maxClientLabels; i++ {
		m.clientLabel(strings.Repeat("c", i+1))
	}
	if got := m.clientLabel("one-more"); got != "other" {
		t.Fatalf("overflow client labelled %q, want other", got)
	}
	// Existing mappings stay stable.
	if got := m.clientLabel("c"); got != "c" {
		t.Fatalf("known client remapped to %q", got)
	}
	if got := m.clientLabel(""); got != "other" {
		// "" maps to anon which is now over the cap; either way it must
		// not grow unbounded. Accept "other" here.
		t.Logf("anon over cap folded to %q", got)
	}
	if got := newServeMetrics(nil).clientLabel("weird client/id!"); got != "weird_client_id_" {
		t.Fatalf("sanitised label = %q", got)
	}
}

func TestStrategyForSpellsCanonicalNames(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{}, "sequential"},
		{JobSpec{Strategy: "k-operations"}, "k-operations(k=4)"},
		{JobSpec{Strategy: "k-operations", K: 7}, "k-operations(k=7)"},
		{JobSpec{Strategy: "max-size", SMax: 64}, "max-size(s=64)"},
		{JobSpec{Strategy: "planner"}, "planner"},
		{JobSpec{Strategy: "combine-all"}, "combine-all"},
	}
	for _, c := range cases {
		st, err := StrategyFor(&c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if st.Name() != c.want {
			t.Errorf("StrategyFor(%+v).Name() = %q, want %q", c.spec, st.Name(), c.want)
		}
	}
}
