package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindRunStart; k <= KindRunEnd; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Errorf("round-trip %v -> %s -> %v", k, b, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatal("new ring not empty")
	}
	r.Emit(Event{Seq: 1})
	r.Emit(Event{Seq: 2})
	if got := r.Events(); len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("partial ring: %+v", got)
	}
	r.Emit(Event{Seq: 3})
	r.Emit(Event{Seq: 4})
	r.Emit(Event{Seq: 5})
	got := r.Events()
	if r.Len() != 3 || len(got) != 3 {
		t.Fatalf("full ring len %d, events %d", r.Len(), len(got))
	}
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Seq != want {
			t.Errorf("events[%d].Seq = %d, want %d (oldest first)", i, got[i].Seq, want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	want := Event{
		Seq: 7, Kind: KindStep, TimeUnixNano: 12345, Gate: 3,
		WallNS: 1e6, Combined: 2, OpNodes: 5, StateNodes: 9,
		VLive: 11, MLive: 13, FromBlock: true, Block: "grover-iter",
		EngineCounters: EngineCounters{MatVecMuls: 1, CacheLookups: 20, CacheHits: 15, NodesCreated: 4},
	}
	s.Emit(want)
	s.Emit(Event{Seq: 8, Kind: KindRunEnd, Abort: "deadline"})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var got Event
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if got != want {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	var end Event
	if err := json.Unmarshal([]byte(lines[1]), &end); err != nil {
		t.Fatal(err)
	}
	if end.Kind != KindRunEnd || end.Abort != "deadline" {
		t.Errorf("run_end event corrupted: %+v", end)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, bufio.ErrBufferFull }

func TestJSONLStickyError(t *testing.T) {
	s := NewJSONL(failWriter{})
	for i := 0; i < 10000; i++ { // enough to overflow the buffer
		s.Emit(Event{Seq: uint64(i), Kind: KindStep})
	}
	if s.Flush() == nil || s.Err() == nil {
		t.Error("expected sticky write error")
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Millisecond)
	base := time.Now()
	p.Emit(Event{Kind: KindRunStart, Circuit: "grover_8", TotalGates: 100, TimeUnixNano: base.UnixNano()})
	for i := 1; i <= 3; i++ {
		p.Emit(Event{Kind: KindStep, Gate: i, StateNodes: 10 * i, VLive: 20,
			EngineCounters: EngineCounters{CacheLookups: 10, CacheHits: 9},
			TimeUnixNano:   base.Add(time.Duration(i) * 10 * time.Millisecond).UnixNano()})
	}
	p.Emit(Event{Kind: KindPressure, Gate: 3, Rung: 2, Action: "replay", Level: "critical"})
	p.Emit(Event{Kind: KindRunEnd, Gate: 100, WallNS: 2e9, PeakNodes: 500, Degradations: 1})
	out := buf.String()
	for _, want := range []string{"grover_8", "100 gates", "90.0%", "done — 100/100", "degradations 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	// Zero-lookup runs must not render a 0% hit rate.
	buf.Reset()
	p = NewProgress(&buf, time.Millisecond)
	p.Emit(Event{Kind: KindRunStart, TotalGates: 1, TimeUnixNano: base.UnixNano()})
	p.Emit(Event{Kind: KindStep, Gate: 1, TimeUnixNano: base.Add(time.Hour).UnixNano()})
	if !strings.Contains(buf.String(), "cache -") {
		t.Errorf("zero-lookup progress should render '-': %s", buf.String())
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := MultiSink{a, b}
	m.Emit(Event{Seq: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Error("multisink did not fan out")
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dd_steps_total", "steps")
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Errorf("counter = %d, want 6", c.Value())
	}
	if r.Counter("dd_steps_total", "steps") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("dd_live_nodes", "live")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Errorf("gauge = %d, want 40", g.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch should panic")
		}
	}()
	r.Gauge("dd_steps_total", "oops")
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5056.5) > 1e-9 {
		t.Errorf("sum = %g", got)
	}
	// cumulative: <=1: 2, <=10: 3, <=100: 4, +Inf: 5
	r := NewRegistry()
	rh := r.Histogram("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 5000} {
		rh.Observe(v)
	}
	snap := r.Snapshot()[0]
	wantCum := []uint64{2, 3, 4, 5}
	if len(snap.Buckets) != 4 {
		t.Fatalf("buckets = %d, want 4", len(snap.Buckets))
	}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %s = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
	if snap.Buckets[3].LE != "+Inf" {
		t.Errorf("last bucket le = %q", snap.Buckets[3].LE)
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 1.6e-5, 6.4e-5}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("dd_steps_total", "Applied operations.").Add(3)
	r.Histogram("dd_step_seconds", "Step latency.", []float64{0.001, 0.01}).Observe(0.005)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics) != 2 || doc.Metrics[0].Name != "dd_steps_total" || doc.Metrics[0].Value != 3 {
		t.Errorf("unexpected snapshot: %+v", doc.Metrics)
	}
	if doc.Metrics[1].Count != 1 || len(doc.Metrics[1].Buckets) != 3 {
		t.Errorf("histogram snapshot: %+v", doc.Metrics[1])
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dd_steps_total", "Applied operations.").Add(3)
	r.Gauge("dd_live_nodes", "Live nodes.").Set(17)
	h := r.Histogram("dd_step_seconds", "Step latency.", []float64{0.001, 0.01})
	h.Observe(0.005)
	h.Observe(2)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dd_steps_total counter",
		"dd_steps_total 3",
		"# TYPE dd_live_nodes gauge",
		"dd_live_nodes 17",
		"# TYPE dd_step_seconds histogram",
		`dd_step_seconds_bucket{le="0.001"} 0`,
		`dd_step_seconds_bucket{le="0.01"} 1`,
		`dd_step_seconds_bucket{le="+Inf"} 2`,
		"dd_step_seconds_sum 2.005",
		"dd_step_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestLabel(t *testing.T) {
	if got := Label("jobs_total"); got != "jobs_total" {
		t.Fatalf("no labels: %q", got)
	}
	if got := Label("jobs_total", "worker", "3"); got != `jobs_total{worker="3"}` {
		t.Fatalf("one label: %q", got)
	}
	if got := Label("jobs_total", "worker", "3", "kind", "grover"); got != `jobs_total{worker="3",kind="grover"}` {
		t.Fatalf("two labels: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd kv count did not panic")
		}
	}()
	Label("jobs_total", "worker")
}

func TestWritePrometheusLabelledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("pool_jobs_total", "worker", "0"), "Jobs per worker.").Add(2)
	r.Counter(Label("pool_jobs_total", "worker", "1"), "Jobs per worker.").Add(5)
	h := r.Histogram(Label("pool_wait_seconds", "worker", "0"), "Wait per worker.", []float64{1})
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pool_jobs_total counter",
		`pool_jobs_total{worker="0"} 2`,
		`pool_jobs_total{worker="1"} 5`,
		"# TYPE pool_wait_seconds histogram",
		`pool_wait_seconds_bucket{worker="0",le="1"} 1`,
		`pool_wait_seconds_bucket{worker="0",le="+Inf"} 1`,
		`pool_wait_seconds_sum{worker="0"} 0.5`,
		`pool_wait_seconds_count{worker="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labelled prometheus output missing %q:\n%s", want, out)
		}
	}
	// One header per family, not per series.
	if got := strings.Count(out, "# TYPE pool_jobs_total counter"); got != 1 {
		t.Errorf("family header repeated %d times:\n%s", got, out)
	}
}

func TestSyncSinkSerialisesEmitters(t *testing.T) {
	ring := NewRing(1024) // not goroutine-safe on its own
	sink := NewSyncSink(ring)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Emit(Event{Kind: KindRunEnd})
			}
		}()
	}
	wg.Wait()
	if got := len(ring.Events()); got != 800 {
		t.Fatalf("ring holds %d events, want 800", got)
	}
}

func TestSyncSinkNil(t *testing.T) {
	NewSyncSink(nil).Emit(Event{Kind: KindRunEnd}) // must not panic
}

// TestRegistryConcurrentRegistration: batch workers open their run
// metrics simultaneously; every goroutine must get the same instrument
// (this raced before instrument creation moved under the registry
// lock — the nil-check-then-create ran outside it).
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	counters := make([]*Counter, goroutines)
	hists := make([]*Histogram, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counters[g] = r.Counter("shared_total", "shared counter")
			counters[g].Inc()
			hists[g] = r.Histogram("shared_seconds", "shared histogram", ExponentialBuckets(1e-6, 4, 4))
			hists[g].Observe(0.5)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if counters[g] != counters[0] || hists[g] != hists[0] {
			t.Fatalf("goroutine %d got a different instrument", g)
		}
	}
	if got := counters[0].Value(); got != goroutines {
		t.Fatalf("counter %d, want %d", got, goroutines)
	}
}
