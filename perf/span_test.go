package perf

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// nested: 1 holds 2, which holds 3
		{ID: 2, Parent: 1, Name: "core.run", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "core.apply", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "dd.gc", Start: 65, End: 80},
		// overrunning child: only [90,100) lies inside its parent
		{ID: 5, Parent: 1, Name: "core.apply", Start: 90, End: 130},
		// a child entirely outside its parent covers nothing
		{ID: 6, Parent: 3, Name: "dd.gc", Start: 40, End: 45},
	}
	got := SelfTimes(spans)
	// op: 100 - union([10,60), [65,80), [90,100)) = 100 - 75
	want := []int64{25, 40, 10, 15, 40, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSelfTimesOverlap(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 40, End: 45},
		{ID: 5, Parent: 1, Name: "d", Start: -20, End: 5},
	}
	if got := SelfTimes(spans)[0]; got != 100-50-5 {
		t.Fatalf("op self time %d, want %d", got, 100-50-5)
	}
}

func TestSpansRoundTrip(t *testing.T) {
	rec := &Recorder{}
	op := rec.Begin("op", "grover_16/k4/0", 0)
	sub := rec.Begin("serve.submit", "grover_16/k4/0", op)
	rec.End(sub)
	rec.End(op)
	spans := map[string][]Span{"eq2_combine": rec.Spans()}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("round trip gave %+v, want %+v", got, spans)
	}
	if s := spans["eq2_combine"]; s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Fatalf("submit span %+v does not nest in %+v", s[1], s[0])
	}
}
