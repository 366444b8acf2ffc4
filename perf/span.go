package perf

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span is one timed interval of the traced pass. Spans of one op share
// Run; Parent is the ID of the span that caused this one (0 = root).
// Times are wall-clock nanoseconds, the clock obs events are stamped
// with.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the benchmark writes them out.
// It is safe for concurrent use (serve_jobs records from two clients).
// A nil *Recorder records nothing, so untraced passes share the code.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

func (r *Recorder) add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Begin opens a span starting now and returns its ID.
func (r *Recorder) Begin(name, run string, parent int) int {
	if r == nil {
		return 0
	}
	return r.add(Span{Name: name, Run: run, Parent: parent, Start: time.Now().UnixNano()})
}

// End closes span id now.
func (r *Recorder) End(id int) {
	if r != nil {
		r.endAt(id, time.Now().UnixNano())
	}
}

func (r *Recorder) endAt(id int, t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// coreSink turns the event stream of core runs into spans under one op
// span: run_start/run_end become core.run, each step becomes a
// core.apply span covering [t-WallNS, t], each gc a dd.gc span covering
// its pause. It also tracks the largest state DD the steps report.
type coreSink struct {
	rec       *Recorder
	run       string
	parent    int
	open      int // the open core.run span, 0 between runs
	peakState int
}

// Emit implements obs.Sink.
func (s *coreSink) Emit(e obs.Event) {
	t := e.TimeUnixNano
	switch e.Kind {
	case obs.KindRunStart:
		s.open = s.rec.add(Span{Name: "core.run", Run: s.run, Parent: s.parent, Start: t})
	case obs.KindStep:
		s.peakState = max(s.peakState, e.StateNodes)
		s.rec.add(Span{Name: "core.apply", Run: s.run, Parent: s.current(), Start: t - e.WallNS, End: t})
	case obs.KindGC:
		s.rec.add(Span{Name: "dd.gc", Run: s.run, Parent: s.current(), Start: t - e.GCPauseNS, End: t})
	case obs.KindRunEnd:
		if s.open != 0 {
			s.rec.endAt(s.open, t)
			s.open = 0
		}
	}
}

func (s *coreSink) current() int {
	if s.open != 0 {
		return s.open
	}
	return s.parent
}

// SelfTimes returns each span's self time in nanoseconds, index-aligned
// with spans: its duration minus the part of it its children cover.
// Overlapping children count once; children reaching outside their
// parent count only inside it.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = selfTime(s, children[s.ID])
	}
	return out
}

func selfTime(s Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	covered += curHi - curLo
	return s.End - s.Start - covered
}
