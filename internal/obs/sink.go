package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink consumes the event stream of a run. Emit is called
// synchronously from the simulation goroutine, so implementations must
// be cheap; anything expensive (disk flushes, rendering) should be
// buffered or throttled. Sinks need not be safe for concurrent use —
// a run emits from a single goroutine.
type Sink interface {
	Emit(Event)
}

// MultiSink fans every event out to each sink in order.
type MultiSink []Sink

// Emit forwards e to every sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// --- SyncSink -----------------------------------------------------------

// SyncSink makes any sink safe for concurrent emitters by serialising
// Emit calls behind a mutex. The parallel batch runtime wraps shared
// sinks (a Progress feed, a JSONL file) in one SyncSink so events from
// concurrently running jobs interleave whole, not torn — note the
// event *streams* of different jobs still interleave, so stateful
// renderers see steps of several runs mixed together.
type SyncSink struct {
	mu sync.Mutex
	s  Sink
}

// NewSyncSink wraps s; a nil s yields a sink that drops everything.
func NewSyncSink(s Sink) *SyncSink { return &SyncSink{s: s} }

// Emit forwards e to the wrapped sink under the lock.
func (s *SyncSink) Emit(e Event) {
	if s.s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.s.Emit(e)
}

// --- Ring ---------------------------------------------------------------

// Ring is a fixed-capacity in-memory sink keeping the most recent
// events. It is the default way to hold a bounded trace of a long run
// without unbounded growth.
type Ring struct {
	buf  []Event
	next int
	full bool
}

// NewRing returns a ring buffer holding the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit records e, evicting the oldest event when full.
func (r *Ring) Emit(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len reports the number of retained events.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// --- JSONL --------------------------------------------------------------

// JSONL streams events as one JSON object per line. Writes are
// buffered; call Flush (or check Err) when the run is done. The first
// write error is sticky and suppresses all further output.
type JSONL struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit appends e as one JSON line.
func (s *JSONL) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONL) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONL) Err() error { return s.err }

// --- Progress -----------------------------------------------------------

// Progress renders a throttled, human-readable feed of a run: a line
// on run start, at most one step line per interval, and unconditional
// lines for aborts and run end.
type Progress struct {
	w        io.Writer
	interval time.Duration
	last     time.Time
	total    int
	// cumulative cache traffic over the run, from step deltas
	lookups, hits uint64
	gcs           uint64
}

// NewProgress returns a progress sink writing to w, printing step
// updates at most every interval (default 500ms when interval <= 0).
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	return &Progress{w: w, interval: interval}
}

// Emit renders e if due.
func (p *Progress) Emit(e Event) {
	switch e.Kind {
	case KindRunStart:
		p.total = e.TotalGates
		p.lookups, p.hits, p.gcs = 0, 0, 0
		fmt.Fprintf(p.w, "progress: %s — %d gates\n", e.Circuit, e.TotalGates)
	case KindStep:
		p.lookups += e.CacheLookups
		p.hits += e.CacheHits
		p.gcs += e.GCs
		now := e.Time()
		if now.Sub(p.last) < p.interval {
			return
		}
		p.last = now
		fmt.Fprintf(p.w, "progress: gate %d/%d  state %d nodes  live %d  cache %s  gc %d\n",
			e.Gate, p.total, e.StateNodes, e.VLive+e.MLive, p.rate(), p.gcs)
	case KindAbort:
		fmt.Fprintf(p.w, "progress: aborted (%s) at gate %d/%d\n", e.Abort, e.Gate, p.total)
	case KindRunEnd:
		status := "done"
		if e.Abort != "" {
			status = "aborted (" + e.Abort + ")"
		}
		fmt.Fprintf(p.w, "progress: %s — %d/%d gates in %s (degradations %d, peak %d nodes)\n",
			status, e.Gate, p.total, e.Wall().Round(time.Millisecond), e.Degradations, e.PeakNodes)
	}
}

// rate formats the cumulative cache hit rate, "-" before any lookup.
func (p *Progress) rate() string {
	if p.lookups == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(p.hits)/float64(p.lookups))
}
