package perf

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// counterRounds is how many leading rounds of a pass the counters
// cover. Both passes always run at least this many (unless Rounds asks
// for fewer), so two runs of one seed report the same counts however
// many rounds their clocks allowed.
const counterRounds = 4

// pool is how many instances of a seeded class a workload builds;
// round r uses instance r % pool. A run then averages over several
// inputs, which keeps its medians steady from seed to seed.
const pool = 4

// class is one kind of op in a round.
type class struct {
	name string
	// layer names the per-layer metric the op span's own time is
	// charged to: the shor work outside core.Run. Ops that are one
	// core.Run leave it empty; their split comes from core's events.
	layer string
	// run performs the op — the timed part — and returns the untimed
	// follow-up that checks the answer and reads the op's counters.
	run func(sink obs.Sink) (func() (Counters, error), error)
}

// passStats is what one pass over the rounds measured.
type passStats struct {
	rounds, ops int
	timed       time.Duration // summed op wall time
	counters    Counters      // first counterRounds rounds
	peakState   int           // largest state DD a traced step reported
	// per-round gates and op time, to compare passes on equal rounds
	roundGates []int
	roundTime  []time.Duration
	// opLayer maps a traced op span to its class's layer.
	opLayer map[int]string
}

// gatesPerSecond over the first n rounds.
func (p *passStats) gatesPerSecond(n int) float64 {
	g, t := 0, time.Duration(0)
	for r := 0; r < n && r < p.rounds; r++ {
		g += p.roundGates[r]
		t += p.roundTime[r]
	}
	return ratio(float64(g), t.Seconds())
}

// closedLoop measures an in-process workload: an untraced pass for the
// end-to-end metrics and counters, then, when tracing, a traced pass
// over about a quarter as many rounds for the per-layer times.
func closedLoop(cfg Config, round func(r int) []class, res *Result, layers map[string]float64) {
	un := runPass(cfg, round, untracedBudget(cfg), cfg.Rounds, nil, res)
	setE2E(res, un.timed, peakRSSMB())
	res.Counters = un.counters
	if !cfg.Trace {
		return
	}
	rec := &Recorder{}
	tr := runPass(cfg, round, 0, tracedRounds(un.rounds), rec, res)
	res.TracedCounters = &tr.counters
	res.Spans = rec.Spans()
	ops := float64(max(tr.ops, 1))
	self := SelfTimes(res.Spans)
	for i, s := range res.Spans {
		metric := spanLayers[s.Name]
		if s.Name == "op" {
			metric = tr.opLayer[s.ID]
		}
		if metric != "" {
			layers[metric] += float64(self[i]) / 1e6 / ops
		}
	}
	layers["dd.peak_state_nodes"] = float64(tr.peakState)
	layers["trace.overhead"] = ratio(un.gatesPerSecond(tr.rounds), tr.gatesPerSecond(tr.rounds)) - 1
}

// spanLayers maps the spans core's events become to the per-layer
// metric their self time feeds. core.run minus its steps and
// collections is gate-DD build, mat-mat absorption and strategy
// decisions.
var spanLayers = map[string]string{
	"core.apply": "core.apply_ms",
	"core.run":   "core.absorb_ms",
	"dd.gc":      "dd.gc_ms",
}

// untracedBudget is the seconds the untraced pass may take: all of
// cfg.Seconds, or four fifths of it when a traced pass follows, so that
// a traced run lasts about as long as an untraced one.
func untracedBudget(cfg Config) float64 {
	if cfg.Trace {
		return 0.8 * cfg.Seconds
	}
	return cfg.Seconds
}

// tracedRounds is the traced pass's length for an untraced pass of n
// rounds: a quarter, but never fewer rounds than the counters cover.
func tracedRounds(n int) int {
	return max(min(counterRounds, n), (n+3)/4)
}

// keepGoing reports whether a pass that began at start runs round r:
// exactly rounds rounds when that is positive, otherwise at least
// counterRounds and then while one more round of average length still
// fits in budget seconds.
func keepGoing(r, rounds int, budget float64, start time.Time) bool {
	if rounds > 0 {
		return r < rounds
	}
	if r < counterRounds {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(r) <= budget
}

// runPass runs whole rounds for as long as keepGoing allows. Each
// round's ops run in a seeded shuffle on a fresh engine, after an
// untimed collection that returns memory as a fresh process would.
// rec, when set, traces the pass.
func runPass(cfg Config, round func(r int) []class, budget float64, rounds int, rec *Recorder, res *Result) passStats {
	p := passStats{opLayer: map[int]string{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	for r := 0; keepGoing(r, rounds, budget, start); r++ {
		ops := round(r)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		p.roundGates = append(p.roundGates, 0)
		p.roundTime = append(p.roundTime, 0)
		for _, op := range ops {
			runtime.GC()
			debug.FreeOSMemory()
			s := Sample{Class: op.name, Round: r, Traced: rec != nil}
			if cfg.Progress != nil {
				cfg.Progress.Attempted.Add(1)
			}
			run := fmt.Sprintf("%s/%d", op.name, r)
			span := rec.Begin("op", run, 0)
			cs := &coreSink{rec: rec, run: run, parent: span}
			var sink obs.Sink
			if rec != nil {
				p.opLayer[span] = op.layer
				sink = cs
			}
			t0 := time.Now()
			finish, err := op.run(sink)
			dt := time.Since(t0)
			rec.End(span)
			p.peakState = max(p.peakState, cs.peakState)
			s.MS = millis(dt)
			var c Counters
			if err == nil {
				c, err = finish()
			}
			if err != nil {
				res.fail("%s round %d: %v", op.name, r, err)
				if cfg.Progress != nil {
					cfg.Progress.Failed.Add(1)
				}
			} else {
				s.OK = true
				s.Gates = c.Gates
			}
			if r < counterRounds {
				p.counters.add(c)
			}
			p.ops++
			p.timed += dt
			p.roundGates[r] += s.Gates
			p.roundTime[r] += dt
			res.Samples = append(res.Samples, s)
		}
		p.rounds = r + 1
	}
	return p
}
