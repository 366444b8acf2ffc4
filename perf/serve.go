package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/dense"
	"repro/internal/grover"
	"repro/internal/serve"
	"repro/internal/supremacy"
)

// serveClients is both the client count and the server's worker count,
// sized to a 2-CPU machine: the load generator holds no more
// connections than there are CPUs.
const serveClients = 2

// pollEvery is how often a client polls a job's result.
const pollEvery = 2 * time.Millisecond

// serveTFIMSteps keeps the served TFIM job short; its soft budget
// lowers the GC threshold to 75k, so it still collects and degrades.
const serveTFIMSteps = 16

// job is one served job class.
type job struct {
	class string
	gates int
	spec  serve.JobSpec
}

type serveJobs struct {
	jobs []job
	dir  string
	srv  *serve.Server
	hs   *http.Server
	done chan error // hs.Serve's return
	url  string
	cl   *http.Client
}

func newServeJobs(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	g := grover.Circuit(14, uint64(rng.Int63n(1<<14)), 0)
	sup := supremacy.Circuit(4, 4, 14, seed)
	tf, err := tfimChain.TrotterCircuit(1, serveTFIMSteps)
	if err != nil {
		return nil, err
	}
	planner := func(c *circuit.Circuit, shots int) serve.JobSpec {
		return serve.JobSpec{Circuit: c.String(), Strategy: "planner", Shots: shots, Seed: seed}
	}
	return &serveJobs{jobs: []job{
		{"grover_14/planner", len(g.Gates), planner(g, 256)},
		{"supremacy_d14/planner", len(sup.Gates), planner(sup, 0)},
		{"tfim_10/governed", len(tf.Gates), serve.JobSpec{Circuit: tf.String(), Strategy: "sequential",
			SoftBudget: 100_000, Degrade: "ladder", Seed: seed}},
	}}, nil
}

// start opens a fresh journal and serves it on loopback, returning once
// /healthz answers. close undoes as much as it got done.
func (w *serveJobs) start(cfg Config) error {
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.Scratch, "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.srv, err = serve.New(serve.Config{Dir: dir, Workers: serveClients}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.cl = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	w.hs = &http.Server{Handler: serve.Handler(w.srv)}
	w.done = make(chan error, 1)
	go func() { w.done <- w.hs.Serve(ln) }()
	resp, err := w.cl.Get(w.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("perf: /healthz answered %s", resp.Status)
	}
	return nil
}

// close stops whatever start got running and removes the journal.
func (w *serveJobs) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if w.hs != nil {
		err = w.hs.Shutdown(ctx)
		if serr := <-w.done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		w.cl.CloseIdleConnections()
	}
	if w.srv != nil {
		err = errors.Join(err, w.srv.Drain(ctx))
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
	}
	return err
}

// served is one finished job as a client saw it.
type served struct {
	Sample
	job     int // index into serveJobs.jobs
	id      string
	summary *serve.JobSummary
	err     error
}

// clientStats is what the clients of one pass measured.
type clientStats struct {
	jobs             []served
	wall             time.Duration
	submits, rejects int
	rounds           int // fewest rounds any client ran
}

// measure drives the server from serveClients closed-loop clients, then
// checks every job's persisted result against the dense simulator.
func (w *serveJobs) measure(cfg Config, ref instance, res *Result, layers map[string]float64) error {
	var want []*dense.State
	for _, j := range ref.(*serveJobs).jobs {
		// The reference is built from the job text as submitted: the
		// text format prints parameters with %g.
		c, err := circuit.ParseString(j.spec.Circuit)
		if err != nil {
			return err
		}
		want = append(want, dense.Simulate(c))
	}
	un := w.clients(cfg, untracedBudget(cfg), cfg.Rounds, nil)
	peak := peakRSSMB()
	w.record(cfg, un, false, want, res)
	setE2E(res, un.wall, peak)
	if !cfg.Trace {
		return nil
	}
	rec := &Recorder{}
	tr := w.clients(cfg, 0, tracedRounds(un.rounds), rec)
	w.record(cfg, tr, true, want, res)
	res.TracedCounters = &Counters{}
	for _, j := range tr.jobs {
		if j.Round < counterRounds && j.summary != nil {
			res.TracedCounters.add(summaryCounters(j))
		}
	}
	res.Spans = rec.Spans()
	var submit, run, overhead []float64
	for _, j := range tr.jobs {
		if j.err == nil {
			submit = append(submit, j.SubmitMS)
			run = append(run, j.RunMS)
			overhead = append(overhead, j.MS-j.RunMS)
		}
	}
	layers["serve.submit_ms"] = percentile(submit, 0.5)
	layers["serve.run_ms"] = percentile(run, 0.5)
	layers["serve.overhead_ms"] = percentile(overhead, 0.5)
	layers["serve.submissions"] = float64(un.submits)
	layers["serve.rejected"] = float64(un.rejects)
	layers["trace.overhead"] = ratio(gatesPerWall(un), gatesPerWall(tr)) - 1
	return nil
}

func gatesPerWall(s clientStats) float64 {
	g := 0
	for _, j := range s.jobs {
		g += j.Gates
	}
	return ratio(float64(g), s.wall.Seconds())
}

func summaryCounters(j served) Counters {
	return Counters{
		Ops:          1,
		Gates:        j.Gates,
		Degradations: j.summary.Degradations,
		MatVecMuls:   uint64(j.summary.MatVecSteps),
		MatMatMuls:   uint64(j.summary.MatMatSteps),
	}
}

// record checks each job's result file and adds the jobs to res.
func (w *serveJobs) record(cfg Config, s clientStats, traced bool, want []*dense.State, res *Result) {
	for _, j := range s.jobs {
		if j.err == nil {
			if j.err = w.checkResult(j.id, want[j.job]); j.err != nil && cfg.Progress != nil {
				cfg.Progress.Failed.Add(1)
			}
		}
		if j.err != nil {
			res.fail("%s round %d client %d: %v", j.Class, j.Round, j.Client, j.err)
		}
		j.Traced = traced
		j.OK = j.err == nil
		if !traced && j.Round < counterRounds && j.summary != nil {
			res.Counters.add(summaryCounters(j))
		}
		res.Samples = append(res.Samples, j.Sample)
	}
}

// checkResult loads a job's persisted final state and compares it with
// the dense reference.
func (w *serveJobs) checkResult(id string, want *dense.State) error {
	ck, err := core.LoadCheckpoint(filepath.Join(w.dir, "jobs", id, "result.bin"), dd.New())
	if err != nil {
		return err
	}
	return checkFidelity(ck.State, want)
}

// clients runs the closed-loop clients for whole rounds, each for as
// long as keepGoing allows. Each client submits one job at a time in a
// seeded shuffle of the classes and polls until it settles.
func (w *serveJobs) clients(cfg Config, budget float64, rounds int, rec *Recorder) clientStats {
	var (
		mu  sync.Mutex
		out = clientStats{rounds: -1}
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			var jobs []served
			submits, rejects, r := 0, 0, 0
			for ; keepGoing(r, rounds, budget, start); r++ {
				for _, i := range rng.Perm(len(w.jobs)) {
					j, rejected := w.submit(cfg, c, r, i, rec)
					submits++
					if rejected {
						rejects++
					}
					jobs = append(jobs, j)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.jobs = append(out.jobs, jobs...)
			out.submits += submits
			out.rejects += rejects
			if out.rounds < 0 || r < out.rounds {
				out.rounds = r
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// submit runs one job through the HTTP API and waits for it to settle.
// rejected reports a 429 or 503 answer to the submission.
func (w *serveJobs) submit(cfg Config, client, round, index int, rec *Recorder) (j served, rejected bool) {
	jb := w.jobs[index]
	j = served{Sample: Sample{Class: jb.class, Round: round, Client: client}, job: index}
	if cfg.Progress != nil {
		cfg.Progress.Attempted.Add(1)
	}
	run := fmt.Sprintf("%s/%d/c%d", jb.class, round, client)
	op := rec.Begin("op", run, 0)
	start := time.Now()
	rejected, j.err = w.settle(&j, jb.spec, client, rec, run, op)
	j.MS = millis(time.Since(start))
	rec.End(op)
	if j.err != nil {
		if cfg.Progress != nil {
			cfg.Progress.Failed.Add(1)
		}
		return j, rejected
	}
	j.Gates = jb.gates
	return j, false
}

// settle submits spec as client and polls the job's result until it
// settles, recording the POST round trip and the job summary in j.
func (w *serveJobs) settle(j *served, spec serve.JobSpec, client int, rec *Recorder, run string, op int) (rejected bool, err error) {
	spec.Client = fmt.Sprintf("c%d", client)
	body, err := json.Marshal(spec)
	if err != nil {
		return false, err
	}
	sub := rec.Begin("serve.submit", run, op)
	t0 := time.Now()
	var st serve.JobStatus
	code, err := w.call(http.MethodPost, "/v1/jobs", body, &st)
	j.SubmitMS = millis(time.Since(t0))
	rec.End(sub)
	if err != nil {
		return false, err
	}
	if code != http.StatusAccepted {
		return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable,
			fmt.Errorf("submit answered %d", code)
	}
	j.id = st.ID
	defer rec.End(rec.Begin("serve.wait", run, op))
	for {
		time.Sleep(pollEvery)
		code, err := w.call(http.MethodGet, "/v1/jobs/"+j.id+"/result", nil, &st)
		switch {
		case err != nil:
			return false, err
		case code == http.StatusAccepted:
			continue
		case code != http.StatusOK:
			return false, fmt.Errorf("result answered %d (%s: %s)", code, st.ErrorKind, st.Error)
		case st.Summary == nil:
			return false, errors.New("job done without a summary")
		}
		j.summary = st.Summary
		j.RunMS = float64(st.Summary.DurationMS)
		return false, nil
	}
}

// call sends one request and decodes a JSON answer into v.
func (w *serveJobs) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s %s answer: %w", method, path, err)
	}
	return resp.StatusCode, nil
}
