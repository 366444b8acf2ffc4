package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dd"
	"repro/internal/obs"
	"repro/internal/serve/retry"
)

// Config configures a Server. The zero value of every field selects a
// sensible default; only Dir is required.
type Config struct {
	// Dir is the journal root (required). A server restarted against
	// the same Dir recovers every non-terminal job.
	Dir string
	// Workers is the simulation worker count (default GOMAXPROCS).
	Workers int
	// Queue bounds the number of admitted-but-not-running jobs
	// (default 256). Beyond it, submissions get 429 + Retry-After.
	Queue int
	// MaxNodes is the server-wide node budget, split evenly across
	// workers (MaxNodes/Workers each, at least 1); a job's own MaxNodes
	// can tighten but never exceed its share. Zero means unlimited.
	MaxNodes int
	// CheckpointEvery is the periodic checkpoint interval in applied
	// gates (default 256; negative disables periodic checkpoints —
	// abort checkpoints still happen).
	CheckpointEvery int
	// Retry is the backoff policy for retryable failures (see
	// retry.Policy for the defaults: 100ms base, ×2, 30s cap, half
	// jitter, 4 attempts).
	Retry retry.Policy
	// PressureWindow is how long a running job must stay at high (or
	// worse) governor pressure before the server sheds load: /readyz
	// flips to 503 and submissions are refused with Retry-After
	// (default 2s; negative disables shedding). Critical pressure also
	// parks the lowest-priority running job regardless of the window.
	PressureWindow time.Duration
	// PerClientActive caps one client's non-terminal jobs
	// (default Queue/4, minimum 1; negative disables the quota).
	PerClientActive int
	// BreakerThreshold is the consecutive terminal-failure count that
	// opens a client's circuit breaker (default 5; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects (default 30s).
	BreakerCooldown time.Duration
	// Caps bounds job submissions (see Caps).
	Caps Caps
	// Registry receives the server's metrics (default: a fresh one).
	Registry *obs.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	switch {
	case c.PerClientActive == 0:
		c.PerClientActive = max(1, c.Queue/4)
	case c.PerClientActive < 0:
		c.PerClientActive = 0
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 5
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	switch {
	case c.PressureWindow == 0:
		c.PressureWindow = 2 * time.Second
	case c.PressureWindow < 0:
		c.PressureWindow = 0
	}
	c.Caps = c.Caps.withDefaults()
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the ddserve daemon core: admission control, the journal,
// the worker pool, and the retry scheduler. HTTP lives in Handler.
type Server struct {
	cfg  Config
	jn   *journal
	pool *batch.Pool
	met  *serveMetrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	clients  map[string]*clientState
	timers   map[string]*time.Timer
	pressure map[string]pressureSample
	rng      *rand.Rand
	nextID   int
	draining bool
	killed   bool

	// armEngine, when set (by same-package tests), is called with each
	// attempt's fresh engine before the run starts — the hook chaos
	// tests use to inject faults into specific attempts.
	armEngine func(id string, attempt int, eng *dd.Engine)
	// afterCheckpoint, when set (by same-package tests), is called —
	// without s.mu held — after each periodic checkpoint becomes
	// durable. Crash and drain tests block in it to freeze a job at a
	// known resume point.
	afterCheckpoint func(id string, gate int)
}

type job struct {
	// spec and circ are what an attempt runs; a terminal job drops circ
	// and the spec's circuit text (dropCircuit), since status queries
	// never read them and job.json on disk keeps the spec.
	spec     JobSpec
	circ     *circuit.Circuit
	priority batch.Priority
	status   JobStatus
	// cancel interrupts the running attempt (nil while not running).
	cancel          context.CancelFunc
	cancelRequested bool
	// parkRequested marks a running job the server chose to park under
	// memory pressure: its context is cancelled, and the resulting
	// ErrCanceled is recorded as a parked (resumable) state, not a
	// failure.
	parkRequested bool
}

// pressureSample tracks one running job's governor pressure: the worst
// level its degradations have reported and since when the job has been
// at high or worse — the signal behind load shedding.
type pressureSample struct {
	level dd.PressureLevel
	since time.Time
}

type clientState struct {
	br     breaker
	active int // non-terminal jobs (queued, running, retry-pending)
}

// New opens (or creates) the journal under cfg.Dir, starts the worker
// pool, and re-admits every non-terminal journaled job — the recovery
// path that turns a kill -9 into a resumable event.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	jn, err := openJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		jn:       jn,
		met:      newServeMetrics(cfg.Registry),
		jobs:     make(map[string]*job),
		clients:  make(map[string]*clientState),
		timers:   make(map[string]*time.Timer),
		pressure: make(map[string]pressureSample),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.pool = batch.NewPool(batch.PoolOptions{
		Workers: cfg.Workers,
		Queue:   cfg.Queue,
		Metrics: cfg.Registry,
	})
	if s.nextID, err = jn.nextID(); err != nil {
		return nil, fmt.Errorf("serve: journal scan: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Registry }

// recover re-admits journaled jobs. Terminal jobs are loaded for
// status queries only; everything else goes back on the queue, to
// resume from its last durable checkpoint. s.mu is held across the
// loop: a requeued job may already run on a pool worker while later
// entries are still being added to s.jobs.
func (s *Server) recover() error {
	entries, skipped, err := s.jn.load()
	if err != nil {
		return err
	}
	for _, msg := range skipped {
		s.cfg.Logf("serve: quarantined damaged journal entry %s", msg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		e := e
		j := &job{spec: e.Spec, status: e.Status, priority: priorityFor(e.Spec.Priority)}
		s.jobs[e.Status.ID] = j
		s.order = append(s.order, e.Status.ID)
		if e.Status.State.Terminal() {
			j.dropCircuit()
			continue
		}
		circ, perr := parseSpecCircuit(&e.Spec)
		if perr == nil {
			_, perr = StrategyFor(&e.Spec)
		}
		if perr != nil {
			// The spec was valid at admission; failing to parse now means
			// the journal (or the code) changed under us — say, a job
			// journaled under a strategy since removed. Fail the job
			// terminally rather than crash-loop on it.
			j.status.State = StateFailed
			j.status.Error = fmt.Sprintf("recovery: %v", perr)
			j.status.ErrorKind = "error"
			s.persistTerminalLocked(j)
			s.met.jobsFailed.Inc()
			continue
		}
		j.circ = circ
		j.status.State = StateQueued
		j.status.RetryInMS = 0
		if serr := s.jn.saveState(&j.status); serr != nil {
			return fmt.Errorf("serve: journal %s: %w", j.status.ID, serr)
		}
		if rerr := s.pool.Requeue(s.taskFor(j.status.ID, j.priority)); rerr != nil {
			return fmt.Errorf("serve: requeue %s: %w", j.status.ID, rerr)
		}
		s.clientLocked(j.status.Client).active++
		s.met.recovered.Inc()
		s.cfg.Logf("serve: recovered %s (attempt %d, gate %d/%d)",
			j.status.ID, j.status.Attempt, j.status.Gate, j.status.Gates)
	}
	return nil
}

func priorityFor(p string) batch.Priority {
	switch p {
	case "high":
		return batch.PriorityHigh
	case "low":
		return batch.PriorityLow
	}
	return batch.PriorityNormal
}

func clientKey(c string) string {
	if c == "" {
		return "anon"
	}
	return c
}

// clientLocked returns (creating if needed) the client's state; the
// caller holds s.mu.
func (s *Server) clientLocked(client string) *clientState {
	cs := s.clients[client]
	if cs == nil {
		cs = &clientState{br: breaker{threshold: s.cfg.BreakerThreshold, cooldown: s.cfg.BreakerCooldown}}
		s.clients[client] = cs
	}
	return cs
}

// Submit admits a decoded job: journal first (the WAL write), then
// queue, then acknowledge. Returns the job's initial status, or a
// *RequestError when admission control refuses.
func (s *Server) Submit(spec *JobSpec, circ *circuit.Circuit) (*JobStatus, error) {
	strategy, serr := StrategyFor(spec)
	if serr != nil {
		// DecodeJobRequest already validated the spec; this guards
		// direct API callers.
		return nil, reqErr(400, "%v", serr)
	}
	now := time.Now()
	s.mu.Lock()
	if s.draining || s.killed {
		s.mu.Unlock()
		s.met.rejected("draining")
		return nil, &RequestError{Status: 503, Msg: "server is draining", RetryAfter: 10 * time.Second}
	}
	if s.pressuredLocked(now) {
		s.mu.Unlock()
		s.met.rejected("pressure")
		return nil, &RequestError{
			Status:     503,
			Msg:        "server is under sustained memory pressure",
			RetryAfter: s.cfg.PressureWindow,
		}
	}
	client := clientKey(spec.Client)
	cs := s.clientLocked(client)
	if ok, ra := cs.br.allow(now); !ok {
		s.mu.Unlock()
		s.met.rejected("breaker")
		return nil, &RequestError{
			Status:     503,
			Msg:        fmt.Sprintf("client %q circuit breaker open (consecutive failures)", client),
			RetryAfter: ra,
		}
	}
	if s.cfg.PerClientActive > 0 && cs.active >= s.cfg.PerClientActive {
		s.mu.Unlock()
		s.met.rejected("quota")
		return nil, &RequestError{
			Status:     429,
			Msg:        fmt.Sprintf("client %q has %d active jobs (limit %d)", client, cs.active, s.cfg.PerClientActive),
			RetryAfter: time.Second,
		}
	}
	if s.pool.Depth() >= s.pool.Capacity() {
		s.mu.Unlock()
		s.met.rejected("queue_full")
		return nil, &RequestError{Status: 429, Msg: "job queue is full", RetryAfter: time.Second}
	}

	id := formatJobID(s.nextID)
	s.nextID++
	j := &job{
		spec:     *spec,
		circ:     circ,
		priority: priorityFor(spec.Priority),
		status: JobStatus{
			ID:       id,
			State:    StateQueued,
			Client:   client,
			Priority: spec.Priority,
			NQubits:  circ.NQubits,
			Gates:    len(circ.Gates),
			Strategy: strategy.Name(),
		},
	}
	// WAL: the job is durable before the queue sees it and before the
	// client hears 202. A crash after this line re-admits the job.
	if err := s.jn.appendJob(&j.spec, &j.status); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	if err := s.pool.TrySubmit(s.taskFor(id, j.priority)); err != nil {
		// Roll the journal entry back: the job was never acknowledged.
		if rerr := s.jn.removeJob(id); rerr != nil {
			s.cfg.Logf("serve: rollback %s: %v", id, rerr)
		}
		s.mu.Unlock()
		if errors.Is(err, batch.ErrQueueFull) {
			s.met.rejected("queue_full")
			return nil, &RequestError{Status: 429, Msg: "job queue is full", RetryAfter: time.Second}
		}
		s.met.rejected("closed")
		return nil, &RequestError{Status: 503, Msg: "server is shutting down", RetryAfter: 10 * time.Second}
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	cs.active++
	st := j.status
	s.mu.Unlock()
	s.met.admitted(client)
	return &st, nil
}

// Status returns a copy of a job's record.
func (s *Server) Status(id string) (*JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, false
	}
	st := j.status
	if st.Summary != nil {
		sum := *st.Summary
		st.Summary = &sum
	}
	return &st, true
}

// List returns every job's status in admission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status)
	}
	return out
}

// Cancel requests a job stop. Queued and retry-pending jobs fail
// terminally at once; a running job's context is cancelled and the
// abort path records the terminal state. Terminal jobs are returned
// unchanged (cancel is idempotent).
func (s *Server) Cancel(id string) (*JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, false
	}
	if !j.status.State.Terminal() && !j.cancelRequested {
		j.cancelRequested = true
		switch {
		case j.cancel != nil:
			// Running: the abort path finishes the job.
			j.cancel()
		case s.timers[id] != nil:
			s.timers[id].Stop()
			delete(s.timers, id)
			s.met.retriesPending.Add(-1)
			s.finishCanceledLocked(j)
		default:
			// Queued: mark terminal now; the pool task no-ops on it.
			s.finishCanceledLocked(j)
		}
	}
	st := j.status
	return &st, true
}

// Ready reports whether the server accepts submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.killed
}

// Pressured reports whether some running job has been at high (or
// worse) governor pressure for at least Config.PressureWindow — the
// condition under which /readyz answers 503 and Submit sheds.
func (s *Server) Pressured() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pressuredLocked(time.Now())
}

// pressuredLocked is Pressured's body; the caller holds s.mu.
func (s *Server) pressuredLocked(now time.Time) bool {
	if s.cfg.PressureWindow <= 0 {
		return false
	}
	for _, ps := range s.pressure {
		if ps.level >= dd.PressureHigh && now.Sub(ps.since) >= s.cfg.PressureWindow {
			return true
		}
	}
	return false
}

// notePressure ingests one governor degradation from a running job
// (core.Options.OnPressure, called on the job's worker goroutine). It
// feeds the shedding signal, and at critical level parks the
// lowest-priority running job so the box sheds live nodes before any
// job hits its cliff.
func (s *Server) notePressure(id string, d core.Degradation) {
	lvl := pressureLevelFor(d.Level)
	now := time.Now()
	s.mu.Lock()
	if lvl >= dd.PressureHigh {
		ps, tracked := s.pressure[id]
		if !tracked {
			ps = pressureSample{since: now}
		}
		ps.level = lvl
		s.pressure[id] = ps
		s.met.pressureEvents.Inc()
	} else {
		// The governor's measures worked; the job is back below high.
		delete(s.pressure, id)
	}
	var victim *job
	if lvl >= dd.PressureCritical && !s.draining {
		victim = s.parkVictimLocked()
	}
	if victim != nil {
		victim.parkRequested = true
		s.cfg.Logf("serve: pressure from %s: parking %s (priority %s)",
			id, victim.status.ID, victim.priority)
	}
	cancel := context.CancelFunc(nil)
	if victim != nil {
		cancel = victim.cancel
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// parkVictimLocked picks the running job to park under critical
// pressure: the most parkable priority class (low, then normal, then
// high) and within it the newest admission — the one with the least
// sunk work. Returns nil when fewer than two jobs are running (parking
// the only running job would just idle the box). The caller holds s.mu.
func (s *Server) parkVictimLocked() *job {
	var victim *job
	rank := func(p batch.Priority) int {
		switch p {
		case batch.PriorityLow:
			return 0
		case batch.PriorityNormal:
			return 1
		}
		return 2
	}
	running := 0
	for i := len(s.order) - 1; i >= 0; i-- {
		j := s.jobs[s.order[i]]
		if j.cancel == nil || j.parkRequested || j.cancelRequested {
			continue
		}
		running++
		if victim == nil || rank(j.priority) < rank(victim.priority) {
			victim = j
		}
	}
	if running < 2 {
		return nil
	}
	return victim
}

// pressureLevelFor parses a journaled Degradation.Level back into the
// engine's ordered pressure bands.
func pressureLevelFor(level string) dd.PressureLevel {
	switch level {
	case "low":
		return dd.PressureLow
	case "high":
		return dd.PressureHigh
	case "critical":
		return dd.PressureCritical
	}
	return dd.PressureNone
}

// QueueDepth returns the number of queued (not running) jobs.
func (s *Server) QueueDepth() int { return s.pool.Depth() }

// Drain gracefully shuts the server down: admissions stop, pending
// retries are parked where they stand (their journal records already
// say queued), every running job's context is cancelled — which makes
// core write an abort checkpoint and return ErrCanceled, parking the
// job — and Drain waits for the workers, bounded by ctx.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already draining")
	}
	s.draining = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
		s.met.retriesPending.Add(-1)
	}
	for _, j := range s.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	_, err := s.pool.Drain(ctx)
	return err
}

// Kill simulates kill -9 in-process, for crash-recovery tests: journal
// writes stop (the disk freezes at its last durable state), running
// jobs' contexts are cancelled, and the pool is abandoned. The journal
// directory can then be re-opened by a fresh Server, which must
// recover every non-terminal job.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.draining = true
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.mu.Unlock()
	s.pool.Kill()
	s.pool.Wait()
}

func (s *Server) taskFor(id string, pri batch.Priority) batch.Task {
	return batch.Task{Priority: pri, Run: func(ctx context.Context, _ int) { s.runJob(ctx, id) }}
}

// budgetFor resolves a job's node budget: the server-wide MaxNodes
// split evenly across workers, so the workers' shares never sum past
// it, tightened by the job's own request but never loosened.
func (s *Server) budgetFor(spec *JobSpec) int {
	share := 0
	if s.cfg.MaxNodes > 0 {
		share = s.cfg.MaxNodes / s.cfg.Workers
		if share < 1 {
			share = 1
		}
	}
	if spec.MaxNodes > 0 && (share == 0 || spec.MaxNodes < share) {
		return spec.MaxNodes
	}
	return share
}

// runJob executes one attempt of a job on a pool worker.
func (s *Server) runJob(poolCtx context.Context, id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.status.State.Terminal() {
		s.mu.Unlock()
		return
	}
	if j.cancelRequested {
		s.finishCanceledLocked(j)
		s.mu.Unlock()
		return
	}
	j.status.State = StateRunning
	j.status.Attempt++
	j.status.RetryInMS = 0
	attempt := j.status.Attempt
	if err := s.jn.saveState(&j.status); err != nil {
		// The running record is advisory (recovery treats running and
		// queued identically); log and continue.
		s.cfg.Logf("serve: journal %s: %v", id, err)
	}
	jctx, cancel := context.WithCancel(poolCtx)
	j.cancel = cancel
	spec := j.spec
	circ := j.circ
	s.mu.Unlock()
	defer cancel()

	eng := dd.New()
	strategy, serr := StrategyFor(&spec)
	if serr != nil {
		s.finishJob(id, &spec, circ, nil, serr)
		return
	}
	opt := core.Options{
		Strategy:        strategy,
		UseBlocks:       spec.UseBlocks,
		MaxNodes:        s.budgetFor(&spec),
		Seed:            spec.Seed,
		Degrade:         spec.Degrade,
		Engine:          eng,
		CheckpointEvery: s.cfg.CheckpointEvery,
		OnCheckpoint: func(ck *core.Checkpoint) error {
			return s.saveJobCheckpoint(id, ck)
		},
	}
	if spec.TimeoutMS > 0 {
		opt.Deadline = time.Now().Add(time.Duration(spec.TimeoutMS) * time.Millisecond)
	}
	if spec.SoftBudget > 0 || spec.Degrade == "ladder" || spec.Degrade == "approx" {
		opt.SoftBudget = spec.SoftBudget
		if opt.MaxNodes > 0 && opt.SoftBudget > opt.MaxNodes {
			// The job's share shrank below its requested soft budget
			// (server-wide split); govern against the share instead.
			opt.SoftBudget = opt.MaxNodes
		}
		opt.ApproxNodes = spec.ApproxNodes
		opt.OnPressure = func(d core.Degradation) { s.notePressure(id, d) }
	}
	// Resume from the last durable checkpoint when one exists.
	if ck, lerr := core.LoadCheckpoint(s.jn.ckptPath(id), eng); lerr == nil {
		if ropt, rerr := core.ResumeOptions(opt, circ, ck); rerr == nil {
			opt = ropt
			s.cfg.Logf("serve: %s resuming at gate %d/%d (attempt %d)",
				id, ck.NextGate, len(circ.Gates), attempt)
		} else {
			s.cfg.Logf("serve: %s checkpoint unusable (%v); restarting from gate 0", id, rerr)
		}
	} else if !errors.Is(lerr, fs.ErrNotExist) {
		// A corrupt checkpoint is not fatal: restart the attempt from
		// scratch rather than fail a recoverable job.
		s.cfg.Logf("serve: %s checkpoint unreadable (%v); restarting from gate 0", id, lerr)
	}
	if s.armEngine != nil {
		s.armEngine(id, attempt, eng)
	}

	res, runErr := core.RunContext(jctx, circ, opt)
	s.finishJob(id, &spec, circ, res, runErr)
}

// saveJobCheckpoint persists a resume checkpoint and advances the
// journaled state to checkpointed. Under Kill the write is suppressed:
// the simulated dead process cannot touch the disk.
func (s *Server) saveJobCheckpoint(id string, ck *core.Checkpoint) error {
	s.mu.Lock()
	killed := s.killed
	s.mu.Unlock()
	if killed {
		return nil
	}
	if err := core.SaveCheckpoint(s.jn.ckptPath(id), ck); err != nil {
		return err
	}
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return nil
	}
	j := s.jobs[id]
	if j == nil || j.status.State.Terminal() {
		s.mu.Unlock()
		return nil
	}
	j.status.State = StateCheckpointed
	j.status.Gate = ck.NextGate
	err := s.jn.saveState(&j.status)
	hook := s.afterCheckpoint
	s.mu.Unlock()
	if err == nil && hook != nil {
		hook(id, ck.NextGate)
	}
	return err
}

// persistResult writes the final state as a DDCKPT2 file (result.bin)
// and builds the summary. It runs on the worker goroutine, outside the
// server lock, before the terminal record is journaled — so a crash
// between the two leaves a re-runnable job, never a "done" job with no
// result.
func (s *Server) persistResult(id string, spec *JobSpec, circ *circuit.Circuit, res *core.Result) (*JobSummary, error) {
	ck := &core.Checkpoint{
		CircuitName: circ.Name,
		NQubits:     circ.NQubits,
		NextGate:    res.GatesApplied,
		Seed:        spec.Seed,
		Fallbacks:   res.Replays(),
		State:       res.State,
	}
	if err := core.SaveCheckpoint(s.jn.resultPath(id), ck); err != nil {
		return nil, fmt.Errorf("%w: result: %w", core.ErrCheckpointWrite, err)
	}
	sum := &JobSummary{
		DurationMS:   res.Duration.Milliseconds(),
		MatVecSteps:  res.MatVecSteps,
		MatMatSteps:  res.MatMatSteps,
		StateNodes:   res.Engine.SizeV(res.State),
		Norm:         res.State.Norm(),
		Degradations: len(res.Degradations),
	}
	if res.FidelityBound > 0 && res.FidelityBound < 1 {
		sum.FidelityBound = res.FidelityBound
	}
	if spec.Shots > 0 {
		rng := rand.New(rand.NewSource(spec.Seed))
		sum.Samples = make(map[string]int)
		sampler := res.State.Sampler()
		for i := 0; i < spec.Shots; i++ {
			sum.Samples[fmt.Sprintf("%0*b", circ.NQubits, sampler.Draw(rng))]++
		}
	}
	return sum, nil
}

// finishJob records an attempt's outcome and decides what happens
// next: done, a scheduled retry, parked (drain), or failed. spec and
// circ are the attempt's own copies, taken when it started.
func (s *Server) finishJob(id string, spec *JobSpec, circ *circuit.Circuit, res *core.Result, runErr error) {
	var sum *JobSummary
	if runErr == nil {
		s.mu.Lock()
		killed := s.killed
		s.mu.Unlock()
		if killed {
			return
		}
		sum, runErr = s.persistResult(id, spec, circ, res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || s.killed || j.status.State.Terminal() {
		return
	}
	j.cancel = nil
	delete(s.pressure, id)
	parked := j.parkRequested
	j.parkRequested = false

	if runErr == nil {
		j.status.State = StateDone
		j.status.Gate = j.status.Gates
		j.status.Error, j.status.ErrorKind = "", ""
		j.status.Retryable = false
		j.status.RetryInMS = 0
		j.status.Summary = sum
		s.persistTerminalLocked(j)
		s.met.jobsDone.Inc()
		s.met.jobSeconds.Observe(res.Duration.Seconds())
		s.settleClientLocked(j, outcomeSuccess)
		// The resume checkpoint is stale once the result is durable.
		if err := os.Remove(s.jn.ckptPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.cfg.Logf("serve: %s: drop stale checkpoint: %v", id, err)
		}
		return
	}

	kind := failureKind(runErr)
	retryable := core.Retryable(runErr)
	j.status.Error = runErr.Error()
	j.status.ErrorKind = kind
	j.status.Retryable = retryable

	switch {
	case j.cancelRequested:
		j.status.State = StateFailed
		j.status.ErrorKind = "canceled"
		j.status.Retryable = false
		s.persistTerminalLocked(j)
		s.met.jobsFailed.Inc()
		s.settleClientLocked(j, outcomeNeutral)
	case s.draining && errors.Is(runErr, core.ErrCanceled):
		// Drain interrupted the attempt; the abort checkpoint is on
		// disk. Park: the next process resumes from it.
		j.status.State = StateParked
		j.status.Retryable = true
		if err := s.jn.saveState(&j.status); err != nil {
			s.cfg.Logf("serve: journal %s: %v", id, err)
		}
		s.met.jobsParked.Inc()
		s.cfg.Logf("serve: parked %s at gate %d/%d", id, j.status.Gate, j.status.Gates)
	case (parked && errors.Is(runErr, core.ErrCanceled) || errors.Is(runErr, core.ErrPressure)) &&
		j.status.Attempt < s.cfg.Retry.MaxAttempts() && !s.draining:
		// Parked under memory pressure — either the job's own governor
		// exhausted its ladder (FailurePressure) or the server chose
		// this job as the park victim. Re-admit after a backoff, to
		// resume under a quieter box. This deliberately matches even
		// when the park checkpoint write failed (ErrCheckpointWrite
		// joined, core.Retryable false): the journal's previous durable
		// checkpoint is still a valid resume point, so the job is
		// re-admitted rather than lost.
		delay := s.cfg.Retry.Delay(j.status.Attempt-1, s.rng)
		j.status.State = StateParked
		j.status.Retryable = true
		j.status.RetryInMS = delay.Milliseconds()
		if err := s.jn.saveState(&j.status); err != nil {
			s.cfg.Logf("serve: journal %s: %v", id, err)
		}
		s.met.jobsParked.Inc()
		s.met.pressureParks.Inc()
		s.met.retriesPending.Add(1)
		s.timers[id] = time.AfterFunc(delay, func() { s.fireRetry(id) })
		s.cfg.Logf("serve: parked %s under memory pressure at gate %d/%d (attempt %d, resume in %s)",
			id, j.status.Gate, j.status.Gates, j.status.Attempt, delay.Round(time.Millisecond))
	case retryable && j.status.Attempt < s.cfg.Retry.MaxAttempts() && !s.draining:
		delay := s.cfg.Retry.Delay(j.status.Attempt-1, s.rng)
		j.status.State = StateQueued
		j.status.RetryInMS = delay.Milliseconds()
		if err := s.jn.saveState(&j.status); err != nil {
			s.cfg.Logf("serve: journal %s: %v", id, err)
		}
		s.met.retries.Inc()
		s.met.retriesPending.Add(1)
		s.timers[id] = time.AfterFunc(delay, func() { s.fireRetry(id) })
		s.cfg.Logf("serve: retrying %s in %s (attempt %d/%d, %s)",
			id, delay.Round(time.Millisecond), j.status.Attempt, s.cfg.Retry.MaxAttempts(), kind)
	default:
		j.status.State = StateFailed
		s.persistTerminalLocked(j)
		s.met.jobsFailed.Inc()
		s.settleClientLocked(j, outcomeFailure)
		s.cfg.Logf("serve: failed %s (%s, attempt %d): %v", id, kind, j.status.Attempt, runErr)
	}
}

// fireRetry re-admits a job whose backoff elapsed.
func (s *Server) fireRetry(id string) {
	s.mu.Lock()
	if _, armed := s.timers[id]; !armed {
		// Cancelled or drained concurrently with the timer firing.
		s.mu.Unlock()
		return
	}
	delete(s.timers, id)
	s.met.retriesPending.Add(-1)
	j := s.jobs[id]
	if j == nil || s.killed || j.status.State.Terminal() {
		s.mu.Unlock()
		return
	}
	if j.cancelRequested {
		s.finishCanceledLocked(j)
		s.mu.Unlock()
		return
	}
	if s.draining {
		// Journal already says queued; the next process picks it up.
		s.mu.Unlock()
		return
	}
	task := s.taskFor(id, j.priority)
	s.mu.Unlock()
	if err := s.pool.Requeue(task); err != nil {
		s.cfg.Logf("serve: requeue %s: %v", id, err)
	}
}

type clientOutcome uint8

const (
	outcomeSuccess clientOutcome = iota
	outcomeFailure
	outcomeNeutral // client-requested cancel: no breaker signal
)

// settleClientLocked releases a terminal job's quota slot and feeds
// the breaker; the caller holds s.mu.
func (s *Server) settleClientLocked(j *job, oc clientOutcome) {
	cs := s.clientLocked(j.status.Client)
	if cs.active > 0 {
		cs.active--
	}
	switch oc {
	case outcomeSuccess:
		cs.br.onSuccess()
	case outcomeFailure:
		cs.br.onFailure(time.Now())
	}
}

func (s *Server) finishCanceledLocked(j *job) {
	j.status.State = StateFailed
	j.status.Error = "canceled by client"
	j.status.ErrorKind = "canceled"
	j.status.Retryable = false
	j.status.RetryInMS = 0
	s.persistTerminalLocked(j)
	s.met.jobsFailed.Inc()
	s.settleClientLocked(j, outcomeNeutral)
}

// persistTerminalLocked journals a terminal record and drops the job's
// circuit. A write failure is logged, not fatal: the in-memory state
// stays terminal, and the worst post-crash consequence is one extra
// re-run — at-least-once execution, exactly-once terminal state per
// journal generation.
func (s *Server) persistTerminalLocked(j *job) {
	j.dropCircuit()
	if err := s.jn.saveState(&j.status); err != nil {
		s.cfg.Logf("serve: journal %s terminal state: %v", j.status.ID, err)
	}
}

// dropCircuit releases what only an attempt reads: the parsed circuit
// and the spec's circuit text. A long-lived server would otherwise
// hold every job it ever finished in memory.
func (j *job) dropCircuit() {
	j.circ = nil
	j.spec.Circuit, j.spec.QASM = "", ""
}

// failureKind names an error class for records and metrics.
func failureKind(err error) string {
	if errors.Is(err, core.ErrCheckpointWrite) {
		return "checkpoint-write"
	}
	var re *core.RunError
	if errors.As(err, &re) {
		return re.Kind.String()
	}
	return "error"
}
