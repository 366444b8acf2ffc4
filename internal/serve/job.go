// Package serve implements ddserve: a crash-safe simulation-as-a-
// service daemon. Jobs arrive over HTTP (OpenQASM or the native
// circuit format), are journaled durably before they are acknowledged,
// and execute on a bounded priority worker pool with per-client
// admission control, backoff retries, and checkpoint-based recovery —
// a kill -9'd server restarts and resumes in-flight jobs from their
// last durable checkpoint.
package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
)

// JobSpec is a client's job submission, exactly as journaled in
// job.json. Exactly one of Circuit (native format) or QASM must be
// set.
type JobSpec struct {
	// Client identifies the submitter for quotas, circuit breaking and
	// metrics. Empty means "anon".
	Client string `json:"client,omitempty"`
	// Priority is "high", "normal" (default) or "low".
	Priority string `json:"priority,omitempty"`
	// Circuit is the program in the native text format.
	Circuit string `json:"circuit,omitempty"`
	// QASM is the program in OpenQASM 2.0. Dynamic operations
	// (measure / reset / if) are rejected: a served job must be a pure
	// unitary evolution so checkpoint-resume replays deterministically.
	QASM string `json:"qasm,omitempty"`
	// Strategy selects the multiplication strategy by its canonical
	// name — any entry of core.StrategyNames(): "sequential" (default),
	// "k-operations", "max-size", "planner", "combine-all".
	Strategy string `json:"strategy,omitempty"`
	// K parameterises k-operations (default 4).
	K int `json:"k,omitempty"`
	// SMax parameterises max-size (default 128).
	SMax int `json:"smax,omitempty"`
	// UseBlocks enables block-structured matrix reuse.
	UseBlocks bool `json:"use_blocks,omitempty"`
	// Shots, when positive, samples that many measurement outcomes from
	// the final state (deterministically from Seed).
	Shots int `json:"shots,omitempty"`
	// Seed drives sampling; recorded in checkpoints for resume.
	Seed int64 `json:"seed,omitempty"`
	// MaxNodes optionally tightens the per-job node budget below the
	// server's per-worker share. It can never raise it.
	MaxNodes int `json:"max_nodes,omitempty"`
	// TimeoutMS optionally bounds the job's wall-clock run time per
	// attempt, in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SoftBudget arms the memory-pressure governor at this live-node
	// target (see core.Options.SoftBudget): the run degrades in stages
	// near the target instead of aborting at the hard budget. Clamped
	// to the job's effective hard budget.
	SoftBudget int `json:"soft_budget,omitempty"`
	// Degrade selects the governor mode: "" (a budget abort replays
	// the tripped gate run one gate at a time), "off" (no replay
	// either), "ladder" (exact-preserving measures only), or "approx"
	// (opt-in fidelity-bounded truncation; the summary reports the
	// bound).
	Degrade string `json:"degrade,omitempty"`
	// ApproxNodes is the approximation rung's state-size target; only
	// meaningful with Degrade "approx" (default soft budget / 4).
	ApproxNodes int `json:"approx_nodes,omitempty"`
}

// Caps bounds what DecodeJobRequest accepts; zero fields select
// defaults. The caps mirror the QASM parser's own hard limits
// (register size, gate-expansion count) so the decoder rejects
// oversized work before it costs anything.
type Caps struct {
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxQubits bounds the circuit width (default 30).
	MaxQubits int
	// MaxGates bounds the gate count after expansion (default 1<<20,
	// the QASM parser's own expansion cap).
	MaxGates int
	// MaxShots bounds requested samples (default 1<<20).
	MaxShots int
}

func (c Caps) withDefaults() Caps {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxQubits <= 0 {
		c.MaxQubits = 30
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 1 << 20
	}
	if c.MaxShots <= 0 {
		c.MaxShots = 1 << 20
	}
	return c
}

// RequestError is a client-attributable decode/validation failure,
// carrying the HTTP status the API layer should answer with.
// RetryAfter, when positive, asks the client to back off (rendered as
// a Retry-After header on 429/503 responses).
type RequestError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *RequestError) Error() string { return e.Msg }

func reqErr(status int, format string, args ...any) *RequestError {
	return &RequestError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// DecodeJobRequest parses and validates a job-submission body. It
// returns the spec (normalised) and the parsed circuit, or a
// *RequestError describing what the client got wrong. It never
// executes anything: parsing is bounded by caps so a hostile body
// cannot cost more than the caps allow.
func DecodeJobRequest(body []byte, caps Caps) (*JobSpec, *circuit.Circuit, error) {
	caps = caps.withDefaults()
	if int64(len(body)) > caps.MaxBodyBytes {
		return nil, nil, reqErr(413, "body is %d bytes; limit %d", len(body), caps.MaxBodyBytes)
	}
	var spec JobSpec
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, nil, reqErr(400, "invalid JSON: %v", err)
	}
	if dec.More() {
		return nil, nil, reqErr(400, "trailing data after JSON body")
	}
	if spec.Circuit != "" && spec.QASM != "" {
		return nil, nil, reqErr(400, "set exactly one of circuit or qasm, not both")
	}
	if spec.Circuit == "" && spec.QASM == "" {
		return nil, nil, reqErr(400, "set exactly one of circuit or qasm")
	}
	switch spec.Priority {
	case "", "normal":
		spec.Priority = "normal"
	case "high", "low":
	default:
		return nil, nil, reqErr(400, "priority %q: want high, normal or low", spec.Priority)
	}
	if spec.Shots < 0 || spec.Shots > caps.MaxShots {
		return nil, nil, reqErr(400, "shots %d out of range [0,%d]", spec.Shots, caps.MaxShots)
	}
	if spec.MaxNodes < 0 {
		return nil, nil, reqErr(400, "max_nodes must be >= 0")
	}
	if spec.TimeoutMS < 0 {
		return nil, nil, reqErr(400, "timeout_ms must be >= 0")
	}
	if spec.SoftBudget < 0 {
		return nil, nil, reqErr(400, "soft_budget must be >= 0")
	}
	switch spec.Degrade {
	case "", "off", "ladder", "approx":
	default:
		return nil, nil, reqErr(400, "degrade %q: want off, ladder or approx", spec.Degrade)
	}
	if spec.ApproxNodes < 0 {
		return nil, nil, reqErr(400, "approx_nodes must be >= 0")
	}
	if spec.ApproxNodes > 0 && spec.Degrade != "approx" {
		return nil, nil, reqErr(400, `approx_nodes is only meaningful with degrade "approx"`)
	}
	if _, err := StrategyFor(&spec); err != nil {
		return nil, nil, reqErr(400, "%v", err)
	}

	var (
		circ *circuit.Circuit
		err  error
	)
	if spec.QASM != "" {
		if hasDynamicOps(spec.QASM) {
			return nil, nil, reqErr(400, "dynamic operations (measure/reset/if) are not servable; submit a unitary circuit")
		}
		prog, perr := qasm.ParseString(spec.QASM)
		if perr != nil {
			return nil, nil, reqErr(400, "qasm: %v", perr)
		}
		circ = prog.Circuit
	} else {
		circ, err = circuit.ParseString(spec.Circuit)
		if err != nil {
			return nil, nil, reqErr(400, "circuit: %v", err)
		}
	}
	if circ.NQubits <= 0 {
		return nil, nil, reqErr(400, "circuit declares no qubits")
	}
	if circ.NQubits > caps.MaxQubits {
		return nil, nil, reqErr(400, "circuit has %d qubits; limit %d", circ.NQubits, caps.MaxQubits)
	}
	if len(circ.Gates) == 0 {
		return nil, nil, reqErr(400, "circuit has no gates")
	}
	if len(circ.Gates) > caps.MaxGates {
		return nil, nil, reqErr(400, "circuit has %d gates; limit %d", len(circ.Gates), caps.MaxGates)
	}
	if spec.ApproxNodes > 0 && spec.ApproxNodes < circ.NQubits {
		return nil, nil, reqErr(400, "approx_nodes %d below qubit count %d (a state DD cannot be smaller)",
			spec.ApproxNodes, circ.NQubits)
	}
	return &spec, circ, nil
}

// parseSpecCircuit re-parses a journaled spec's program during
// recovery (specs were validated at admission; this only rebuilds the
// in-memory circuit).
func parseSpecCircuit(spec *JobSpec) (*circuit.Circuit, error) {
	if spec.QASM != "" {
		prog, err := qasm.ParseString(spec.QASM)
		if err != nil {
			return nil, err
		}
		return prog.Circuit, nil
	}
	return circuit.ParseString(spec.Circuit)
}

// hasDynamicOps reports whether the QASM text uses measure / reset /
// conditional statements (same detection as cmd/ddsim).
func hasDynamicOps(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		for _, kw := range []string{"measure", "reset", "if"} {
			if strings.HasPrefix(line, kw) {
				return true
			}
		}
	}
	return false
}

// StrategyFor builds the core.Strategy a spec requests through the
// shared strategy table (core.NewStrategy) — the same constructor
// behind the ddsim flags, producing the same canonical Name() spelling
// checkpoints record, so resumed attempts agree with the journal.
// Zero-valued knobs select each family's default; negative knobs are a
// *core.ConfigError the admission path rejects with 400.
func StrategyFor(spec *JobSpec) (core.Strategy, error) {
	name := spec.Strategy
	if name == "" {
		name = "sequential"
	}
	st, err := core.NewStrategy(name, core.StrategyKnobs{K: spec.K, SMax: spec.SMax})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return st, nil
}

// JobState is a job's position in the lifecycle state machine:
//
//	queued -> running -> done
//	            |-> checkpointed -> running (same process)
//	            |-> queued  (retryable failure, backoff pending)
//	            |-> parked  (drain: checkpointed, resumes next start)
//	            |-> failed  (permanent)
//
// done and failed are terminal; everything else is re-admitted on
// restart.
type JobState string

const (
	StateQueued       JobState = "queued"
	StateRunning      JobState = "running"
	StateCheckpointed JobState = "checkpointed"
	StateParked       JobState = "parked"
	StateDone         JobState = "done"
	StateFailed       JobState = "failed"
)

// Terminal reports whether the state is final. A job reaches a
// terminal state exactly once; recovery re-runs only non-terminal
// jobs.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// valid reports whether s is a state this server writes (guards the
// journal loader against scribbled records).
func (s JobState) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateCheckpointed, StateParked, StateDone, StateFailed:
		return true
	}
	return false
}

// JobSummary describes a completed run.
type JobSummary struct {
	DurationMS  int64   `json:"duration_ms"`
	MatVecSteps int     `json:"matvec_steps"`
	MatMatSteps int     `json:"matmat_steps"`
	StateNodes  int     `json:"state_nodes"`
	Norm        float64 `json:"norm"`
	// Degradations counts the degradation ladder's actions during the
	// run, budget-abort replays included (0 for an untroubled run).
	Degradations int `json:"degradations,omitempty"`
	// FidelityBound is the run's cumulative fidelity lower bound; set
	// only when approximation lowered it below 1.
	FidelityBound float64        `json:"fidelity_bound,omitempty"`
	Samples       map[string]int `json:"samples,omitempty"`
}

// JobStatus is a job's current lifecycle record — the unit the journal
// persists (state.json) and the API returns.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Client   string   `json:"client"`
	Priority string   `json:"priority"`
	NQubits  int      `json:"nqubits"`
	Gates    int      `json:"gates"`
	// Strategy is the canonical strategy name (core.Strategy.Name())
	// the job runs under, with every knob resolved. It is journaled
	// with the job, so a parked job resumes under the same spelling.
	Strategy string `json:"strategy,omitempty"`
	// Attempt counts executions started (1 on the first run).
	Attempt int `json:"attempt"`
	// Gate is the resume point: gates applied as of the last durable
	// checkpoint.
	Gate int `json:"gate"`
	// Error and ErrorKind describe the last failure (terminal or
	// retried). ErrorKind is the core.FailureKind string.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Retryable records the classification of the last failure.
	Retryable bool `json:"retryable,omitempty"`
	// RetryInMS is how far in the future the next attempt was
	// scheduled, at the time the record was written.
	RetryInMS int64       `json:"retry_in_ms,omitempty"`
	Summary   *JobSummary `json:"summary,omitempty"`
}
