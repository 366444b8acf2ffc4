package core

import (
	"fmt"
	"strings"
)

// StrategyNames is the canonical list of strategy selectors, in the
// order CLI help renders them. Every surface that accepts a strategy by
// name — the ddsim/ddbench flags, the ddserve job decoder, checkpoint
// resume — derives its accepted set from this table (via NewStrategy),
// so the surfaces cannot drift apart.
var strategyNames = []string{
	"sequential",
	"k-operations",
	"max-size",
	"planner",
	"combine-all",
}

// StrategyNames returns the canonical strategy selectors (a copy).
func StrategyNames() []string {
	return append([]string(nil), strategyNames...)
}

// StrategyUsage renders the selector list for flag help:
// "sequential | k-operations | max-size | planner | combine-all".
func StrategyUsage() string { return strings.Join(strategyNames, " | ") }

// StrategyKnobs carries the per-family parameters a named strategy
// takes. Zero values select each family's documented default; negative
// or otherwise nonsensical values are rejected with a *ConfigError.
type StrategyKnobs struct {
	// K parameterises k-operations (default 4).
	K int
	// SMax parameterises max-size (default 128).
	SMax int
}

// NewStrategy constructs the named strategy with the given knobs — the
// single constructor behind ddsim's -strategy flag and the ddserve job
// decoder. Unknown names and invalid knobs return a *ConfigError.
func NewStrategy(name string, kn StrategyKnobs) (Strategy, error) {
	var st Strategy
	switch name {
	case "sequential":
		st = Sequential{}
	case "k-operations":
		k := kn.K
		if k == 0 {
			k = 4
		}
		st = KOperations{K: k}
	case "max-size":
		s := kn.SMax
		if s == 0 {
			s = 128
		}
		st = MaxSize{SMax: s}
	case "planner":
		st = Planner{}
	case "adaptive":
		return nil, &ConfigError{
			Option: "Strategy",
			Msg:    `strategy "adaptive" was removed; "planner" applies its rule at ratio 2 to circuits of disjoint gates`,
		}
	case "combine-all":
		st = CombineAll{}
	default:
		return nil, &ConfigError{
			Option: "Strategy",
			Msg:    fmt.Sprintf("unknown strategy %q (want %s)", name, StrategyUsage()),
		}
	}
	if err := validateStrategy(st); err != nil {
		return nil, err
	}
	return st, nil
}

// ConfigError is the typed error RunContext (and NewStrategy) returns
// for a nonsensical configuration: a strategy parameter outside its
// domain, or an unknown strategy name. It is a configuration error, not
// a run failure — no *RunError, no partial result.
type ConfigError struct {
	// Option names the offending knob, e.g. "KOperations.K".
	Option string
	Msg    string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid configuration: %s: %s", e.Option, e.Msg)
}

// validateStrategy rejects nonsensical strategy parameters with a
// typed *ConfigError. Without this check, KOperations{K: 0} and
// MaxSize{SMax: 0} would run but degenerate to sequential behaviour
// under a misleading Name() — silent acceptance the caller cannot
// distinguish from a working configuration.
func validateStrategy(st Strategy) error {
	bad := func(option, format string, args ...any) error {
		return &ConfigError{Option: option, Msg: fmt.Sprintf(format, args...)}
	}
	switch s := st.(type) {
	case KOperations:
		if s.K < 1 {
			return bad("KOperations.K", "must be >= 1, got %d", s.K)
		}
	case MaxSize:
		if s.SMax < 1 {
			return bad("MaxSize.SMax", "must be >= 1, got %d", s.SMax)
		}
	case *Planner:
		// RunContext resolves only the value to its band's rule; a
		// pointer would run the low band's rule on every circuit.
		return bad("Planner", "pass core.Planner{}, not a pointer")
	}
	return nil
}

// StrategyFromName parses a Strategy.Name() string back into the
// strategy — the inverse a resume uses to adopt the strategy a
// checkpoint records. It reads the family and its one parameter and
// builds the strategy with NewStrategy. Checkpoints written before the
// planner became a fixed-rule choice record it as
// "planner(w=…,r=…,g=…)"; they resume as "planner".
func StrategyFromName(name string) (Strategy, error) {
	family, param, _ := strings.Cut(strings.TrimSuffix(name, ")"), "(")
	var kn StrategyKnobs
	var ok bool
	switch family {
	case "k-operations":
		_, err := fmt.Sscanf(param, "k=%d", &kn.K)
		ok = err == nil && kn.K >= 1
	case "max-size":
		_, err := fmt.Sscanf(param, "s=%d", &kn.SMax)
		ok = err == nil && kn.SMax >= 1
	case "planner", "adaptive":
		// The old knob spellings: NewStrategy ignores a planner's and
		// rejects adaptive as removed.
		ok = true
	default:
		ok = param == ""
	}
	if !ok {
		return nil, fmt.Errorf("core: malformed strategy name %q", name)
	}
	return NewStrategy(family, kn)
}
