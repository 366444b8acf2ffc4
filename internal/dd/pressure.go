package dd

import "fmt"

// Memory-pressure signal. A soft budget armed via SetSoftBudget bands
// live-node occupancy against three watermarks (fractions of the soft
// budget). Unlike the hard budget (SetBudget) the soft budget never
// aborts and never arms the kernel probe: Pressure() reads the live
// counts when asked, and core's governor asks at flush boundaries to
// walk its staged degradation ladder instead of running into the
// budget cliff.

// PressureLevel classifies live-node occupancy against the soft
// budget's watermarks.
type PressureLevel uint8

const (
	// PressureNone: occupancy below the low watermark (or no soft
	// budget armed).
	PressureNone PressureLevel = iota
	// PressureLow: occupancy at or above the low watermark (~70%) —
	// reclaim garbage early, before the cliff is in sight.
	PressureLow
	// PressureHigh: occupancy at or above the high watermark (~85%) —
	// stop accumulating, shrink the working set.
	PressureHigh
	// PressureCritical: occupancy at or above the critical watermark
	// (~95%) — the next large operation is likely to trip the hard
	// budget.
	PressureCritical
)

// String returns the level's short name.
func (l PressureLevel) String() string {
	switch l {
	case PressureNone:
		return "none"
	case PressureLow:
		return "low"
	case PressureHigh:
		return "high"
	case PressureCritical:
		return "critical"
	}
	return fmt.Sprintf("PressureLevel(%d)", uint8(l))
}

// Watermarks are the occupancy fractions of the soft budget at which
// the pressure level steps up. The zero value selects the defaults.
type Watermarks struct {
	Low      float64
	High     float64
	Critical float64
}

// DefaultWatermarks returns the standard 70/85/95% banding.
func DefaultWatermarks() Watermarks {
	return Watermarks{Low: 0.70, High: 0.85, Critical: 0.95}
}

// SetSoftBudget arms the pressure signal against a live-node target.
// The watermark fractions (zero value: DefaultWatermarks) are
// precomputed into absolute node counts. maxNodes <= 0 disarms the
// signal.
func (e *Engine) SetSoftBudget(maxNodes int, w Watermarks) {
	if maxNodes <= 0 {
		e.softBudget, e.wmLow, e.wmHigh, e.wmCrit = 0, 0, 0, 0
		return
	}
	if w == (Watermarks{}) {
		w = DefaultWatermarks()
	}
	e.softBudget = maxNodes
	e.wmLow = wmNodes(w.Low, maxNodes)
	e.wmHigh = wmNodes(w.High, maxNodes)
	e.wmCrit = wmNodes(w.Critical, maxNodes)
}

// wmNodes converts a watermark fraction to an absolute threshold,
// clamped to at least one node so an armed signal can always fire.
func wmNodes(frac float64, budget int) int {
	n := int(frac * float64(budget))
	if n < 1 {
		n = 1
	}
	return n
}

// PressureInfo is an O(1) snapshot of the memory-pressure signal.
type PressureInfo struct {
	// Level is the occupancy band (the chaos override from
	// InjectPressure is folded in).
	Level PressureLevel
	// Live is the combined live-node occupancy of both unique tables —
	// the quantity banded against the watermarks.
	Live int
}

// Pressure snapshots the signal. O(1): the occupancy is two field
// reads.
func (e *Engine) Pressure() PressureInfo {
	info := PressureInfo{Live: e.vUnique.live + e.mUnique.live}
	if e.softBudget > 0 {
		switch {
		case info.Live >= e.wmCrit:
			info.Level = PressureCritical
		case info.Live >= e.wmHigh:
			info.Level = PressureHigh
		case info.Live >= e.wmLow:
			info.Level = PressureLow
		}
	}
	if e.injectLevel > info.Level {
		info.Level = e.injectLevel
	}
	return info
}

// InjectPressure overrides the reported pressure level for chaos
// tests: Pressure() returns at least the injected level until it is
// cleared with PressureNone. Because an injected level never subsides,
// one governor look walks every ladder rung the level unlocks, making
// each rung deterministically forceable in CI. Gated like the other
// fault hooks (ddchaos build tag or DD_CHAOS=1); reports whether it
// armed.
func (e *Engine) InjectPressure(l PressureLevel) bool {
	if !chaosEnabled() {
		return false
	}
	e.injectLevel = l
	return true
}
