package api

import "fmt"

// Mode is the degradation tier of the serving stack. Higher is more
// degraded; the degradation controller (package control) moves one
// tier at a time in both directions.
type Mode int32

const (
	// ModeNormal: full service — configured scheduler, refinement
	// offers, base coalescing window.
	ModeNormal Mode = iota
	// ModeHeuristicOnly: refinement offers are skipped and admission
	// falls back to the pure heuristic (MDF) scheduler where a fallback
	// is configured — exact-quality work is deferred until the queues
	// drain.
	ModeHeuristicOnly
	// ModeShedding: admission requests are rejected early with
	// ErrOverloaded before any scheduler activation is spent; advances
	// and cancels still run so admitted work keeps draining.
	ModeShedding
)

// modeNames are the wire names, indexed by Mode.
var modeNames = [...]string{ModeNormal: "normal", ModeHeuristicOnly: "heuristic_only", ModeShedding: "shedding"}

// String returns the wire name of the mode — the payload of
// EventModeChanged events and the value of StatsResult.ControlMode.
func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// ParseMode inverts Mode.String. Replay uses it to restore logged mode
// transitions verbatim.
func ParseMode(s string) (Mode, error) {
	if m, ok := modeOf(s); ok {
		return m, nil
	}
	return ModeNormal, fmt.Errorf("api: unknown mode %q", s)
}

// modeOf is ParseMode without the error value.
func modeOf(s string) (Mode, bool) {
	for m, name := range modeNames {
		if s == name {
			return Mode(m), true
		}
	}
	return ModeNormal, false
}
