package rm

import (
	"fmt"

	"adaptrm/internal/api"
)

// Mode returns the manager's current degradation tier (ModeNormal for
// a manager that never saw a controller).
func (m *Manager) Mode() api.Mode { return m.mode }

// SetMode switches the manager's degradation tier. A change emits
// EventModeChanged at the manager clock with the mode's wire name as
// payload, so the transition flows through the watch/WAL machinery
// like any lifecycle event and replay can restore it verbatim; setting
// the current mode again is a no-op (no event). From ModeHeuristicOnly
// up, schedule() prefers Options.Fallback — the pure heuristic —
// over the configured scheduler.
//
// Like every manager call, SetMode must be serialised with the rest of
// the manager's traffic (the fleet calls it under the device lock).
func (m *Manager) SetMode(mo api.Mode) {
	if mo == m.mode {
		return
	}
	m.mode = mo
	m.emit(Event{Type: EventModeChanged, At: m.now, Payload: mo.String()})
}

// ReplayMode re-applies a logged mode change verbatim: the payload an
// original SetMode emitted is parsed and installed without consulting
// any controller — the original made the decision, replay reproduces
// it. The re-emitted event reuses the logged payload string and the
// logged time, so the recovery verifier sees an identical event.
func (m *Manager) ReplayMode(at float64, payload string) error {
	mo, err := api.ParseMode(payload)
	if err != nil {
		return fmt.Errorf("rm: mode payload: %w", err)
	}
	m.mode = mo
	m.emit(Event{Type: EventModeChanged, At: at, Payload: payload})
	return nil
}
