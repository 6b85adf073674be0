// Package api defines the transport-agnostic service protocol of the
// runtime-management fleet: typed request/response messages, the Service
// interface every front-end implements, and a structured error taxonomy
// that survives serialisation.
//
// The protocol makes the paper's admission semantics first-class. A
// submission is an explicit negotiation: the reply carries the assigned
// job id, the accept/reject verdict and the completions observed while
// the device's clock advanced — nothing is fire-and-forget. Two
// implementations exist today: the in-process fleet (package fleet) and
// the JSON-over-HTTP client (package httpapi), and the test suite holds
// them to identical deterministic behaviour, so callers can swap a
// local fleet for a remote daemon without changing a line.
//
// All errors returned by a Service carry a taxonomy code (see Error);
// sentinel identity is preserved across transports via code equality,
// so errors.Is(err, api.ErrQuotaExceeded) works against a live daemon
// exactly as it does in process.
package api

import "context"

// Completion reports one finished job, observed while a device's
// virtual clock advanced past its finish time.
type Completion struct {
	// JobID is the finished job.
	JobID int `json:"job_id"`
	// At is the virtual completion time (s).
	At float64 `json:"at"`
	// Missed reports a deadline violation (defensive; admitted jobs
	// never miss under a correct scheduler).
	Missed bool `json:"missed,omitempty"`
}

// SubmitRequest asks a device to admit one application request.
type SubmitRequest struct {
	// Device is the fleet device index.
	Device int `json:"device"`
	// At is the virtual arrival time (s); per-device times must be
	// non-decreasing.
	At float64 `json:"at"`
	// App names an operating-point table of the device's library.
	App string `json:"app"`
	// Deadline is the absolute firm deadline (s), strictly after At.
	Deadline float64 `json:"deadline"`
}

// TargetDevice returns the addressed device, letting transport layers
// authorise any mutating request uniformly.
func (r SubmitRequest) TargetDevice() int { return r.Device }

// SubmitResult is the admission decision. On rejection the Service
// additionally returns ErrInfeasible; the result still carries the
// completions that occurred while the device advanced to the arrival
// time, so no event is lost on either verdict.
type SubmitResult struct {
	// JobID is the admitted job's id (0 when rejected).
	JobID int `json:"job_id"`
	// Accepted is the admission verdict.
	Accepted bool `json:"accepted"`
	// Completions lists jobs that finished in (previous now, At].
	Completions []Completion `json:"completions,omitempty"`
}

// AdvanceRequest moves a device's virtual clock forward, accounting
// progress and energy along its current schedule.
type AdvanceRequest struct {
	// Device is the fleet device index.
	Device int `json:"device"`
	// To is the target virtual time (s), ≥ the device's current time.
	To float64 `json:"to"`
}

// TargetDevice returns the addressed device.
func (r AdvanceRequest) TargetDevice() int { return r.Device }

// AdvanceResult lists the completions the advance produced.
type AdvanceResult struct {
	// Completions lists jobs that finished in (previous now, To].
	Completions []Completion `json:"completions,omitempty"`
}

// CancelRequest aborts an active job, freeing its resources for the
// remaining jobs (the device re-plans them immediately).
type CancelRequest struct {
	// Device is the fleet device index.
	Device int `json:"device"`
	// JobID is the job to abort.
	JobID int `json:"job_id"`
}

// TargetDevice returns the addressed device.
func (r CancelRequest) TargetDevice() int { return r.Device }

// CancelResult acknowledges a cancellation.
type CancelResult struct {
	// Cancelled is true when the job was active and has been removed.
	Cancelled bool `json:"cancelled"`
}

// StatsRequest fetches statistics: fleet-wide when Device is nil,
// otherwise for the single addressed device.
type StatsRequest struct {
	// Device optionally selects one device.
	Device *int `json:"device,omitempty"`
}

// Service is the transport-agnostic runtime-management interface. Every
// call takes a context: implementations must honour cancellation while
// blocked (e.g. on a full mailbox) and return the taxonomy errors of
// this package. The in-process fleet and the HTTP client are both
// Services and are behaviourally interchangeable.
type Service interface {
	// Submit negotiates admission of one request. A rejection returns
	// (result, ErrInfeasible) with result.Accepted false.
	Submit(ctx context.Context, req SubmitRequest) (SubmitResult, error)
	// Advance moves a device's virtual clock forward.
	Advance(ctx context.Context, req AdvanceRequest) (AdvanceResult, error)
	// Cancel aborts an active job, reclaiming its resources.
	Cancel(ctx context.Context, req CancelRequest) (CancelResult, error)
	// Stats snapshots fleet-wide or per-device statistics.
	Stats(ctx context.Context, req StatsRequest) (StatsResult, error)
}
