package router

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/placement"
)

// nopService satisfies api.Service for constructor tests.
type nopService struct{}

func (nopService) Submit(context.Context, api.SubmitRequest) (api.SubmitResult, error) {
	return api.SubmitResult{}, nil
}
func (nopService) Advance(context.Context, api.AdvanceRequest) (api.AdvanceResult, error) {
	return api.AdvanceResult{}, nil
}
func (nopService) Cancel(context.Context, api.CancelRequest) (api.CancelResult, error) {
	return api.CancelResult{}, nil
}
func (nopService) Stats(context.Context, api.StatsRequest) (api.StatsResult, error) {
	return api.StatsResult{}, nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("accepted empty backend list")
	}
	if _, err := New([]Backend{{Name: "a"}}, nil); err == nil {
		t.Error("accepted backend without service")
	}
	if _, err := New([]Backend{{Name: "a", Service: nopService{}}}, placement.Modulo(2)); err == nil {
		t.Error("accepted placement/backend count mismatch")
	}
	rt, err := New([]Backend{{Name: "a", Service: nopService{}}}, nil)
	if err != nil {
		t.Fatalf("defaulted ring: %v", err)
	}
	if rt.Placement().Owners() != 1 {
		t.Errorf("default placement owners = %d, want 1", rt.Placement().Owners())
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{api.ErrInfeasible, api.CodeInfeasible},
		{api.Errf(api.ErrUnavailable, "peer x: dial refused"), api.CodeUnavailable},
		{fmt.Errorf("outer: %w", api.ErrQuotaExceeded), api.CodeQuotaExceeded},
		{context.Canceled, "canceled"},
		{context.DeadlineExceeded, "canceled"},
		{fmt.Errorf("ctx: %w", context.Canceled), "canceled"},
		{errors.New("socket melted"), "other"},
	}
	for _, c := range cases {
		if got := classOf(c.err); got != c.want {
			t.Errorf("classOf(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
