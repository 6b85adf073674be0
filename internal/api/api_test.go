package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestErrorIsByCode(t *testing.T) {
	sentinels := []*Error{
		ErrInfeasible, ErrUnknownDevice, ErrUnknownApp, ErrUnknownJob,
		ErrBadRequest, ErrOverloaded, ErrQuotaExceeded, ErrUnauthorized,
		ErrForbidden, ErrClosed, ErrInternal,
	}
	for i, s := range sentinels {
		if !errors.Is(s, s) {
			t.Errorf("%v does not match itself", s)
		}
		// The wire round-trip loses pointer identity but keeps the code.
		if rebuilt := FromCode(s.Code, "whatever detail"); !errors.Is(rebuilt, s) {
			t.Errorf("FromCode(%q) does not match its sentinel", s.Code)
		}
		for j, o := range sentinels {
			if i != j && errors.Is(s, o) {
				t.Errorf("%v matches unrelated %v", s, o)
			}
		}
	}
}

func TestErrorWrapping(t *testing.T) {
	err := Errf(ErrQuotaExceeded, "tenant %q spent %d", "acme", 10)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Error("Errf result does not match its sentinel")
	}
	if errors.Is(err, ErrOverloaded) {
		t.Error("Errf result matches a different sentinel")
	}
	// Deeper chains still resolve to the first taxonomy code.
	deep := fmt.Errorf("outer: %w", err)
	if got := ErrorCode(deep); got != CodeQuotaExceeded {
		t.Errorf("ErrorCode = %q, want %q", got, CodeQuotaExceeded)
	}
	if got := ErrorCode(errors.New("plain")); got != CodeInternal {
		t.Errorf("ErrorCode(plain) = %q, want %q", got, CodeInternal)
	}
	if got := ErrorCode(nil); got != CodeInternal {
		t.Errorf("ErrorCode(nil) = %q, want %q", got, CodeInternal)
	}
}

func TestErrorJSONRoundTrip(t *testing.T) {
	wrapped := Errf(ErrUnknownDevice, "device %d of %d", 9, 4)
	onWire := FromCode(ErrorCode(wrapped), wrapped.Error())
	buf, err := json.Marshal(onWire)
	if err != nil {
		t.Fatal(err)
	}
	var back Error
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(&back, ErrUnknownDevice) {
		t.Errorf("decoded %+v does not match ErrUnknownDevice", back)
	}
	if back.Message == "" {
		t.Error("message lost in round-trip")
	}
}

func TestFromCodeUnknownFoldsToInternal(t *testing.T) {
	if e := FromCode("", "x"); e.Code != CodeInternal {
		t.Errorf("FromCode(\"\") = %q, want internal", e.Code)
	}
	// A newer server's code this client version does not know must
	// still match a sentinel, with the raw code kept in the message.
	e := FromCode("rate_limited", "slow down")
	if !errors.Is(e, ErrInternal) {
		t.Errorf("unknown code does not match ErrInternal: %+v", e)
	}
	if e.Message != "rate_limited: slow down" {
		t.Errorf("raw code lost: %q", e.Message)
	}
}

// TestStatsDeterministic strips a fully populated result and checks
// that exactly the kept set survives, untouched.
func TestStatsDeterministic(t *testing.T) {
	kept := map[string]bool{
		"Devices": true, "Submitted": true, "Accepted": true, "Rejected": true,
		"Completed": true, "DeadlineMisses": true, "Cancelled": true,
		"Energy": true, "Activations": true,
		"CacheHits": true, "CacheMisses": true, "CacheStale": true,
		"CacheEvictions": true, "CacheRepacks": true, "CacheSharedHits": true,
		"CachePromotions": true, "ScheduleSwaps": true,
		"CoalescedBatches": true, "CoalescedRequests": true,
	}
	var full StatsResult
	fv := reflect.ValueOf(&full).Elem()
	for i := 0; i < fv.NumField(); i++ {
		switch f := fv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.String:
			f.SetString("shedding")
		default:
			t.Fatalf("field %s has unhandled kind %v", fv.Type().Field(i).Name, f.Kind())
		}
	}
	dv := reflect.ValueOf(full.Deterministic())
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		got := dv.Field(i).Interface()
		switch {
		case kept[name] && got != fv.Field(i).Interface():
			t.Errorf("Deterministic altered kept field %s: %v, want %v", name, got, fv.Field(i).Interface())
		case !kept[name] && !dv.Field(i).IsZero():
			t.Errorf("Deterministic kept operational field %s = %v", name, got)
		}
	}
}

func TestModeStringParseRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeNormal, ModeHeuristicOnly, ModeShedding} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode(bogus) accepted")
	}
	if s := Mode(42).String(); s != "mode(42)" {
		t.Fatalf("Mode(42).String() = %q", s)
	}
}

func TestMergeStats(t *testing.T) {
	got := MergeStats([]StatsResult{
		{Devices: 4, Shards: 2, Submitted: 10, Accepted: 7, Rejected: 3,
			Energy: 1.5, Activations: 9, SchedulingTime: 2 * time.Millisecond, MaxQueueDepth: 3},
		{Devices: 4, Shards: 2, Submitted: 5, Accepted: 5,
			Energy: 0.25, Activations: 4, SchedulingTime: time.Millisecond, MaxQueueDepth: 7},
	})
	want := StatsResult{
		Devices: 4, Shards: 4, Submitted: 15, Accepted: 12, Rejected: 3,
		Energy: 1.75, Activations: 13, SchedulingTime: 3 * time.Millisecond, MaxQueueDepth: 7,
	}
	if got != want {
		t.Errorf("merge:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestMergeStatsAllFields merges two results whose every field holds a
// distinct value, checking each field against its merge rule: Devices
// and MaxQueueDepth max, ControlMode worst-of, everything else sums.
func TestMergeStatsAllFields(t *testing.T) {
	a := StatsResult{
		Devices: 9, Shards: 2, Submitted: 3, Accepted: 4, Rejected: 5, Completed: 6,
		DeadlineMisses: 7, Cancelled: 8, Energy: 1.5, Activations: 10,
		SchedulingTime: 11 * time.Millisecond, CacheHits: 12, CacheMisses: 13,
		CacheStale: 14, CacheEvictions: 15, CacheRepacks: 16, CacheSharedHits: 17,
		CachePromotions: 18, ScheduleSwaps: 19, RefineSearches: 20,
		RefineImproved: 21, RefineSkipped: 22, RefineDropped: 23, MaxQueueDepth: 24,
		CoalescedBatches: 25, CoalescedRequests: 26, WatchSubscribers: 27,
		WatchDropped: 28, QuotaBudgetRefusals: 29, QuotaRateRefusals: 30,
		ControlMode: "shedding", Shed: 32, ControlTicks: 33, ControlModeChanges: 34,
	}
	b := StatsResult{
		Devices: 4, Shards: 102, Submitted: 103, Accepted: 104, Rejected: 105,
		Completed: 106, DeadlineMisses: 107, Cancelled: 108, Energy: 0.25,
		Activations: 110, SchedulingTime: 111 * time.Millisecond, CacheHits: 112,
		CacheMisses: 113, CacheStale: 114, CacheEvictions: 115, CacheRepacks: 116,
		CacheSharedHits: 117, CachePromotions: 118, ScheduleSwaps: 119,
		RefineSearches: 120, RefineImproved: 121, RefineSkipped: 122,
		RefineDropped: 123, MaxQueueDepth: 124, CoalescedBatches: 125,
		CoalescedRequests: 126, WatchSubscribers: 127, WatchDropped: 128,
		QuotaBudgetRefusals: 129, QuotaRateRefusals: 130,
		ControlMode: "heuristic_only", Shed: 132, ControlTicks: 133,
		ControlModeChanges: 134,
	}
	want := StatsResult{
		Devices: 9, Shards: 104, Submitted: 106, Accepted: 108, Rejected: 110,
		Completed: 112, DeadlineMisses: 114, Cancelled: 116, Energy: 1.75,
		Activations: 120, SchedulingTime: 122 * time.Millisecond, CacheHits: 124,
		CacheMisses: 126, CacheStale: 128, CacheEvictions: 130, CacheRepacks: 132,
		CacheSharedHits: 134, CachePromotions: 136, ScheduleSwaps: 138,
		RefineSearches: 140, RefineImproved: 142, RefineSkipped: 144,
		RefineDropped: 146, MaxQueueDepth: 124, CoalescedBatches: 150,
		CoalescedRequests: 152, WatchSubscribers: 154, WatchDropped: 156,
		QuotaBudgetRefusals: 158, QuotaRateRefusals: 160, ControlMode: "shedding",
		Shed: 164, ControlTicks: 166, ControlModeChanges: 168,
	}
	got := MergeStats([]StatsResult{a, b})
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
			t.Errorf("%s = %v, want %v", gv.Type().Field(i).Name, g, w)
		}
	}
}

// TestCountersCoverStatsResult: every StatsResult field is declared
// exactly once — by one Counters row, or by name in the short list of
// non-integer fields whose rules MergeStats and Deterministic spell out
// by hand. A field added without a row fails here.
func TestCountersCoverStatsResult(t *testing.T) {
	covered := map[string]int{"Energy": 1, "SchedulingTime": 1, "ControlMode": 1}
	metrics := map[string]bool{}
	for _, c := range Counters {
		covered[c.Name]++
		if c.Metric != "" && (metrics[c.Metric] || c.Help == "") {
			t.Errorf("row %s: metric %q reused or without help", c.Name, c.Metric)
		}
		metrics[c.Metric] = true
	}
	st := reflect.TypeOf(StatsResult{})
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; covered[name] != 1 {
			t.Errorf("StatsResult.%s declared %d times, want once", name, covered[name])
		}
		delete(covered, st.Field(i).Name)
	}
	for name := range covered {
		t.Errorf("%s declared but not a StatsResult field", name)
	}
}
