package main

import "testing"

// TestParseConfigFlags covers the flags no end-to-end scenario passes:
// a valid value lands in its config field, and a bad value, where the
// flag has one, is refused before anything is built.
func TestParseConfigFlags(t *testing.T) {
	for _, tc := range []struct {
		flag, good string
		landed     func(config) bool
		bad        string // "" when every value of the type is valid
	}{
		{"-shards", "3", func(c config) bool { return c.shards == 3 }, "0"},
		{"-sched", "lr", func(c config) bool { return c.sched == "lr" }, "bogus"},
		{"-cache-size", "17", func(c config) bool { return c.cacheSize == 17 }, "-1"},
		{"-cache-slack", "0.25", func(c config) bool { return c.cacheSlack == 0.25 }, "NaN"},
		{"-mailbox", "9", func(c config) bool { return c.mailbox == 9 }, "-4"},
		{"-batch-window", "0.5", func(c config) bool { return c.batchWindow == 0.5 }, "-0.5"},
		{"-event-history", "32", func(c config) bool { return c.eventHistory == 32 }, "-1"},
		{"-flightlog-size", "0", func(c config) bool { return c.flightlogSize == 0 }, "-8"},
		{"-ring-replicas", "5", func(c config) bool { return c.ringReplicas == 5 }, "-5"},
		{"-peer-token", "s3cret", func(c config) bool { return c.peerToken == "s3cret" }, ""},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			c, err := parseConfig([]string{tc.flag, tc.good})
			if err != nil {
				t.Fatalf("%s %s refused: %v", tc.flag, tc.good, err)
			}
			if !tc.landed(c) {
				t.Errorf("%s %s did not land in the config: %+v", tc.flag, tc.good, c)
			}
			if tc.bad == "" {
				return
			}
			if _, err := parseConfig([]string{tc.flag, tc.bad}); err == nil {
				t.Errorf("%s %s accepted", tc.flag, tc.bad)
			}
		})
	}
}

// TestParseConfigCombinations covers flags checked together with
// another: the router-mode flags land with -route, where a negative
// ring size is refused too, and -control refuses a 0s tick interval.
func TestParseConfigCombinations(t *testing.T) {
	route := []string{"-route", "-listen", "127.0.0.1:0", "-peers", "a:1,b:2"}
	c, err := parseConfig(append(route, "-ring-replicas", "7", "-peer-token", "tok"))
	if err != nil {
		t.Fatal(err)
	}
	if c.ringReplicas != 7 || c.peerToken != "tok" || len(c.peers) != 2 {
		t.Errorf("router config = %+v", c)
	}
	if _, err := parseConfig(append(route, "-ring-replicas", "-1")); err == nil {
		t.Error("negative -ring-replicas accepted in router mode")
	}
	// A controller ticking every 0s used to panic at start.
	if _, err := parseConfig([]string{"-control", "-control-interval", "0s"}); err == nil {
		t.Error("-control with a zero -control-interval accepted")
	}
	// Defaults stay valid: the daemon must start with no flags at all.
	if _, err := parseConfig(nil); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
}
