package loadgen

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopUnderChaos is the tentpole property: an open-loop load —
// 100k simulated users, Zipf celebrity skew, a fixed arrival rate the
// generator never slackens — sustained across the full chaos script
// (steady state, live join, drain, bound migration, warm restart, and
// a member kill repaired automatically by the failure detector) with
// the online checker auditing tracked timelines throughout and a
// zero-budget final sweep at the end. Zero violations means no lost
// acknowledged writes, no out-of-budget staleness, no phantoms,
// duplicates, or payload corruption — while every topology change the
// Admin API supports happened under fire. Scaled down in duration
// (not in universe size) so it runs raced in CI.
func TestOpenLoopUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	phaseDur := 600 * time.Millisecond
	cfg := Config{
		Users:       100_000,
		ActiveUsers: 1200,
		Follows:     8,
		TrackEvery:  8,
		Rate:        400,
		Seed:        1,
		Workers:     8,
		// Budget generous under -race on loaded CI machines: the final
		// zero-budget sweep is the authoritative lost-write check; the
		// online budget still catches gross staleness mid-run.
		Budget:  10 * time.Second,
		Phases:  StandardPhases(phaseDur),
		Servers: 4,
		DataDir: t.TempDir(),
		Logf:    t.Logf,
		// Detector tolerance generous under -race on loaded machines:
		// at the 25ms×3 default a race-mode scheduling pause reads as
		// death, and a false repair cold-promotes ranges away from live
		// members — the kill phase extends until repair regardless.
		FailoverInterval: 100 * time.Millisecond,
		FailoverMisses:   5,
	}
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Checker.Violations != 0 {
		t.Fatalf("checker violations (%d): %v", rep.Checker.Violations, rep.Checker.Samples)
	}
	if rep.Checker.TrackedUsers == 0 || rep.Checker.PostsTracked == 0 {
		t.Fatalf("checker tracked nothing: %+v", rep.Checker)
	}
	if rep.Checker.PostsAcked == 0 || rep.Checker.ChecksAudited == 0 || rep.Checker.RowsVerified == 0 {
		t.Fatalf("checker audited nothing: %+v", rep.Checker)
	}
	if len(rep.Phases) != len(cfg.Phases) {
		t.Fatalf("phase reports = %d, want %d", len(rep.Phases), len(cfg.Phases))
	}
	for _, ph := range rep.Phases {
		if ph.Offered == 0 {
			t.Fatalf("phase %q: open-loop clock offered nothing", ph.Name)
		}
		if ph.Completed == 0 {
			t.Fatalf("phase %q: nothing completed (event=%q errors=%d shed=%d)",
				ph.Name, ph.Event, ph.Errors, ph.Shed)
		}
		if ph.Completed > 0 && (ph.P50us == 0 || ph.P99us < ph.P50us || ph.P999us < ph.P99us || ph.MaxUs < ph.P999us) {
			t.Fatalf("phase %q: malformed latency tail %+v", ph.Name, ph)
		}
		if ph.DurationSec < phaseDur.Seconds()*0.9 {
			t.Fatalf("phase %q: duration %.3fs below scripted %.3fs", ph.Name, ph.DurationSec, phaseDur.Seconds())
		}
	}
	// Each membership change landed in its phase's member count — a
	// join adds a member, a drain and a kill take one away — and every
	// phase reports the hottest member's share of what it served.
	prev := rep.Servers
	for _, ph := range rep.Phases {
		if d := map[string]int{EventJoin: 1, EventDrain: -1, EventKill: -1}[ph.Event]; d != 0 && ph.Members != prev+d {
			t.Fatalf("phase %q: members %d -> %d, want %+d", ph.Name, prev, ph.Members, d)
		}
		prev = ph.Members
		if ph.HotShare <= 0 || ph.HotShare > 1 {
			t.Fatalf("phase %q: hot_share %.3f outside (0, 1]", ph.Name, ph.HotShare)
		}
		t.Logf("phase %q: %d members, hot_share %.3f", ph.Name, ph.Members, ph.HotShare)
	}
	// The arrival clock must not have slackened: total offered over the
	// run tracks rate × time (it can exceed it slightly — phases extend
	// when an event outlasts the script — never collapse below it).
	var offered int64
	var totalSec float64
	for _, ph := range rep.Phases {
		offered += ph.Offered
		totalSec += ph.DurationSec
	}
	if float64(offered) < cfg.Rate*totalSec*0.8 {
		t.Fatalf("offered %d ops over %.1fs; open-loop clock slackened below %v/s", offered, totalSec, cfg.Rate)
	}
	if rep.Seed != cfg.Seed || !rep.Durable || rep.Users != cfg.Users {
		t.Fatalf("report config echo wrong: %+v", rep)
	}
	if len(rep.JSON()) == 0 {
		t.Fatal("empty JSON report")
	}
	t.Logf("open-loop: %d offered, checker: %d posts tracked, %d checks audited, %d rows verified, lag p99 %dµs",
		offered, rep.Checker.PostsTracked, rep.Checker.ChecksAudited, rep.Checker.RowsVerified, rep.Checker.LagP99us)

	// Bounded phase: the measured freshness distribution feeds back as
	// the empirical per-read budget — every read now rides the bounded
	// path sized to the lag p99 the fresh run actually observed, and
	// the checker audits the budgets end to end (absence grace loosens
	// by exactly the read budget; payloads and phantoms stay strict).
	empirical := time.Duration(rep.Checker.LagP99us) * time.Microsecond
	if empirical < 5*time.Millisecond {
		empirical = 5 * time.Millisecond // floor: p99 of 0 means reads never caught a row in flight
	}
	bcfg := cfg
	bcfg.Seed = cfg.Seed + 1
	bcfg.DataDir = t.TempDir()
	bcfg.ReadStale = empirical
	bcfg.Phases = []Phase{
		{Name: "bounded-steady", Duration: phaseDur},
		{Name: "bounded-rebalance", Duration: phaseDur, Event: EventRebalance},
	}
	t.Logf("bounded phase: empirical per-read budget %v (lag p99 %dµs)", empirical, rep.Checker.LagP99us)
	brep, err := Run(ctx, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if brep.Checker.Violations != 0 {
		t.Fatalf("bounded-phase violations (%d): %v", brep.Checker.Violations, brep.Checker.Samples)
	}
	if brep.Checker.BoundedChecks == 0 {
		t.Fatalf("bounded phase audited no bounded reads: %+v", brep.Checker)
	}
	for _, ph := range brep.Phases {
		if ph.HotShare <= 0 || ph.HotShare > 1 {
			t.Fatalf("bounded phase %q: hot_share %.3f outside (0, 1]", ph.Name, ph.HotShare)
		}
	}
	if brep.ReadStaleMs != empirical.Milliseconds() {
		t.Fatalf("bounded-phase report echo wrong: %d != %d", brep.ReadStaleMs, empirical.Milliseconds())
	}
	t.Logf("bounded phase: %d bounded checks, %d rows verified, lag p99 %dµs",
		brep.Checker.BoundedChecks, brep.Checker.RowsVerified, brep.Checker.LagP99us)
}

// Config validation must reject scripts the runner can't honor, up
// front: before a cluster is built or a phase runs.
func TestRunnerConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"unknown event", Config{Phases: []Phase{{Name: "x", Event: "explode"}}}},
		{"restart without durability", Config{Phases: []Phase{{Name: "x", Event: EventRestart}}}},
		{"kill in connect mode", Config{
			Addrs:  []string{"127.0.0.1:1"},
			Phases: []Phase{{Name: "x", Event: EventKill}}}},
		{"join in connect mode", Config{
			Addrs:  []string{"127.0.0.1:1"},
			Phases: []Phase{{Name: "x", Event: EventJoin}}}},
		// Two members split at t| alone: no t|u<n> bound to move.
		{"rebalance with 2 servers", Config{
			Servers: 2,
			Phases:  []Phase{{Name: "x", Event: EventRebalance}}}},
		{"rebalance in connect mode without a t|u bound", Config{
			Addrs:  []string{"127.0.0.1:1", "127.0.0.1:2"},
			Bounds: []string{"m"},
			Phases: []Phase{{Name: "x", Event: EventRebalance}}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.withDefaults().validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// ...and accept the scripts it can: the default chaos script, and a
	// connect-mode rebalance over bounds that carry a t|u<n> bound.
	for name, cfg := range map[string]Config{
		"standard script": {DataDir: "d"},
		"connect-mode rebalance": {
			Addrs:  []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
			Bounds: []string{"t|", "t|u0050000"},
			Phases: []Phase{{Name: "x", Event: EventRebalance}}},
	} {
		if err := cfg.withDefaults().validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}
