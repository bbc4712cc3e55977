package loadgen

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pequod/internal/core"
	"pequod/internal/server"
)

// TestDualCheckOracleRules pins the pairwise verdicts of the dual-read
// oracle deterministically (the cluster test below exercises them
// under fire, where a violation should never actually occur):
// divergence inside the combined budget is legal; a bounded read
// omitting a long-settled row the fresh oracle shows is stale-read; a
// fresh read losing a settled row the bounded read still shows is
// regression — and that last one is invisible to the single-scan
// audit, which stops watching a row once any scan confirms it.
func TestDualCheckOracleRules(t *testing.T) {
	const budget = 100 * time.Millisecond
	const extra = 50 * time.Millisecond
	newC := func() *Checker {
		return NewChecker(budget, []int32{1}, func(int32) []int32 { return []int32{7} })
	}
	// post registers an acked expectation whose ack is backdated so the
	// test controls the row's age at audit time.
	post := func(c *Checker, tm int64, ackedAgo time.Duration) string {
		c.PostIssued(7, tm, "v")
		c.PostAcked(7, tm)
		key := timelineKey(1, tm, 7)
		tu := c.users[1]
		tu.mu.Lock()
		tu.rows[key].acked = time.Now().Add(-ackedAgo)
		tu.mu.Unlock()
		return key
	}
	now := time.Now()

	// Bounded trailing fresh by less than budget+extra: legal.
	c := newC()
	k := post(c, 1, 20*time.Millisecond)
	c.OnDualCheck(1, 0, nil, []core.KV{{Key: k, Value: "v"}}, now, now, extra)
	if rep := c.Report(); rep.Violations != 0 {
		t.Fatalf("in-budget divergence flagged: %v", rep.Samples)
	}

	// Bounded omitting a row settled 1s ago: over its bound.
	c = newC()
	k = post(c, 2, time.Second)
	c.OnDualCheck(1, 0, nil, []core.KV{{Key: k, Value: "v"}}, now, now, extra)
	if rep := c.Report(); rep.ViolationKinds["stale-read"] == 0 {
		t.Fatalf("over-budget bounded omission not flagged: %+v", rep)
	}

	// Fresh losing a settled row the bounded read still shows. The
	// bounded scan confirms the row first, so only the pairwise pass
	// can catch the fresh side's loss.
	c = newC()
	k = post(c, 3, time.Second)
	c.OnDualCheck(1, 0, []core.KV{{Key: k, Value: "v"}}, nil, now, now, extra)
	rep := c.Report()
	if rep.ViolationKinds["regression"] == 0 {
		t.Fatalf("fresh-side loss not flagged: %+v", rep)
	}
	if rep.DualChecks != 1 || rep.BoundedChecks != 1 {
		t.Fatalf("dual/bounded counters wrong: %+v", rep)
	}
}

// TestFreshnessOracleDualReads is the freshness-oracle property test:
// a Twip workload where every tracked timeline read is issued twice —
// once with a per-read staleness budget (carried on the wire through
// whatever member routing lands on) and once fresh immediately after —
// while the partition map migrates and a member is killed and repaired
// mid-stream. The oracle demands the bounded result is never staler
// than its budget (plus the replication allowance), never fabricates
// rows, and never loses settled rows relative to the fresh read; the
// zero-budget final sweep then closes the loop. Runs raced in CI.
func TestFreshnessOracleDualReads(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	phaseDur := 500 * time.Millisecond
	cfg := Config{
		Users:       50_000,
		ActiveUsers: 800,
		Follows:     8,
		TrackEvery:  4,
		Rate:        350,
		Seed:        11,
		Workers:     8,
		// Replication allowance generous under -race; the per-read
		// budget below is what the bounded side is actually held to
		// relative to the oracle.
		Budget:    10 * time.Second,
		ReadStale: 25 * time.Millisecond,
		DualRead:  true,
		Phases: []Phase{
			{Name: "steady", Duration: phaseDur},
			{Name: "rebalance", Duration: phaseDur, Event: EventRebalance},
			{Name: "kill", Duration: phaseDur, Event: EventKill},
		},
		Servers:          3,
		FailoverInterval: 100 * time.Millisecond,
		FailoverMisses:   5,
		Logf:             t.Logf,
	}
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checker.Violations != 0 {
		t.Fatalf("oracle violations (%d): %v", rep.Checker.Violations, rep.Checker.Samples)
	}
	if rep.Checker.DualChecks == 0 {
		t.Fatalf("no dual reads audited: %+v", rep.Checker)
	}
	if rep.Checker.BoundedChecks < rep.Checker.DualChecks {
		t.Fatalf("bounded counter below dual counter: %+v", rep.Checker)
	}
	if rep.Checker.PostsAcked == 0 || rep.Checker.RowsVerified == 0 {
		t.Fatalf("oracle audited nothing: %+v", rep.Checker)
	}
	if !rep.DualRead || rep.ReadStaleMs != 25 {
		t.Fatalf("report config echo wrong: dual=%v read_stale_ms=%d", rep.DualRead, rep.ReadStaleMs)
	}
	t.Logf("oracle: %d dual reads, %d rows verified, lag p99 %dµs",
		rep.Checker.DualChecks, rep.Checker.RowsVerified, rep.Checker.LagP99us)
}

// TestFreshnessOracleUnderEviction is the dual-read oracle over timeline
// members short of memory (connect mode, so the test owns the servers
// and can set their limits): base ranges and timelines are evicted and
// reloaded under the stream, reads restart on missing data and apply
// subscription deltas they had to wait for, and a bound moves
// mid-stream. The bounded side may still never trail the fresh side by
// more than its budget, and neither may lose or fabricate a row.
func TestFreshnessOracleUnderEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster scenario")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const users = 50_000
	servers := make([]*server.Server, 3)
	addrs := make([]string, len(servers))
	for i := range servers {
		cfg := server.Config{Name: fmt.Sprintf("ev%d", i)}
		if i > 0 { // member 0 homes p| and s|: that is the data, not a cache
			cfg.Engine = core.Options{MemLimit: 192 << 10}
		}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if addrs[i], err = s.Start(); err != nil {
			t.Fatal(err)
		}
		servers[i] = s
	}
	phaseDur := 500 * time.Millisecond
	rep, err := Run(ctx, Config{
		Users:       users,
		ActiveUsers: 800,
		Follows:     8,
		TrackEvery:  4,
		Rate:        350,
		Seed:        12,
		Workers:     8,
		Budget:      10 * time.Second,
		ReadStale:   25 * time.Millisecond,
		DualRead:    true,
		Phases: []Phase{
			{Name: "steady", Duration: phaseDur},
			{Name: "rebalance", Duration: phaseDur, Event: EventRebalance},
			{Name: "settle", Duration: phaseDur},
		},
		Addrs:  addrs,
		Bounds: boundsFor(len(addrs), users),
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checker.Violations != 0 {
		t.Fatalf("oracle violations (%d): %v", rep.Checker.Violations, rep.Checker.Samples)
	}
	if rep.Checker.DualChecks == 0 || rep.Checker.RowsVerified == 0 {
		t.Fatalf("oracle audited nothing: %+v", rep.Checker)
	}
	var st core.Stats
	for _, s := range servers[1:] {
		st.Add(s.Pool().Stats())
	}
	if st.Evictions == 0 || st.Restarts == 0 {
		t.Fatalf("the limit forced %d evictions and %d restarts; the variant must exercise both", st.Evictions, st.Restarts)
	}
	t.Logf("oracle: %d dual reads, %d rows verified; %d evictions, %d restarts, %d loads in %d batches",
		rep.Checker.DualChecks, rep.Checker.RowsVerified, st.Evictions, st.Restarts, st.LoadsStarted, st.LoadBatches)
}
