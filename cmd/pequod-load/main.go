// Command pequod-load is the open-loop load harness: it simulates a
// large Twip user universe posting and reading temporal-bucketed
// timelines against a Pequod cluster at a fixed offered arrival rate —
// arrivals are scheduled by a Poisson clock that never slackens when
// the cluster slows, so the latency distribution is free of
// coordinated omission — while an online checker audits sampled
// timelines for lost acknowledged writes, out-of-budget staleness,
// phantoms, duplicates, and payload corruption as the load runs.
//
// Two modes:
//
//   - Self-contained (default): the harness builds its own durable
//     cluster of -servers members and drives the full chaos script
//     through the Admin API — steady state, live join, drain, bound
//     rebalance, warm restart, and a member kill repaired by the
//     automatic failure detector — all under fire.
//   - Connect (-addrs with -bounds, as for pequod-cli): the harness
//     drives load at an existing deployment. Events that need to own
//     the server processes (join/drain/kill/restart) are rejected;
//     steady phases work, and rebalance phases when -bounds holds a
//     t|u<n> bound for them to move.
//
// The run is fully determined by -seed (printed at start): the social
// graph, the celebrity skew, the arrival schedule, and the operation
// blend all derive from it, so a failing run replays exactly.
//
// Usage:
//
//	pequod-load [flags]
//	pequod-load -addrs a:1,a:2 -bounds 't|' -phases steady [flags]
//
// The per-phase report — offered vs achieved throughput, latency
// quantiles (p50/p99/p999/max, measured from scheduled arrival), the
// member count and the hottest member's share of the served load, plus
// the checker's verdict — is written as JSON to -out ("-" = stdout).
// The process exits 1 if the checker found any violation, so a CI
// smoke step is just: pequod-load -rate 300 -phase-dur 500ms.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pequod/internal/loadgen"
	"pequod/internal/twip"
)

func main() {
	var (
		users      = flag.Int("users", 1_000_000, "simulated universe size (users that can post / be followed)")
		active     = flag.Int("active", 2000, "reader pool actually issuing timeline checks")
		follows    = flag.Int("follows", 8, "mean followee-set size for active users")
		trackEvery = flag.Int("track-every", 16, "every k-th active user is checker-audited")

		rate     = flag.Float64("rate", 2000, "offered arrival rate, ops/sec (open-loop; never slackens)")
		workers  = flag.Int("workers", 16, "concurrent executors draining the arrival queue")
		queue    = flag.Int("queue", 0, "arrival queue depth; 0 = workers*64 (overflow is shed, not back-pressured)")
		budget   = flag.Duration("budget", 2*time.Second, "staleness budget for the online checker")
		tweetLen = flag.Int("tweet-len", 100, "synthetic post payload size, bytes")
		mixFlag  = flag.String("mix", "", "operation blend as login:check:subscribe:post percentages, e.g. 5:70:5:20")
		seed     = flag.Int64("seed", 1, "determinism root: graph, skew, arrivals, and blend all derive from it")

		phases   = flag.String("phases", "steady,join,drain,rebalance,restart,kill", "comma-separated phase script (names are events; 'steady' is traffic only)")
		phaseDur = flag.Duration("phase-dur", 10*time.Second, "traffic duration per phase (extended if its event runs longer)")

		servers     = flag.Int("servers", 4, "self-contained mode: cluster size")
		replicas    = flag.Int("replicas", 2, "self-contained mode: replica copies per range")
		dataDir     = flag.String("data-dir", "", "self-contained mode: root for per-member durable dirs (default: a temp dir; required by the restart event)")
		failEvery   = flag.Duration("failover-interval", 25*time.Millisecond, "self-contained mode: failure-detector probe interval")
		failMisses  = flag.Int("failover-misses", 3, "self-contained mode: missed probes before a member is declared dead")
		addrsFlag   = flag.String("addrs", "", "connect mode: comma-separated member addresses of an existing cluster")
		boundsFlag  = flag.String("bounds", "", "connect mode: comma-separated partition split points (one fewer than -addrs)")
		out         = flag.String("out", "-", "write the JSON report here ('-' = stdout)")
		timeoutFlag = flag.Duration("timeout", 15*time.Minute, "whole-run deadline")
		quiet       = flag.Bool("q", false, "suppress progress output on stderr")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("pequod-load: ")

	cfg := loadgen.Config{
		Users:            *users,
		ActiveUsers:      *active,
		Follows:          *follows,
		TrackEvery:       *trackEvery,
		Rate:             *rate,
		Workers:          *workers,
		Queue:            *queue,
		Budget:           *budget,
		TweetLen:         *tweetLen,
		Seed:             *seed,
		Servers:          *servers,
		Replicas:         *replicas,
		DataDir:          *dataDir,
		FailoverInterval: *failEvery,
		FailoverMisses:   *failMisses,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	var err error
	if cfg.Mix, err = parseMix(*mixFlag); err != nil {
		log.Fatal(err)
	}
	if cfg.Phases, err = parsePhases(*phases, *phaseDur); err != nil {
		log.Fatal(err)
	}
	if *addrsFlag != "" {
		cfg.Addrs = strings.Split(*addrsFlag, ",")
		if *boundsFlag != "" {
			cfg.Bounds = strings.Split(*boundsFlag, ",")
		}
		if len(cfg.Bounds) != len(cfg.Addrs)-1 {
			log.Fatalf("connect mode: %d addrs need %d -bounds split points, have %d",
				len(cfg.Addrs), len(cfg.Addrs)-1, len(cfg.Bounds))
		}
	} else if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "pequod-load-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
	defer cancel()

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(rep.JSON()); err != nil {
		log.Fatal(err)
	}

	if rep.Checker.Violations != 0 {
		log.Printf("FAIL: %d checker violations (kinds: %v); replay with -seed %d",
			rep.Checker.Violations, rep.Checker.ViolationKinds, rep.Seed)
		for _, s := range rep.Checker.Samples {
			log.Printf("  %s", s)
		}
		os.Exit(1)
	}
	if !*quiet {
		log.Printf("OK: %d posts tracked, %d checks audited, %d rows verified, 0 violations (seed %d)",
			rep.Checker.PostsTracked, rep.Checker.ChecksAudited, rep.Checker.RowsVerified, rep.Seed)
	}
}

// parseMix reads "login:check:subscribe:post" percentages; empty means
// the loadgen default blend.
func parseMix(s string) (twip.Mix, error) {
	if s == "" {
		return twip.Mix{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return twip.Mix{}, fmt.Errorf("-mix wants login:check:subscribe:post, got %q", s)
	}
	var pct [4]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return twip.Mix{}, fmt.Errorf("-mix component %q: want a non-negative integer", p)
		}
		pct[i] = n
	}
	m := twip.Mix{Login: pct[0], Check: pct[1], Subscribe: pct[2], Post: pct[3]}
	if m.Total() != 100 {
		return twip.Mix{}, fmt.Errorf("-mix percentages sum to %d, want 100", m.Total())
	}
	return m, nil
}

// parsePhases turns the comma-separated script into loadgen phases:
// each name is an event ("join", "drain", "rebalance", "restart",
// "kill") except "steady", which is traffic only. Names may repeat.
func parsePhases(s string, d time.Duration) ([]loadgen.Phase, error) {
	var out []loadgen.Phase
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ph := loadgen.Phase{Name: name, Duration: d}
		switch name {
		case "steady":
		case loadgen.EventJoin, loadgen.EventDrain, loadgen.EventRebalance,
			loadgen.EventKill, loadgen.EventRestart:
			ph.Event = name
		default:
			return nil, fmt.Errorf("unknown phase %q (want steady, join, drain, rebalance, restart, or kill)", name)
		}
		out = append(out, ph)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty phase script")
	}
	return out, nil
}
