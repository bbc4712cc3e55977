package pequod

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), plus the §4 optimization ablations. Each regenerates
// the corresponding result at a laptop scale (DESIGN.md "Evaluation"
// lists them); cmd/repro runs the same experiments with nicer output and
// configurable scales, and its output is the paper-vs-measured record.
//
// Run all:   go test -bench=. -benchmem
// One table: go test -bench=BenchmarkFig7 -benchtime=1x

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pequod/internal/experiments"
	"pequod/internal/loadgen"
	"pequod/internal/partition"
	"pequod/internal/twip"
)

// metricName makes a label safe as a testing.B metric unit (no spaces).
func metricName(s string) string {
	return strings.ReplaceAll(s, " ", "_")
}

// benchScale picks a scale small enough for repeated benchmark runs.
var benchScale = experiments.Tiny

// BenchmarkFig7SystemComparison regenerates Figure 7 ("Time to process a
// Twip experiment to completion"): Pequod vs Redis vs client Pequod vs
// memcached vs PostgreSQL. Reported metric: runtime ratio vs Pequod
// (paper: 1.00 / 1.33 / 1.64 / 3.98 / 9.55).
func BenchmarkFig7SystemComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Ratio, metricName(r.System)+"_ratio")
			}
		}
	}
}

// BenchmarkFig8Materialization regenerates Figure 8: runtime of no/full/
// dynamic materialization as the active-user percentage (and with it the
// check:post ratio) sweeps.
func BenchmarkFig8Materialization(b *testing.B) {
	for _, pct := range []int{1, 10, 50, 90, 100} {
		b.Run(fmt.Sprintf("active=%d", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig8(benchScale, []int{pct}, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					for _, r := range rows {
						b.ReportMetric(r.Runtime.Seconds(), shortName(r.Strategy)+"_s")
					}
				}
			}
		})
	}
}

func shortName(s string) string {
	switch s {
	case "No materialization":
		return "none"
	case "Full materialization":
		return "full"
	case "Dynamic materialization":
		return "dynamic"
	}
	return s
}

// BenchmarkFig9NewpJoinChoice regenerates Figure 9: interleaved vs
// non-interleaved Newp page assembly across vote rates (paper crossover
// ~90% votes).
func BenchmarkFig9NewpJoinChoice(b *testing.B) {
	for _, vr := range []int{0, 25, 50, 75, 100} {
		b.Run(fmt.Sprintf("votes=%d", vr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig9(benchScale, []int{vr}, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					for _, r := range rows {
						b.ReportMetric(r.Runtime.Seconds(), metricName(r.Strategy)+"_s")
					}
				}
			}
		})
	}
}

// BenchmarkFig10Scalability regenerates Figure 10: aggregate timeline
// throughput as compute servers are added against a fixed base store
// (paper: 3x from 12→48 servers; here 1→4).
func BenchmarkFig10Scalability(b *testing.B) {
	for _, nc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("compute=%d", nc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig10(benchScale, []int{nc}, 2, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(rows[0].QPS, "qps")
				}
			}
		})
	}
}

// BenchmarkShardScaling measures within-process read scaling: closed-loop
// multi-goroutine timeline checks against the embedded shard pool as the
// shard count sweeps (target: ≥2x at 4 shards on a 4+ core machine;
// sharded results are verified byte-identical to a single engine inside
// the experiment).
func BenchmarkShardScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ShardScale(benchScale, []int{1, 2, 4}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.QPS, fmt.Sprintf("qps_%dshard", r.Shards))
				b.ReportMetric(r.Speedup, fmt.Sprintf("speedup_%dshard", r.Shards))
			}
		}
	}
}

// BenchmarkAblationOutputHints regenerates the §4.2 measurement (paper:
// 1.11x faster with output hints).
func BenchmarkAblationOutputHints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationOutputHints(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].Runtime.Seconds()/rows[1].Runtime.Seconds(), "speedup_x")
		}
	}
}

// BenchmarkAblationValueSharing regenerates the §4.3 measurement (paper:
// 1.14x less memory with value sharing).
func BenchmarkAblationValueSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationValueSharing(benchScale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(rows[0].Bytes)/float64(rows[1].Bytes), "memratio_x")
		}
	}
}

// BenchmarkEmbeddedOps micro-benchmarks the embedded cache's hot paths
// with the timeline join installed: the per-op costs underlying every
// macro result above.
func BenchmarkEmbeddedOps(b *testing.B) {
	ctx := context.Background()
	setup := func() *Cache {
		c, err := NewCache(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Install(ctx, "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>"); err != nil {
			b.Fatal(err)
		}
		for u := 0; u < 100; u++ {
			for p := 0; p < 20; p++ {
				c.Put(ctx, fmt.Sprintf("s|u%07d|u%07d", u, (u+p+1)%100), "1")
			}
		}
		for p := 0; p < 100; p++ {
			for i := 0; i < 50; i++ {
				c.Put(ctx, fmt.Sprintf("p|u%07d|%010d", p, i), "tweet body text")
			}
		}
		// Warm all timelines.
		for u := 0; u < 100; u++ {
			r := ScanRange("t", fmt.Sprintf("u%07d", u))
			c.Scan(ctx, r.Lo, r.Hi, 0)
		}
		return c
	}

	b.Run("PostFanout", func(b *testing.B) {
		c := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each post eagerly updates ~20 materialized timelines.
			c.Put(ctx, fmt.Sprintf("p|u%07d|%010d", i%100, 1000+i), "new tweet")
		}
	})
	b.Run("WarmTimelineScan", func(b *testing.B) {
		c := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := ScanRange("t", fmt.Sprintf("u%07d", i%100))
			c.Scan(ctx, r.Lo, r.Hi, 0)
		}
	})
	b.Run("IncrementalCheck", func(b *testing.B) {
		c := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := fmt.Sprintf("u%07d", i%100)
			c.Scan(ctx, JoinKey("t", u, fmt.Sprintf("%010d", 40)), PrefixEnd(JoinKey("t", u)+"|"), 0)
		}
	})
}

// BenchmarkOpenLoop runs the open-loop million-user harness at CI
// scale: a 100k-user universe with Zipf celebrity skew driven at a
// fixed arrival rate (latency measured from scheduled arrival, so
// queueing delay is charged — no coordinated omission) across the full
// chaos script — steady, live join, drain, bound rebalance, warm
// restart, member kill + automatic repair — with the online checker
// auditing sampled timelines throughout. Reported metrics: steady-state
// p50/p99/p999 and achieved vs offered throughput. Any checker
// violation fails the benchmark. cmd/pequod-load runs the same harness
// at full scale.
func BenchmarkOpenLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		rep, err := loadgen.Run(ctx, loadgen.Config{
			Users:       100_000,
			ActiveUsers: 1000,
			Rate:        400,
			Seed:        1,
			Workers:     8,
			Budget:      10 * time.Second,
			Phases:      loadgen.StandardPhases(500 * time.Millisecond),
			Servers:     4,
			DataDir:     b.TempDir(),
			// Shared-runner tolerance: at the 25ms×3 default a scheduling
			// pause reads as death and a false repair loses warm copies.
			FailoverInterval: 100 * time.Millisecond,
			FailoverMisses:   5,
		})
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Checker.Violations != 0 {
			b.Fatalf("checker violations (%d): %v", rep.Checker.Violations, rep.Checker.Samples)
		}
		if i == b.N-1 {
			steady := rep.Phases[0]
			b.ReportMetric(float64(steady.P50us), "steady_p50_us")
			b.ReportMetric(float64(steady.P99us), "steady_p99_us")
			b.ReportMetric(float64(steady.P999us), "steady_p999_us")
			b.ReportMetric(steady.OfferedRate, "offered_ops_s")
			b.ReportMetric(steady.AchievedRate, "achieved_ops_s")
			b.ReportMetric(float64(rep.Checker.RowsVerified), "rows_verified")
		}
	}
}

// BenchmarkBoundedStaleness holds the bounded-staleness contract's
// economics visible. The workload models a mixed fleet under
// write-heavy subscription churn: a background reader keeps fresh
// traffic flowing over every timeline (the maintenance pressure any
// real deployment has), while the measured reader interleaves edge
// toggles — each lazily invalidating the timeline about to be read —
// with timeline scans. A measured fresh scan races the background
// reader for the pending maintenance and pays the apply whenever it
// gets there first; a scan carrying a staleness budget serves the
// materialized rows as they stand whenever the backlog is younger
// than the budget, keeping the apply off its critical path entirely.
// Both modes run the identical workload; reported metrics are each
// mode's scan p50/p99 plus the engine counter that proves the bounded
// path actually engaged (bounded_srv > 0).
func BenchmarkBoundedStaleness(b *testing.B) {
	ctx := context.Background()
	const (
		users         = 128
		follows       = 16
		posts         = 64
		iters         = 4000
		writesPerRead = 4
		// The background reader cycles all timelines in well under the
		// budget, so a bounded read's backlog is always young enough to
		// skip; an over-budget backlog would fall back to the fresh
		// path (applying it all), per the contract.
		budget = 100 * time.Millisecond
	)
	uid := func(u int) string { return fmt.Sprintf("u%07d", ((u%users)+users)%users) }
	setup := func() *Cache {
		c, err := NewCache(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Install(ctx, "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>"); err != nil {
			b.Fatal(err)
		}
		for u := 0; u < users; u++ {
			for f := 0; f < follows; f++ {
				c.Put(ctx, JoinKey("s", uid(u), uid(u+f+1)), "1")
			}
		}
		for p := 0; p < users; p++ {
			for i := 0; i < posts; i++ {
				c.Put(ctx, JoinKey("p", uid(p), fmt.Sprintf("%010d", i)), "tweet body text")
			}
		}
		for u := 0; u < users; u++ {
			r := ScanRange("t", uid(u))
			if _, err := c.Scan(ctx, r.Lo, r.Hi, 0); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	run := func(c *Cache, rctx context.Context) *loadgen.Hist {
		// The background reader: continuous fresh scans round-robin over
		// every timeline — the rest of the fleet's traffic, which is what
		// keeps maintenance backlogs young in any real deployment.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; ; u++ {
				select {
				case <-stop:
					return
				default:
				}
				r := ScanRange("t", uid(u))
				if _, err := c.Scan(ctx, r.Lo, r.Hi, 0); err != nil {
					return
				}
			}
		}()
		defer func() { close(stop); wg.Wait() }()
		h := &loadgen.Hist{}
		toggle := make([]bool, users)
		for i := 0; i < iters; i++ {
			// Write-heavy churn on the check source: toggle one
			// subscription edge for the user about to be read (and its
			// neighbors), so every scan finds lazily-logged maintenance
			// pending against its timeline.
			for w := 0; w < writesPerRead; w++ {
				u := (i + w) % users
				edge := JoinKey("s", uid(u), uid(u+follows+1))
				var err error
				if toggle[u] {
					_, err = c.Remove(ctx, edge)
				} else {
					err = c.Put(ctx, edge, "1")
				}
				if err != nil {
					b.Fatal(err)
				}
				toggle[u] = !toggle[u]
			}
			r := ScanRange("t", uid(i))
			t0 := time.Now()
			if _, err := c.Scan(rctx, r.Lo, r.Hi, 0); err != nil {
				b.Fatal(err)
			}
			h.Record(time.Since(t0).Microseconds())
		}
		return h
	}
	for i := 0; i < b.N; i++ {
		freshCache := setup()
		fh := run(freshCache, ctx)
		boundedCache := setup()
		bh := run(boundedCache, WithFreshness(ctx, budget))
		if i < b.N-1 {
			continue
		}
		fs, bs := fh.Snapshot(), bh.Snapshot()
		st := boundedCache.p.Stats()
		b.ReportMetric(float64(fs.Quantile(0.50)), "fresh_p50_us")
		b.ReportMetric(float64(fs.Quantile(0.99)), "fresh_p99_us")
		b.ReportMetric(float64(bs.Quantile(0.50)), "bounded_p50_us")
		b.ReportMetric(float64(bs.Quantile(0.99)), "bounded_p99_us")
		b.ReportMetric(float64(st.BoundedStaleServes), "bounded_srv")
		if st.BoundedStaleServes == 0 {
			b.Fatal("bounded reads never engaged the budget path")
		}
	}
}

// BenchmarkClusterScan measures networked scan fan-out: warm timeline
// scans against a Cluster of 1, 2, and 4 single-shard servers, the
// on-the-wire counterpart of BenchmarkShardScaling. Cross-server ranges
// split by owner, fetch concurrently, and merge at the client.
func BenchmarkClusterScan(b *testing.B) {
	ctx := context.Background()
	const users = 64
	uid := func(u int) string { return fmt.Sprintf("u%03d", u%users) }
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			var addrs []string
			var bounds []string
			for i := 0; i < n; i++ {
				s, err := NewServer(ServerConfig{Name: fmt.Sprintf("b%d", i)})
				if err != nil {
					b.Fatal(err)
				}
				addr, err := s.Start()
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				addrs = append(addrs, addr)
				if i > 0 {
					// Split the timeline table across the members; base
					// tables land on member 0.
					bounds = append(bounds, fmt.Sprintf("t|%s", uid(users*i/n)))
				}
			}
			cl, err := NewCluster(ctx, ClusterConfig{
				Addrs:  addrs,
				Bounds: bounds,
				Joins:  "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>",
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			var pairs []KV
			for u := 0; u < users; u++ {
				for p := 0; p < 8; p++ {
					pairs = append(pairs, KV{Key: JoinKey("s", uid(u), uid(u+p+1)), Value: "1"})
				}
				for i := 0; i < 16; i++ {
					pairs = append(pairs, KV{Key: JoinKey("p", uid(u), fmt.Sprintf("%04d", i)), Value: "tweet body text"})
				}
			}
			if err := cl.PutBatch(ctx, pairs); err != nil {
				b.Fatal(err)
			}
			if err := cl.Quiesce(ctx); err != nil {
				b.Fatal(err)
			}
			// Warm every timeline, then measure: per-user warm scans plus
			// one full cross-server sweep per round.
			for u := 0; u < users; u++ {
				r := ScanRange("t", uid(u))
				if _, err := cl.Scan(ctx, r.Lo, r.Hi, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ScanRange("t", uid(i))
				if _, err := cl.Scan(ctx, r.Lo, r.Hi, 0); err != nil {
					b.Fatal(err)
				}
				if i%users == 0 {
					if _, err := cl.Scan(ctx, "t|", "t}", 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkWarmCheck is the warm read alone, on the embedded benchmark's
// shape: 2 000 users, 40 000 subscriptions, 10 000 popularity-skewed
// posts, a two-shard Cache, every active timeline materialised. check
// reads a timeline from a recent time on, login reads all of it. Keys
// are built before the timer starts, so allocs/op counts the read.
func BenchmarkWarmCheck(b *testing.B) {
	const users, edges, posts, recent = 2000, 40000, 10000, 100
	ctx := context.Background()
	c, err := NewCache(Options{}, WithShards(2), WithBounds(partition.UserBounds(2, users, 7, "u", "t")...))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Install(ctx, twip.Joins); err != nil {
		b.Fatal(err)
	}
	g := twip.Generate(users, edges, 2014)
	for u, ps := range g.Following {
		for _, p := range ps {
			c.Put(ctx, "s|"+twip.UserID(int32(u))+"|"+twip.UserID(p), "1")
		}
	}
	rng := rand.New(rand.NewSource(2015))
	for t := int64(1); t <= posts; t++ {
		c.Put(ctx, "p|"+twip.UserID(g.SamplePoster(rng))+"|"+twip.TimeID(t), strings.Repeat("x", 100))
	}
	c.Quiesce(ctx)
	type read struct{ login, check, hi string }
	reads := make([]read, 0, users*7/10)
	for _, u := range rng.Perm(users)[:cap(reads)] {
		id := twip.UserID(int32(u))
		r := read{login: "t|" + id + "|", check: "t|" + id + "|" + twip.TimeID(posts-recent), hi: "t|" + id + "}"}
		if _, err := c.Scan(ctx, r.login, r.hi, 0); err != nil {
			b.Fatal(err)
		}
		reads = append(reads, r)
	}
	run := func(b *testing.B, lo func(read) string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := reads[i%len(reads)]
			if _, err := c.Scan(ctx, lo(r), r.hi, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("check", func(b *testing.B) { run(b, func(r read) string { return r.check }) })
	b.Run("login", func(b *testing.B) { run(b, func(r read) string { return r.login }) })
}
