package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/shard"
	"pequod/internal/twip"
)

// ShardScaleRow is one shard count's measurement from ShardScale.
type ShardScaleRow struct {
	Shards  int
	QPS     float64 // timeline checks per second, all workers
	Speedup float64 // QPS relative to the single-shard baseline
}

// ShardScale measures within-process read scaling (§5.5 scaled into one
// process): warm timelines served by an in-process shard pool as the
// shard count sweeps. Workers run a closed loop of timeline-check scans
// against a fully materialized Twip dataset — the §5.1 read path with
// the network and write traffic removed, so the measured quantity is
// pure engine concurrency. Every sharded pool's timeline table is first
// verified byte-identical to a single-engine baseline; throughput scales
// with shards only up to GOMAXPROCS.
func ShardScale(sc Scale, shardCounts []int, out io.Writer) ([]ShardScaleRow, error) {
	g := twip.Generate(sc.Users, sc.Edges, sc.seedAt(42))
	posts := twip.GeneratePosts(g, sc.Posts, sc.seedAt(43), sc.TweetLen)

	// The fixed read stream: each worker drains its stripe of a
	// precomputed user sequence with no think time (closed loop).
	totalChecks := sc.Users * sc.ChecksPerUser
	rng := rand.New(rand.NewSource(sc.seedAt(45)))
	users := make([]int32, totalChecks)
	for i := range users {
		users[i] = int32(rng.Intn(g.Users))
	}

	base, err := warmShardPool(g, posts, 1)
	if err != nil {
		return nil, err
	}
	defer base.Close()
	want := base.Scan("t|", "t}", 0, nil, nil)
	baseQPS := float64(totalChecks) / driveShardChecks(base, users, sc.Workers).Seconds()

	fprintf(out, "Shard scaling (%s): %d users, %d checks, %d workers\n",
		sc.Name, g.Users, totalChecks, sc.Workers)
	var rows []ShardScaleRow
	for _, n := range shardCounts {
		qps := baseQPS
		if n != 1 {
			p, err := warmShardPool(g, posts, n)
			if err != nil {
				return nil, err
			}
			got := p.Scan("t|", "t}", 0, nil, nil)
			if err := kvsEqual(got, want); err != nil {
				p.Close()
				return nil, fmt.Errorf("%d-shard timelines diverge from single engine: %w", n, err)
			}
			qps = float64(totalChecks) / driveShardChecks(p, users, sc.Workers).Seconds()
			p.Close()
		}
		row := ShardScaleRow{Shards: n, QPS: qps, Speedup: qps / baseQPS}
		rows = append(rows, row)
		fprintf(out, "  %2d shards: %9.0f checks/s  (%.2fx)\n", row.Shards, row.QPS, row.Speedup)
	}
	return rows, nil
}

// warmShardPool builds an n-shard pool with the timeline table split
// evenly by user (sources below "t|" land on shard 0 and replicate to
// the timeline owners), loads the graph and historical posts, and
// materializes every timeline so the measured loop reads warm data.
func warmShardPool(g *twip.Graph, posts []twip.Op, n int) (*shard.Pool, error) {
	var bounds []string
	if n > 1 {
		bounds = partition.UserBounds(n, g.Users, 7, "u", "t")
	}
	p, err := shard.New(shard.Config{Shards: n, Bounds: bounds})
	if err != nil {
		return nil, err
	}
	if err := p.InstallText(twip.Joins); err != nil {
		p.Close()
		return nil, err
	}
	for u, following := range g.Following {
		uid := twip.UserID(int32(u))
		for _, poster := range following {
			p.Put("s|"+uid+"|"+twip.UserID(poster), "1")
		}
	}
	for _, op := range posts {
		p.Put("p|"+twip.UserID(op.User)+"|"+twip.TimeID(op.Time), op.Text)
	}
	p.Quiesce() // sources fully replicated before timelines compute
	for u := 0; u < g.Users; u++ {
		uid := twip.UserID(int32(u))
		p.Scan("t|"+uid+"|", "t|"+uid+"}", 0, nil, nil)
	}
	p.Quiesce()
	return p, nil
}

// driveShardChecks runs the closed-loop read phase: workers scan their
// stripe of warm timelines as fast as the pool serves them, reusing one
// scan buffer per worker like a pipelining client.
func driveShardChecks(p *shard.Pool, users []int32, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	stripe := (len(users) + workers - 1) / workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := w * stripe
		hi := min(lo+stripe, len(users))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(stripe []int32) {
			defer wg.Done()
			var buf []core.KV
			for _, u := range stripe {
				uid := twip.UserID(u)
				buf = p.Scan("t|"+uid+"|", "t|"+uid+"}", 0, buf[:0], nil)
			}
		}(users[lo:hi])
	}
	wg.Wait()
	return time.Since(start)
}

// kvsEqual reports the first difference between two scan results.
func kvsEqual(got, want []core.KV) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d = %q:%q, want %q:%q",
				i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return nil
}
