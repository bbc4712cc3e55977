package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	pcluster "pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/server"
)

// ClusterRebalanceRow is one configuration's measurement from
// ClusterRebalance.
type ClusterRebalanceRow struct {
	Rebalance  bool
	QPS        float64 // steady-state timeline checks per second
	Speedup    float64 // QPS relative to the static partition
	Migrations int64   // server-to-server range moves the rebalancer ran
	HotShare   float64 // hottest server's fraction of the served load
}

// ClusterRebalance measures what client-driven cluster rebalancing buys
// under skew. Four networked servers are partitioned with the worst
// realistic bounds (every real key lands on the last member); a
// Zipf-skewed closed-loop timeline-check stream hammers the cluster with
// rebalancing off, then on. The static cluster funnels every check
// through one server; the rebalancer polls per-server load through the
// stat RPC, migrates hot timeline ranges live between servers
// (ExtractRange/SpliceRange/MapUpdate on the wire) under the same
// traffic, and the hottest server's served share — near 100% statically
// — drops toward 1/members. Timelines are verified byte-identical to a
// reference before anything is timed.
func ClusterRebalance(sc Scale, out io.Writer) ([]ClusterRebalanceRow, error) {
	const nServers = 4
	users := sc.Users
	if users < 64 {
		users = 64
	}
	// A few timeline rows per user; the hot users' rows form contiguous
	// hot key ranges a boundary move can spread.
	var pairs []core.KV
	for u := 0; u < users; u++ {
		for p := 0; p < 3; p++ {
			pairs = append(pairs, core.KV{
				Key:   fmt.Sprintf("t|u%07d|%04d", u, p),
				Value: "cluster-rebalance tweet body",
			})
		}
	}
	want := append([]core.KV(nil), pairs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })

	totalChecks := users * sc.ChecksPerUser
	if totalChecks < 6000 {
		totalChecks = 6000
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(sc.seedAt(45))), 1.2, 8, uint64(users-1))
	checks := make([]int32, totalChecks)
	for i := range checks {
		checks[i] = int32(zipf.Uint64())
	}

	fprintf(out, "ClusterRebalance (%s): %d users, %d Zipf checks, %d workers, %d servers, clustered bounds\n",
		sc.Name, users, totalChecks, sc.Workers, nServers)

	ctx := context.Background()
	var rows []ClusterRebalanceRow
	for _, reb := range []bool{false, true} {
		cl, closeAll, err := startCluster(ctx, nServers)
		if err != nil {
			return nil, err
		}
		if err := cl.PutBatch(ctx, pairs); err != nil {
			closeAll()
			return nil, err
		}
		if reb {
			cl.SetRebalanceConfig(pcluster.Rebalance{Ratio: 1.25, MinOps: 64})
			// Adaptation phase: serve the skewed stream and tick the
			// rebalancer until it stops moving ranges (the quiet window
			// outlasts the post-migration cooldown).
			quiet, prev := 0, int64(0)
			for pass := 0; pass < 80 && quiet < 8; pass++ {
				driveClusterChecks(ctx, cl, checks[:min(len(checks), 2048)], sc.Workers)
				if _, err := cl.RebalanceTick(ctx); err != nil {
					closeAll()
					return nil, err
				}
				if st := cl.RebalancerStats(); st.Migrations == prev && st.Migrations > 0 {
					quiet++
				} else {
					quiet, prev = 0, cl.RebalancerStats().Migrations
				}
			}
		}
		got, err := cl.Scan(ctx, "t|", "t}", 0)
		if err == nil {
			err = kvsEqual(got, want)
		}
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("rebalance=%v timelines diverge: %w", reb, err)
		}
		before, err := cl.MemberLoads(ctx)
		if err != nil {
			closeAll()
			return nil, err
		}
		qps := float64(totalChecks) / driveClusterChecks(ctx, cl, checks, sc.Workers).Seconds()
		after, err := cl.MemberLoads(ctx)
		if err != nil {
			closeAll()
			return nil, err
		}
		hotShare := hotUnitShare(unitsOf(before), unitsOf(after))
		st := cl.RebalancerStats()
		closeAll()

		row := ClusterRebalanceRow{Rebalance: reb, QPS: qps, Migrations: st.Migrations, HotShare: hotShare}
		row.Speedup = 1
		if len(rows) > 0 {
			row.Speedup = qps / rows[0].QPS
		}
		rows = append(rows, row)
		fprintf(out, "  rebalance=%-5v %9.0f checks/s  (%.2fx, %d migrations, hottest server served %.0f%%)\n",
			row.Rebalance, row.QPS, row.Speedup, row.Migrations, 100*row.HotShare)
	}
	return rows, nil
}

// startCluster launches n loopback servers whose partition crams every
// real (table-prefixed) key onto the last member, and a cluster client
// over them.
func startCluster(ctx context.Context, n int) (*pcluster.Cluster, func(), error) {
	var servers []*server.Server
	closeAll := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	addrs := make([]string, n)
	bounds := make([]string, n-1)
	for i := range bounds {
		// "\x01", "\x02", ...: far below any printable table prefix.
		bounds[i] = string(rune(i + 1))
	}
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{Name: fmt.Sprintf("m%d", i)})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		servers = append(servers, s)
		if addrs[i], err = s.Start(); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	cl, err := pcluster.New(ctx, pcluster.Config{Addrs: addrs, Bounds: bounds})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	all := func() {
		cl.Close()
		closeAll()
	}
	return cl, all, nil
}

// driveClusterChecks serves the check stream closed-loop with the given
// worker count and returns the elapsed wall time. Each check is one
// timeline scan through the cluster client (pipelined per server). The
// rebalance and elasticity runs share it.
func driveClusterChecks(ctx context.Context, cl *pcluster.Cluster, users []int32, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	chunk := (len(users) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(users) {
			break
		}
		hi := min(lo+chunk, len(users))
		wg.Add(1)
		go func(mine []int32) {
			defer wg.Done()
			for _, u := range mine {
				lo := fmt.Sprintf("t|u%07d|", u)
				cl.Scan(ctx, lo, lo[:len(lo)-1]+"}", 0)
			}
		}(users[lo:hi])
	}
	wg.Wait()
	return time.Since(start)
}

// hotUnitShare returns the hottest member's fraction of the load served
// between two cumulative load snapshots.
func hotUnitShare(before, after []float64) float64 {
	total, hot := 0.0, 0.0
	for i := range after {
		d := after[i] - before[i]
		total += d
		if d > hot {
			hot = d
		}
	}
	if total == 0 {
		return 0
	}
	return hot / total
}

// unitsOf projects member loads onto the float slice hotUnitShare wants.
func unitsOf(ls []pcluster.MemberLoad) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = float64(l.Units)
	}
	return out
}
