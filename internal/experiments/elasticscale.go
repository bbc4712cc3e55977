package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	pcluster "pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/server"
)

// ElasticScaleRow is one phase's measurement from ElasticScale.
type ElasticScaleRow struct {
	Phase   string  // "3 members", "joined (4)", "drained (3)"
	Members int     // distinct servers serving
	QPS     float64 // steady-state timeline checks per second
	Speedup float64 // QPS relative to the first phase
}

// ElasticScale traces aggregate throughput while a cluster grows and
// shrinks live: three networked servers serve a uniform closed-loop
// timeline-check stream; a fourth server joins under that traffic
// (Cluster.AddServer — JoinCluster wiring, an extract/splice granting
// it the busiest member's upper slice, a published grown map) and the
// stream is measured again; then the new member drains back out
// (Cluster.DrainServer streams its ranges to the neighbors) and the
// stream is measured a third time. Timelines are verified byte-
// identical to a reference before each timed phase, so the elasticity
// is exercised for correctness as well as throughput. With single-shard
// members each server serializes its reads, so the join's extra server
// raises aggregate throughput when cores are available; the drain gives
// that gain back.
func ElasticScale(sc Scale, out io.Writer) ([]ElasticScaleRow, error) {
	const nServers = 3
	users := sc.Users
	if users < 64 {
		users = 64
	}
	var pairs []core.KV
	for u := 0; u < users; u++ {
		for p := 0; p < 3; p++ {
			pairs = append(pairs, core.KV{
				Key:   fmt.Sprintf("t|u%07d|%04d", u, p),
				Value: "elastic-scale tweet body",
			})
		}
	}
	want := append([]core.KV(nil), pairs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })

	totalChecks := users * sc.ChecksPerUser
	if totalChecks < 6000 {
		totalChecks = 6000
	}
	checks := make([]int32, totalChecks)
	for i := range checks {
		checks[i] = int32(i % users)
	}

	fprintf(out, "ElasticScale (%s): %d users, %d checks, %d workers, %d servers growing to %d and back\n",
		sc.Name, users, totalChecks, sc.Workers, nServers, nServers+1)

	ctx := context.Background()
	var servers []*server.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	addrs := make([]string, nServers)
	bounds := partition.UserBounds(nServers, users, 7, "u", "t")
	for i := 0; i < nServers; i++ {
		s, err := server.New(server.Config{Name: fmt.Sprintf("m%d", i)})
		if err != nil {
			return nil, err
		}
		servers = append(servers, s)
		if addrs[i], err = s.Start(); err != nil {
			return nil, err
		}
	}
	cl, err := pcluster.New(ctx, pcluster.Config{Addrs: addrs, Bounds: bounds})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if err := cl.PutBatch(ctx, pairs); err != nil {
		return nil, err
	}

	fresh, err := server.New(server.Config{Name: "joiner"})
	if err != nil {
		return nil, err
	}
	servers = append(servers, fresh)
	freshAddr, err := fresh.Start()
	if err != nil {
		return nil, err
	}

	var rows []ElasticScaleRow
	measure := func(phase string) error {
		got, err := cl.Scan(ctx, "t|", "t}", 0)
		if err == nil {
			err = kvsEqual(got, want)
		}
		if err != nil {
			return fmt.Errorf("%s: timelines diverge: %w", phase, err)
		}
		// One warm pass so every member's coverage is materialized before
		// the timed pass.
		driveClusterChecks(ctx, cl, checks[:min(len(checks), 2048)], sc.Workers)
		qps := float64(totalChecks) / driveClusterChecks(ctx, cl, checks, sc.Workers).Seconds()
		row := ElasticScaleRow{Phase: phase, Members: cl.Members(), QPS: qps, Speedup: 1}
		if len(rows) > 0 {
			row.Speedup = qps / rows[0].QPS
		}
		rows = append(rows, row)
		fprintf(out, "  %-12s %d members %9.0f checks/s  (%.2fx)\n", phase, row.Members, row.QPS, row.Speedup)
		return nil
	}

	if err := measure("static"); err != nil {
		return nil, err
	}
	// Grow under traffic: run the check stream concurrently with the
	// join so the elasticity is exercised live, then measure.
	var wg sync.WaitGroup
	wg.Add(1)
	var joinErr error
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond) // land mid-stream
		joinErr = cl.AddServer(ctx, freshAddr)
	}()
	driveClusterChecks(ctx, cl, checks, sc.Workers)
	wg.Wait()
	if joinErr != nil {
		return nil, fmt.Errorf("joining %s: %w", freshAddr, joinErr)
	}
	if err := measure("joined"); err != nil {
		return nil, err
	}
	// Shrink back, also under traffic.
	wg.Add(1)
	var drainErr error
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		drainErr = cl.DrainServer(ctx, freshAddr)
	}()
	driveClusterChecks(ctx, cl, checks, sc.Workers)
	wg.Wait()
	if drainErr != nil {
		return nil, fmt.Errorf("draining %s: %w", freshAddr, drainErr)
	}
	if err := measure("drained"); err != nil {
		return nil, err
	}
	return rows, nil
}
