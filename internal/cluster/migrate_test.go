package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/server"
	"pequod/internal/shard"
)

// TestMoveBoundMovesData: base rows migrate between servers and every
// access path keeps working — through the coordinating client, and
// through a second, stale client that must learn the new map from
// NotOwner replies.
func TestMoveBoundMovesData(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 4)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds})

	// Rows on both sides of bound 2 ("t|u5", dividing members 2 and 3).
	var want []core.KV
	for i := 0; i < 10; i++ {
		kv := core.KV{Key: fmt.Sprintf("t|u%d|0", i), Value: fmt.Sprintf("v%d", i)}
		want = append(want, kv)
		if err := cl.Put(ctx, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	// A stale observer that never hears about the move directly.
	stale := newCluster(t, Config{Addrs: addrs, Bounds: testBounds})

	// Move [t|u3, t|u5) from member 2 to member 3.
	if err := cl.MoveBound(ctx, 2, "t|u3"); err != nil {
		t.Fatal(err)
	}
	if v := cl.Map().Version(); v != 1 {
		t.Fatalf("map version = %d, want 1", v)
	}
	// All rows still visible, exactly once, through the coordinator.
	kvs, err := cl.Scan(ctx, "t|", "t}", 0)
	if err != nil || !reflect.DeepEqual(kvs, want) {
		t.Fatalf("post-move scan = %v (%v), want %v", kvs, err, want)
	}
	// Point reads and writes land at the new owner.
	if v, ok, err := cl.Get(ctx, "t|u4|0"); err != nil || !ok || v != "v4" {
		t.Fatalf("Get moved key = %q %v %v", v, ok, err)
	}
	if err := cl.Put(ctx, "t|u4|1", "post-move"); err != nil {
		t.Fatal(err)
	}

	// The stale client re-routes via NotOwner: its map is still v0, so
	// its first touch of the moved range bounces off member 2, adopts
	// the v1 map, and retries at member 3.
	if v, ok, err := stale.Get(ctx, "t|u4|1"); err != nil || !ok || v != "post-move" {
		t.Fatalf("stale Get = %q %v %v", v, ok, err)
	}
	if got := stale.Map().Version(); got != 1 {
		t.Fatalf("stale client adopted version %d, want 1", got)
	}
	if err := stale.Put(ctx, "t|u3|9", "stale-write"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(ctx, "t|u3|9"); err != nil || !ok || v != "stale-write" {
		t.Fatalf("stale write lost: %q %v %v", v, ok, err)
	}

	// A direct (cluster-unaware) write to the old owner is refused, not
	// silently dropped.
	raw, err := client.Dial(addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	err = raw.Put("t|u4|raw", "lost?")
	var noe *partition.NotOwnerError
	if !errors.As(err, &noe) || noe.View.Map().Version() != 1 {
		t.Fatalf("direct write to old owner: err = %v, want NotOwnerError v1", err)
	}

	// Move the range back; everything still whole.
	if err := cl.MoveBound(ctx, 2, "t|u5"); err != nil {
		t.Fatal(err)
	}
	n, err := cl.Count(ctx, "t|", "t}")
	if err != nil || n != 12 {
		t.Fatalf("post-return count = %d (%v), want 12", n, err)
	}
}

// TestMoveBoundSameMember: a bound between two ranges served by the
// same member needs no transfer, only a map version bump everywhere.
func TestMoveBoundSameMember(t *testing.T) {
	ctx := context.Background()
	one := startServers(t, 1)
	same := newCluster(t, Config{Addrs: []string{one[0], one[0]}, Bounds: []string{"m"}})
	if err := same.Put(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := same.MoveBound(ctx, 0, "n"); err != nil {
		t.Fatal(err)
	}
	if v := same.Map().Version(); v != 1 {
		t.Fatalf("version = %d", v)
	}
	if v, ok, err := same.Get(ctx, "a"); err != nil || !ok || v != "1" {
		t.Fatalf("Get after same-member move = %q %v %v", v, ok, err)
	}
}

// TestClusterEqualsEmbeddedUnderMigration is the PR's gate: the
// randomized Twip workload against a cluster of four servers — with
// live server-to-server migrations forced mid-workload, moving both
// computed timeline ranges and base source ranges — returns
// byte-identical scans to a single embedded engine.
func TestClusterEqualsEmbeddedUnderMigration(t *testing.T) {
	nSeeds := int64(3)
	nOps := 300
	if testing.Short() {
		nSeeds, nOps = 1, 120
	}
	// Each entry is one forced move: bound index and its new split
	// point. Bound 2 shuffles computed timelines between members 2 and
	// 3; bound 0 shuffles the p| source table between members 0 and 1,
	// exercising presence drops, re-loads, and re-subscription.
	moves := [][2]interface{}{
		{2, "t|u3"},
		{0, "p|u4|"},
		{2, "t|u7"},
		{0, "p|"},
		{2, "t|u5"},
	}
	for seed := int64(1); seed <= nSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctx := context.Background()
			ops := shard.GenTwipOps(seed, nOps, 10)

			single, err := shard.New(shard.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(single.Close)
			if err := single.InstallText(shard.EquivJoins); err != nil {
				t.Fatal(err)
			}

			addrs := startServers(t, 4)
			cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins})

			moveEvery := len(ops)/len(moves) + 1
			next := 0
			for i, o := range ops {
				if i > 0 && i%moveEvery == 0 && next < len(moves) {
					mv := moves[next]
					next++
					if err := cl.MoveBound(ctx, mv[0].(int), mv[1].(string)); err != nil {
						t.Fatalf("move %d: %v", next, err)
					}
				}
				switch o.Kind {
				case shard.OpPut:
					single.Put(o.Key, o.Value)
					if err := cl.Put(ctx, o.Key, o.Value); err != nil {
						t.Fatal(err)
					}
				case shard.OpRemove:
					single.Remove(o.Key)
					if _, err := cl.Remove(ctx, o.Key); err != nil {
						t.Fatal(err)
					}
				case shard.OpScan:
					single.Scan(o.Lo, o.Hi, 0, nil, nil)
					if err := cl.Quiesce(ctx); err != nil {
						t.Fatal(err)
					}
					if _, err := cl.Scan(ctx, o.Lo, o.Hi, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			for next < len(moves) {
				mv := moves[next]
				next++
				if err := cl.MoveBound(ctx, mv[0].(int), mv[1].(string)); err != nil {
					t.Fatalf("trailing move %d: %v", next, err)
				}
			}
			if err := cl.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}

			for _, r := range shard.EquivRanges(seed, 10) {
				want := single.Scan(r[0], r[1], 0, nil, nil)
				got, err := cl.Scan(ctx, r[0], r[1], 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("scan [%q, %q) diverged after migrations:\nembedded %v\ncluster  %v", r[0], r[1], want, got)
				}
			}
		})
	}
}

// TestClusterRebalancerCoolsHotServer: with every real key crammed onto
// one member, skewed reads pin that server; rebalance ticks must move
// ranges to its neighbor and spread the served load, without losing a
// row.
func TestClusterRebalancerCoolsHotServer(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	// Everything real lives above "b|": member 1 serves it all.
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"b|"}})
	const rows = 400
	var pairs []core.KV
	for i := 0; i < rows; i++ {
		pairs = append(pairs, core.KV{Key: fmt.Sprintf("e|k%04d", i), Value: "v"})
	}
	if err := cl.PutBatch(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	cl.SetRebalanceConfig(Rebalance{Ratio: 1.2, MinOps: 32})

	drive := func() {
		var ks []string
		for i := 0; i < rows; i++ {
			ks = append(ks, fmt.Sprintf("e|k%04d", i))
		}
		if _, err := cl.GetBatch(ctx, ks); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for tick := 0; tick < 40 && moved == 0; tick++ {
		drive()
		ok, err := cl.RebalanceTick(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("rebalancer never migrated a range off the hot server")
	}
	st := cl.RebalancerStats()
	if st.Migrations == 0 || st.Version == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Both members now serve part of the load.
	before, err := cl.MemberLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	drive()
	after, err := cl.MemberLoads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i].Units <= before[i].Units {
			t.Fatalf("member %d served nothing after rebalance (units %d -> %d)",
				i, before[i].Units, after[i].Units)
		}
	}
	// No rows were lost in the moves.
	if n, err := cl.Count(ctx, "e|", "e}"); err != nil || n != rows {
		t.Fatalf("count after rebalance = %d (%v), want %d", n, err, rows)
	}
}

// TestClusterMigrationUnderTraffic hammers concurrent readers and
// writers through repeated server-to-server migrations (run with -race
// in CI): every acknowledged write must be immediately readable, and
// the final state must be complete.
func TestClusterMigrationUnderTraffic(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"k|m"}})

	const workers = 4
	const perWorker = 120
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			wcl, err := New(ctx, Config{Addrs: addrs, Bounds: []string{"k|m"}})
			if err != nil {
				errs <- err
				return
			}
			defer wcl.Close()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k|%c%03d", 'a'+byte((w+i)%26), i)
				if err := wcl.Put(ctx, key, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				if v, ok, err := wcl.Get(ctx, key); err != nil || !ok || v != fmt.Sprintf("w%d-%d", w, i) {
					errs <- fmt.Errorf("read-own-write %s = %q %v %v", key, v, ok, err)
					return
				}
				if i%20 == 0 {
					if _, err := wcl.Scan(ctx, "k|", "k}", 0); err != nil {
						errs <- fmt.Errorf("scan: %w", err)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	bounds := []string{"k|f", "k|t", "k|c", "k|m"}
	for i := 0; ; i++ {
		if err := cl.MoveBound(ctx, 0, bounds[i%len(bounds)]); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
			for w := 1; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if n, err := cl.Count(ctx, "k|", "k}"); err != nil || n == 0 {
				t.Fatalf("final count = %d (%v)", n, err)
			}
			return
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestClusterStatsPartialAggregation: a dead member's stats failure
// must not zero the aggregate — the live members' counters come back
// alongside the error.
func TestClusterStatsPartialAggregation(t *testing.T) {
	ctx := context.Background()
	addrs := make([]string, 2)
	var dead func()
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{Name: fmt.Sprintf("m%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		if i == 1 {
			dead = s.Close
		} else {
			t.Cleanup(s.Close)
		}
	}
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}})
	if err := cl.Put(ctx, "a", "1"); err != nil { // member 0
		t.Fatal(err)
	}
	if err := cl.Put(ctx, "z", "2"); err != nil { // member 1
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil || st.Puts != 2 {
		t.Fatalf("healthy Stats = %+v, %v", st, err)
	}
	dead() // kill member 1
	st, err = cl.Stats(ctx)
	if err == nil {
		t.Fatal("Stats with a dead member reported no error")
	}
	if !strings.Contains(err.Error(), addrs[1]) {
		t.Fatalf("error does not name the dead member: %v", err)
	}
	if !errors.Is(err, perrs.ErrMemberDown) {
		t.Fatalf("dead-member error is not ErrMemberDown: %v", err)
	}
	if st.Puts != 1 {
		t.Fatalf("partial aggregate lost the live member: %+v", st)
	}
}
