package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/server"
	"pequod/internal/shard"
)

// testBounds mirror the shard package's equivalence bounds: base tables
// split away from the computed timelines, and the timeline table split
// down the middle, so joins always straddle members.
var testBounds = []string{"p|", "t|", "t|u5"}

// startServers launches n single-shard servers and returns their
// addresses. With PEQUOD_TEST_DATADIR set each server persists to its
// own temp dir, re-running the whole suite with durability on (and,
// with PEQUOD_TEST_SCRUB also set, with the lineage scrub and
// compaction loops racing the workload — see durableServerConfig).
func startServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := server.Config{Name: fmt.Sprintf("m%d", i), DataDir: testDataDir(t)}
		if cfg.DataDir != "" {
			cfg = durableServerConfig(cfg.Name, cfg.DataDir)
		}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addrs[i] = addr
	}
	return addrs
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestRoutingAndPointOps(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 4)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds})
	if cl.Members() != 4 {
		t.Fatalf("Members = %d", cl.Members())
	}
	for i, key := range []string{"a|1", "p|u1|9", "t|u2|5", "t|u7|5"} {
		if err := cl.Put(ctx, key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, key := range []string{"a|1", "p|u1|9", "t|u2|5", "t|u7|5"} {
		v, found, err := cl.Get(ctx, key)
		if err != nil || !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%q) = %q %v %v", key, v, found, err)
		}
		// The key landed on exactly its owning member.
		c, err := cl.conn(ctx, cl.v.Load().Addrs()[i])
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats(ctx)
		if err != nil || st.Puts != 1 {
			t.Fatalf("member %d puts = %d (%v)", i, st.Puts, err)
		}
	}
	found, err := cl.Remove(ctx, "t|u7|5")
	if err != nil || !found {
		t.Fatalf("Remove = %v %v", found, err)
	}
	if n, err := cl.Count(ctx, "", ""); err != nil || n != 3 {
		t.Fatalf("Count = %d %v", n, err)
	}
	kvs, err := cl.Scan(ctx, "", "", 0)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("Scan = %v %v", kvs, err)
	}
	if kvs, err = cl.Scan(ctx, "", "", 2); err != nil || len(kvs) != 2 {
		t.Fatalf("limited Scan = %v %v", kvs, err)
	}
}

func TestBatches(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 4)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds})
	var pairs []core.KV
	for i := 0; i < 40; i++ {
		pairs = append(pairs, core.KV{Key: fmt.Sprintf("t|u%d|%02d", i%10, i), Value: fmt.Sprintf("v%d", i)})
	}
	if err := cl.PutBatch(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	gets := []string{"t|u0|00", "t|u9|39", "t|u4|nope"}
	ls, err := cl.GetBatch(ctx, gets)
	if err != nil {
		t.Fatal(err)
	}
	if !ls[0].Found || ls[0].Value != "v0" || !ls[1].Found || ls[1].Value != "v39" || ls[2].Found {
		t.Fatalf("GetBatch = %+v", ls)
	}
	scans, err := cl.ScanBatch(ctx, []keys.Range{
		{Lo: "t|u0|", Hi: "t|u0}"},
		{Lo: "t|u9|", Hi: "t|u9}"},
		{Lo: "nope|", Hi: "nope}"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scans[0]) != 4 || len(scans[1]) != 4 || len(scans[2]) != 0 {
		t.Fatalf("ScanBatch sizes = %d %d %d", len(scans[0]), len(scans[1]), len(scans[2]))
	}
}

// TestJoinFreshnessAcrossMembers is the §2.4 story end to end: sources
// live on one member, computed timelines on others; reads anywhere see
// writes anywhere once quiesced.
func TestJoinFreshnessAcrossMembers(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 4)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cl.Put(ctx, "s|u2|u8", "1"))
	must(cl.Put(ctx, "s|u7|u8", "1"))
	must(cl.Put(ctx, "p|u8|100", "Hi"))
	must(cl.Quiesce(ctx))
	// u2's timeline is on member 2, u7's on member 3; both computed from
	// member 1's base data.
	for _, u := range []string{"u2", "u7"} {
		kvs, err := cl.Scan(ctx, "t|"+u+"|", "t|"+u+"}", 0)
		must(err)
		if len(kvs) != 1 || kvs[0].Key != "t|"+u+"|100|u8" || kvs[0].Value != "Hi" {
			t.Fatalf("timeline %s = %v", u, kvs)
		}
	}
	// Incremental maintenance across members: a new post at its home
	// reaches both materialized timelines through the subscriptions.
	must(cl.Put(ctx, "p|u8|150", "again"))
	must(cl.Quiesce(ctx))
	for _, u := range []string{"u2", "u7"} {
		if v, ok, err := cl.Get(ctx, "t|"+u+"|150|u8"); err != nil || !ok || v != "again" {
			t.Fatalf("timeline %s missed the new post: %q %v %v", u, v, ok, err)
		}
	}
	// Removal propagates too.
	if _, err := cl.Remove(ctx, "p|u8|100"); err != nil {
		t.Fatal(err)
	}
	must(cl.Quiesce(ctx))
	if _, ok, _ := cl.Get(ctx, "t|u2|100|u8"); ok {
		t.Fatal("removed post still on timeline")
	}
	// The cascade: archives copy timelines across member boundaries.
	kvs, err := cl.Scan(ctx, "z|u2|", "z|u2}", 0)
	must(err)
	if len(kvs) != 1 || kvs[0].Key != "z|u2|150|u8" {
		t.Fatalf("archive = %v", kvs)
	}
}

// TestClusterEqualsEmbeddedCache is the equivalence property the issue
// asks for: a Cluster over N single-shard servers returns byte-identical
// Scan/Count results to one embedded cache (a single-engine shard.Pool)
// under the randomized Twip workload, including interleaved reads that
// materialize joins at varied moments.
func TestClusterEqualsEmbeddedCache(t *testing.T) {
	nSeeds := int64(3)
	nOps := 300
	if testing.Short() {
		nSeeds, nOps = 1, 120
	}
	for seed := int64(1); seed <= nSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := newCluster(t, Config{Addrs: startServers(t, 4), Bounds: testBounds, Joins: shard.EquivJoins})
			checkEqualsEmbedded(t, cl, seed, nOps)
		})
	}
}

// TestClusterEqualsEmbeddedUnderEviction is the same property with the
// computing members short of memory: the limit of the two members that
// own t| and z| is a fraction of what the workload materializes there,
// so base ranges loaded from peers and computed timelines are evicted
// and reloaded mid-workload, reads restart on missing data (§3.3), homes
// are re-subscribed, and pushes arrive for ranges the subscriber no
// longer holds. None of it may show in a single byte. (The members that
// home p| and s| get no limit: what they hold is the data, not a cache
// of it.)
func TestClusterEqualsEmbeddedUnderEviction(t *testing.T) {
	nSeeds := int64(3)
	nOps := 400
	if testing.Short() {
		nSeeds, nOps = 1, 200
	}
	for seed := int64(1); seed <= nSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctx := context.Background()
			addrs := make([]string, 4)
			for i := range addrs {
				cfg := server.Config{Name: fmt.Sprintf("e%d", i)}
				if i >= 2 {
					cfg.Engine = core.Options{MemLimit: 16 << 10}
				}
				s, err := server.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if addrs[i], err = s.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
			}
			cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins})
			checkEqualsEmbedded(t, cl, seed, nOps)
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Evictions == 0 || st.Restarts == 0 {
				t.Fatalf("the limit forced %d evictions and %d restarts; the variant must exercise both", st.Evictions, st.Restarts)
			}
			t.Logf("evictions=%d restarts=%d loads=%d in %d batches", st.Evictions, st.Restarts, st.LoadsStarted, st.LoadBatches)
		})
	}
}

// checkEqualsEmbedded drives the seed's randomized Twip workload through
// cl and through one embedded single-engine pool, then requires
// byte-identical scans and counts over the seed's check ranges.
func checkEqualsEmbedded(t *testing.T, cl *Cluster, seed int64, nOps int) {
	t.Helper()
	ctx := context.Background()
	single, err := shard.New(shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	if err := single.InstallText(shard.EquivJoins); err != nil {
		t.Fatal(err)
	}
	for _, o := range shard.GenTwipOps(seed, nOps, 10) {
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
			t.Fatalf("scan [%q, %q) diverged:\nembedded %v\ncluster  %v", r[0], r[1], want, got)
		}
		wn := single.Count(r[0], r[1])
		gn, err := cl.Count(ctx, r[0], r[1])
		if err != nil || int64(wn) != gn {
			t.Fatalf("count [%q, %q) = %d vs %d (%v)", r[0], r[1], wn, gn, err)
		}
	}
}

// TestSharedMembers exercises one server owning several partition
// ranges (the distributed example's shape: two servers, four ranges).
func TestSharedMembers(t *testing.T) {
	ctx := context.Background()
	two := startServers(t, 2)
	addrs := []string{two[0], two[1], two[0], two[1]}
	cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins})
	if cl.Members() != 2 {
		t.Fatalf("Members = %d", cl.Members())
	}
	if err := cl.Put(ctx, "s|u2|u8", "1"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, "p|u8|100", "Hi"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	kvs, err := cl.Scan(ctx, "t|u2|", "t|u2}", 0)
	if err != nil || len(kvs) != 1 || kvs[0].Key != "t|u2|100|u8" {
		t.Fatalf("timeline = %v %v", kvs, err)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := New(ctx, Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(ctx, Config{Addrs: []string{"a", "b"}, Bounds: nil}); err == nil {
		t.Fatal("addr/bound mismatch accepted")
	}
	if _, err := New(ctx, Config{Addrs: []string{"a", "b"}, Bounds: []string{"b", "a"}}); err == nil {
		t.Fatal("unsorted bounds accepted")
	}
}

// TestCancellation: a canceled cluster call fails fast and the
// connections stay usable.
func TestCancellation(t *testing.T) {
	addrs := startServers(t, 2)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Put(ctx, "a", "v"); err == nil {
		t.Fatal("canceled Put succeeded")
	}
	if _, err := cl.Scan(ctx, "", "", 0); err == nil {
		t.Fatal("canceled Scan succeeded")
	}
	ok := context.Background()
	if err := cl.Put(ok, "a", "v"); err != nil {
		t.Fatalf("connection unusable after cancellation: %v", err)
	}
	if v, found, err := cl.Get(ok, "a"); err != nil || !found || v != "v" {
		t.Fatalf("Get after cancellation = %q %v %v", v, found, err)
	}
}

// TestGatherOverCluster: the three things the split–gather–re-split
// helper promises (partition's TestGather scripts it; shard's
// TestGatherOverPool shows them inside a server), seen through
// Cluster.Scan and Cluster.Count on the wire.
func TestGatherOverCluster(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"k"}})
	for _, k := range []string{"a1", "a2", "a3", "x1", "x2"} {
		if err := cl.Put(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	key := func(kvs []core.KV) (ks []string) {
		for _, kv := range kvs {
			ks = append(ks, kv.Key)
		}
		return ks
	}

	// A limit the first piece meets visits no second piece: one RPC.
	before := cl.RPCs()
	kvs, err := cl.Scan(ctx, "", "", 2)
	if err != nil || !reflect.DeepEqual(key(kvs), []string{"a1", "a2"}) || cl.RPCs() != before+1 {
		t.Fatalf("limited scan = %v, %v in %d RPCs", key(kvs), err, cl.RPCs()-before)
	}
	// One that runs over asks the next piece for what is left.
	if kvs, err = cl.Scan(ctx, "", "", 4); err != nil || !reflect.DeepEqual(key(kvs), []string{"a1", "a2", "a3", "x1"}) {
		t.Fatalf("scan limited across members = %v, %v", key(kvs), err)
	}
	// Unlimited fans out: one RPC per member, results in key order.
	before = cl.RPCs()
	kvs, err = cl.Scan(ctx, "", "", 0)
	if err != nil || !reflect.DeepEqual(key(kvs), []string{"a1", "a2", "a3", "x1", "x2"}) || cl.RPCs() != before+2 {
		t.Fatalf("unlimited scan = %v, %v in %d RPCs", key(kvs), err, cl.RPCs()-before)
	}
	before = cl.RPCs()
	if n, err := cl.Count(ctx, "", ""); err != nil || n != 5 || cl.RPCs() != before+2 {
		t.Fatalf("count = %d, %v in %d RPCs", n, err, cl.RPCs()-before)
	}

	// A piece refused because its range moved re-splits against the map
	// the refusal carried: a second coordinator moves the bound, and the
	// first client's next scan and count still see every row once.
	other := newCluster(t, Config{Addrs: addrs, Bounds: []string{"k"}})
	if err := other.MoveBound(ctx, 0, "a3"); err != nil {
		t.Fatal(err)
	}
	if cl.Map().Version() != 0 {
		t.Fatalf("the stale client already holds v%d", cl.Map().Version())
	}
	if n, err := cl.Count(ctx, "", ""); err != nil || n != 5 {
		t.Fatalf("count through a stale map = %d, %v", n, err)
	}
	if cl.Map().Version() != 1 || cl.Map().Bound(0) != "a3" {
		t.Fatalf("after the bounce the client holds v%d %v", cl.Map().Version(), cl.Map().Bounds())
	}
	if err := other.MoveBound(ctx, 0, "b"); err != nil {
		t.Fatal(err)
	}
	kvs, err = cl.Scan(ctx, "", "", 0)
	if err != nil || !reflect.DeepEqual(key(kvs), []string{"a1", "a2", "a3", "x1", "x2"}) || cl.Map().Bound(0) != "b" {
		t.Fatalf("scan through a stale map = %v, %v (bounds %v)", key(kvs), err, cl.Map().Bounds())
	}
}
