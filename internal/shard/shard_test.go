package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pequod/internal/core"
	"pequod/internal/keys"
)

const timelineJoin = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

// testBounds split the Twip keyspace across four shards: shard 0 owns
// everything below the post table, shard 1 the posts and subscriptions,
// and shards 2 and 3 split the timeline table down the middle — so
// timeline scans straddle shards and join sources live away from join
// outputs.
var testBounds = []string{"p|", "t|", "t|u5"}

func newPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestRoutingAndOwnership(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d", p.NumShards())
	}
	p.Put("a|1", "v0")    // below p| -> shard 0
	p.Put("p|u1|9", "v1") // shard 1
	p.Put("t|u2|5", "v2") // shard 2
	p.Put("t|u7|5", "v3") // shard 3
	for key, want := range map[string]string{
		"a|1": "v0", "p|u1|9": "v1", "t|u2|5": "v2", "t|u7|5": "v3",
	} {
		if v, ok := p.Get(key); !ok || v != want {
			t.Fatalf("Get(%q) = %q, %v", key, v, ok)
		}
	}
	// Each key landed on exactly its owning shard's store.
	for i, key := range []string{"a|1", "p|u1|9", "t|u2|5", "t|u7|5"} {
		if p.Owner(key) != i {
			t.Fatalf("Owner(%q) = %d, want %d", key, p.Owner(key), i)
		}
		p.Shard(i).WithEngine(func(e *core.Engine) {
			if e.Store().Len() != 1 {
				t.Errorf("shard %d store len = %d", i, e.Store().Len())
			}
		})
	}
	if had, _ := p.Remove("t|u7|5"); !had {
		t.Fatal("Remove of an existing key")
	}
	if had, _ := p.Remove("t|u7|5"); had {
		t.Fatal("Remove")
	}
	if n := p.Count("", ""); n != 3 {
		t.Fatalf("Count = %d", n)
	}
}

func TestCrossShardScanMerges(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	var want []core.KV
	for u := 0; u < 10; u++ {
		for i := 0; i < 3; i++ {
			k := fmt.Sprintf("t|u%d|%d", u, i)
			p.Put(k, "v")
			want = append(want, core.KV{Key: k, Value: "v"})
		}
	}
	got := p.Scan("t|", "t}", 0, nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-shard scan = %v", got)
	}
	if got := p.Scan("t|", "t}", 7, nil, nil); !reflect.DeepEqual(got, want[:7]) {
		t.Fatalf("limited scan = %v", got)
	}
	if n := p.Count("t|u4|", "t|u6}"); n != 9 {
		t.Fatalf("straddling count = %d", n)
	}
}

// TestJoinAcrossShards is the sharded Twip: subscriptions and posts live
// on shard 1, the computed timelines on shards 2 and 3. Source writes
// must flow to the timeline owners through the pool's forwarding.
func TestJoinAcrossShards(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	p.Put("s|u2|u8", "1")
	p.Put("s|u7|u8", "1")
	p.Put("p|u8|100", "Hi")
	p.Quiesce()
	for _, u := range []string{"u2", "u7"} {
		kvs := p.Scan("t|"+u+"|", "t|"+u+"}", 0, nil, nil)
		if len(kvs) != 1 || kvs[0].Key != "t|"+u+"|100|u8" || kvs[0].Value != "Hi" {
			t.Fatalf("timeline %s = %v", u, kvs)
		}
	}
	// Incremental maintenance across shards: a new post reaches both
	// materialized timelines (on different shards) after propagation.
	p.Put("p|u8|150", "again")
	p.Quiesce()
	for _, u := range []string{"u2", "u7"} {
		if v, ok := p.Get("t|" + u + "|150|u8"); !ok || v != "again" {
			t.Fatalf("timeline %s missed the new post: %q %v", u, v, ok)
		}
	}
	// Removal propagates too.
	p.Remove("p|u8|100")
	p.Quiesce()
	if _, ok := p.Get("t|u2|100|u8"); ok {
		t.Fatal("removed post still on timeline")
	}
}

// TestInstallBackfill installs the join after base data exists: the
// already-written source tables must be replicated to the shards that
// own timelines before they can compute them.
func TestInstallBackfill(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	p.Put("s|u2|u8", "1")
	p.Put("p|u8|100", "Hi")
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	p.Quiesce()
	kvs := p.Scan("t|u2|", "t|u2}", 0, nil, nil)
	if len(kvs) != 1 || kvs[0].Key != "t|u2|100|u8" {
		t.Fatalf("backfilled timeline = %v", kvs)
	}
}

// applyOps drives an identical operation sequence into any pool.
func applyOps(p *Pool, ops []Op) {
	for _, o := range ops {
		switch o.Kind {
		case OpPut:
			p.Put(o.Key, o.Value)
		case OpRemove:
			p.Remove(o.Key)
		case OpScan:
			p.Quiesce()
			p.Scan(o.Lo, o.Hi, 0, nil, nil)
		}
	}
}

// TestShardedEqualsSingleEngine is the equivalence property: for the
// same operation sequence — including interleaved scans that force join
// materialization at different moments — a sharded pool and a
// single-engine pool return byte-identical results for every range. The
// workload generator (opsgen.go) is shared with the networked cluster's
// equivalence test in internal/cluster.
func TestShardedEqualsSingleEngine(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ops := GenTwipOps(seed, 400, 10)

		single := newPool(t, Config{})
		sharded := newPool(t, Config{Bounds: testBounds})
		for _, p := range []*Pool{single, sharded} {
			if err := p.InstallText(EquivJoins); err != nil {
				t.Fatal(err)
			}
			applyOps(p, ops)
			p.Quiesce()
		}

		// Every row of every table, plus random sub-ranges, byte-identical.
		for _, r := range EquivRanges(seed, 10) {
			want := single.Scan(r[0], r[1], 0, nil, nil)
			got := sharded.Scan(r[0], r[1], 0, nil, nil)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: scan [%q, %q) diverged:\nsingle  %v\nsharded %v", seed, r[0], r[1], want, got)
			}
			if sn, gn := single.Count(r[0], r[1]), sharded.Count(r[0], r[1]); sn != gn {
				t.Fatalf("seed %d: count [%q, %q) = %d vs %d", seed, r[0], r[1], sn, gn)
			}
		}
	}
}

// TestBackfillTablePrefix: backfilling a newly forwarded table "s" must
// not sweep up rows of a different table that shares the name prefix
// ("sx|...") or a bare "s" key — only "s|..." rows replicate.
func TestBackfillTablePrefix(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	p.Put("s|u2|u8", "1")
	p.Put("sx|other", "x")
	p.Put("s", "bare")
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	p.Quiesce()
	owner := p.Owner("sx|other")
	for i := 0; i < p.NumShards(); i++ {
		if i == owner {
			continue
		}
		p.Shard(i).WithEngine(func(e *core.Engine) {
			for _, key := range []string{"sx|other", "s"} {
				if _, ok, _ := e.Get(key); ok {
					t.Errorf("shard %d has stray replica of %q", i, key)
				}
			}
		})
	}
	// The real source row did replicate everywhere.
	for i := 0; i < p.NumShards(); i++ {
		p.Shard(i).WithEngine(func(e *core.Engine) {
			if v, ok, _ := e.Get("s|u2|u8"); !ok || v != "1" {
				t.Errorf("shard %d missing replicated source row", i)
			}
		})
	}
}

// TestConcurrentReadersWriters exercises the pool under the race
// detector: concurrent writers mutating join sources on one shard while
// readers run cross-shard scans, point gets, and counts against the
// others.
func TestConcurrentReadersWriters(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	const writers, readers, opsEach = 4, 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				u := fmt.Sprintf("u%d", rng.Intn(10))
				po := fmt.Sprintf("u%d", rng.Intn(10))
				switch rng.Intn(10) {
				case 0:
					p.Remove(fmt.Sprintf("p|%s|%03d", po, rng.Intn(100)))
				case 1, 2:
					p.Put(fmt.Sprintf("s|%s|%s", u, po), "1")
				default:
					p.Put(fmt.Sprintf("p|%s|%03d", po, rng.Intn(100)), "tweet")
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < opsEach; i++ {
				u := fmt.Sprintf("u%d", rng.Intn(10))
				switch rng.Intn(4) {
				case 0:
					kvs := p.Scan("t|", "t}", 0, nil, nil) // full cross-shard scan
					for k := 1; k < len(kvs); k++ {
						if kvs[k-1].Key >= kvs[k].Key {
							t.Errorf("scan unsorted at %d: %q >= %q", k, kvs[k-1].Key, kvs[k].Key)
							return
						}
					}
				case 1:
					p.Scan("t|"+u+"|", "t|"+u+"}", 0, nil, nil)
				case 2:
					p.Count("p|", "s}")
				default:
					p.Get(fmt.Sprintf("t|%s|%03d|%s", u, rng.Intn(100), u))
				}
			}
		}(g)
	}
	wg.Wait()
	p.Quiesce()

	// After quiescing, the sharded answer matches a fresh single engine
	// fed the final base state.
	single := newPool(t, Config{})
	if err := single.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	for _, tab := range []string{"p", "s"} {
		for _, kv := range p.Scan(tab+"|", tab+"}", 0, nil, nil) {
			single.Put(kv.Key, kv.Value)
		}
	}
	want := single.Scan("t|", "t}", 0, nil, nil)
	got := p.Scan("t|", "t}", 0, nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-quiesce timelines diverged: %d vs %d rows", len(got), len(want))
	}
}

// TestSubscribeCallback checks the snapshot+subscribe contract: the sub
// callback fires once per straddled piece, under the shard lock, with
// the piece's range.
func TestSubscribeCallback(t *testing.T) {
	p := newPool(t, Config{Bounds: testBounds})
	p.Put("t|u2|1", "a")
	p.Put("t|u7|1", "b")
	var mu sync.Mutex
	var got []keys.Range
	kvs := p.Scan("t|", "t}", 0, nil, func(sh int, r keys.Range) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	if len(kvs) != 2 {
		t.Fatalf("scan = %v", kvs)
	}
	if len(got) != 2 {
		t.Fatalf("sub pieces = %v", got)
	}
}

// TestInstallTextAtomic: a multi-join text whose later join is rejected
// must leave every shard's join set untouched (no shard keeps the
// earlier joins from the failed text), and the pool must keep working.
func TestInstallTextAtomic(t *testing.T) {
	// Shard 0 owns the sources and the low half of the timelines, so a
	// half-installed text would visibly compute rows there.
	p := newPool(t, Config{Bounds: []string{"t|u5"}})
	if err := p.InstallText("a|<x> = copy b|<x>"); err != nil {
		t.Fatal(err)
	}
	// Second join of this text cycles through table a and is rejected.
	bad := timelineJoin + "\nb|<x> = copy a|<x>"
	if err := p.InstallText(bad); err == nil {
		t.Fatal("cyclic multi-join text accepted")
	}
	// The timeline join from the failed text must not be live anywhere:
	// a source write computes no timeline rows on any shard.
	p.Put("s|u2|u8", "1")
	p.Put("p|u8|100", "Hi")
	p.Quiesce()
	if kvs := p.Scan("t|", "t}", 0, nil, nil); len(kvs) != 0 {
		t.Fatalf("join from failed text is live: %v", kvs)
	}
	// And a valid re-install still works.
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	p.Quiesce()
	if kvs := p.Scan("t|u2|", "t|u2}", 0, nil, nil); len(kvs) != 1 {
		t.Fatalf("timeline after re-install = %v", kvs)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 3, Bounds: []string{"m"}}); err == nil {
		t.Fatal("mismatched shards/bounds accepted")
	}
	if _, err := New(Config{Bounds: []string{"b", "a"}}); err == nil {
		t.Fatal("unsorted bounds accepted")
	}
	p, err := New(Config{Shards: 4})
	if err != nil || p.NumShards() != 4 {
		t.Fatalf("default bounds: %v", err)
	}
	p.Close()
	p, err = New(Config{Bounds: []string{"m"}})
	if err != nil || p.NumShards() != 2 {
		t.Fatalf("bounds-derived shard count: %v", err)
	}
	p.Close()
}
