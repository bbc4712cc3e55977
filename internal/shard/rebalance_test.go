package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pequod/internal/core"
)

// TestMoveBoundMovesData: plain rows physically move with the boundary,
// replicated join sources stay on both sides, and reads route correctly
// before and after.
func TestMoveBoundMovesData(t *testing.T) {
	p := newPool(t, Config{Bounds: []string{"m"}})
	p.Put("a|1", "v1")
	p.Put("a|9", "v9")
	p.Put("z|1", "w1")
	if p.Owner("a|9") != 0 || p.Owner("z|1") != 1 {
		t.Fatal("unexpected initial routing")
	}

	// Raise the bound: nothing between "a|5" and "m", so this only
	// changes ownership; then lower it below "a|9" so that row moves.
	if err := p.MoveBound(0, "a|5"); err != nil {
		t.Fatal(err)
	}
	if p.Owner("a|9") != 1 {
		t.Fatal("ownership did not move with the bound")
	}
	p.Shard(1).WithEngine(func(e *core.Engine) {
		if v, ok := e.Store().Get("a|9"); !ok || v.String() != "v9" {
			t.Fatalf("moved row not in destination store: %v %v", v, ok)
		}
	})
	p.Shard(0).WithEngine(func(e *core.Engine) {
		if _, ok := e.Store().Get("a|9"); ok {
			t.Fatal("moved row still in source store")
		}
		if _, ok := e.Store().Get("a|1"); !ok {
			t.Fatal("retained row left the source")
		}
	})
	for key, want := range map[string]string{"a|1": "v1", "a|9": "v9", "z|1": "w1"} {
		if v, ok := p.Get(key); !ok || v != want {
			t.Fatalf("Get(%q) = %q, %v after move", key, v, ok)
		}
	}
	if got := p.Scan("", "", 0, nil, nil); len(got) != 3 {
		t.Fatalf("full scan after move = %v", got)
	}
	st := p.RebalanceStats()
	if st.Migrations != 1 || st.KeysMoved != 1 || st.Version != 1 {
		t.Fatalf("stats after move = %+v", st)
	}

	// Replicated sources: install the join, then move a bound through
	// the source table — rows must remain readable and present on both
	// sides (ownership flips, data stays).
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	p.Put("s|u2|u8", "1")
	p.Put("p|u8|100", "Hi")
	p.Quiesce()
	if err := p.MoveBound(0, "p|u8|500"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumShards(); i++ {
		p.Shard(i).WithEngine(func(e *core.Engine) {
			if _, ok := e.Store().Get("p|u8|100"); !ok {
				t.Errorf("shard %d lost its source replica across migration", i)
			}
		})
	}
	if kvs := p.Scan("t|u2|", "t|u2}", 0, nil, nil); len(kvs) != 1 || kvs[0].Key != "t|u2|100|u8" {
		t.Fatalf("timeline after source-table boundary move = %v", kvs)
	}
}

func TestMoveBoundValidation(t *testing.T) {
	single := newPool(t, Config{})
	if err := single.MoveBound(0, "x"); err == nil {
		t.Fatal("single-shard move accepted")
	}
	p := newPool(t, Config{Bounds: testBounds})
	for _, c := range []struct {
		i     int
		bound string
	}{{-1, "q"}, {3, "q"}, {0, "p|"}, {0, "t|zz"}, {1, ""}} {
		if err := p.MoveBound(c.i, c.bound); err == nil {
			t.Fatalf("MoveBound(%d, %q) accepted", c.i, c.bound)
		}
	}
	if st := p.RebalanceStats(); st.Migrations != 0 || st.Version != 0 {
		t.Fatalf("rejected moves counted: %+v", st)
	}
}

// migrationBounds are the forced boundary targets the equivalence test
// cycles through: table edges, mid-table keys, mid-timeline keys — some
// invalid for a given map state (rejected, which is fine).
func migrationBounds(rng *rand.Rand, nUsers int) (int, string) {
	u := func() string { return fmt.Sprintf("u%d", rng.Intn(nUsers)) }
	candidates := []string{
		"p|" + u(), "p|" + u() + "|" + fmt.Sprintf("%03d", rng.Intn(200)),
		"s|" + u(), "t|" + u(), "t|" + u() + "|" + fmt.Sprintf("%03d", rng.Intn(200)),
		"z|" + u(), "q|", "u|",
	}
	return rng.Intn(3), candidates[rng.Intn(len(candidates))]
}

// TestRebalancedEqualsSingleEngine is the migration equivalence
// property: the randomized Twip workload, with boundary moves forced
// aggressively between operations, must return byte-identical results
// to a single static engine for every comparison range. Runs under
// -race in CI.
func TestRebalancedEqualsSingleEngine(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		ops := GenTwipOps(seed, 400, 10)

		single := newPool(t, Config{})
		sharded := newPool(t, Config{Bounds: testBounds})
		for _, p := range []*Pool{single, sharded} {
			if err := p.InstallText(EquivJoins); err != nil {
				t.Fatal(err)
			}
		}
		applyOps(single, ops)
		single.Quiesce()

		moves := 0
		for i, o := range ops {
			switch o.Kind {
			case OpPut:
				sharded.Put(o.Key, o.Value)
			case OpRemove:
				sharded.Remove(o.Key)
			case OpScan:
				sharded.Quiesce()
				sharded.Scan(o.Lo, o.Hi, 0, nil, nil)
			}
			if i%5 == 0 { // force a migration every few operations
				bi, bound := migrationBounds(rng, 10)
				if err := sharded.MoveBound(bi, bound); err == nil {
					moves++
				}
			}
		}
		sharded.Quiesce()
		if moves < 10 {
			t.Fatalf("seed %d: only %d forced migrations ran", seed, moves)
		}

		for _, r := range EquivRanges(seed, 10) {
			want := single.Scan(r[0], r[1], 0, nil, nil)
			got := sharded.Scan(r[0], r[1], 0, nil, nil)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%d moves): scan [%q, %q) diverged:\nstatic   %v\nmigrated %v",
					seed, moves, r[0], r[1], want, got)
			}
			if sn, gn := single.Count(r[0], r[1]), sharded.Count(r[0], r[1]); sn != gn {
				t.Fatalf("seed %d: count [%q, %q) = %d vs %d", seed, r[0], r[1], sn, gn)
			}
		}
	}
}

// TestMigrationUnderTraffic hammers a 2-shard pool with concurrent
// writers and readers while the main goroutine forces boundary moves
// through the hot keys. Assertions: a writer's own write is immediately
// readable (no write is ever stranded on an ex-owner), scans stay
// sorted, the timeline of a designated user only ever grows when
// sampled after a quiesce (monotonic reads of pushed join values), and
// the final state is exactly the union of everything written.
func TestMigrationUnderTraffic(t *testing.T) {
	p := newPool(t, Config{Bounds: []string{"m"}})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	p.Put("s|mon|ux", "1") // the monotonic reader's subscription

	const writers = 4
	const opsEach = 400
	var stop atomic.Bool
	var wg, readerWG sync.WaitGroup

	// Plain-table writers: each owns its keys; Put then Get must see it.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("a|%02d|%04d", w, i)
				v := fmt.Sprintf("v%d", i)
				p.Put(k, v)
				if got, ok := p.Get(k); !ok || got != v {
					t.Errorf("lost write: Get(%q) = %q, %v want %q", k, got, ok, v)
					stop.Store(true)
					return
				}
				if stop.Load() {
					return
				}
			}
		}(w)
	}
	// Join-source writer: posts for the monitored timeline, in order.
	posted := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for i := 0; i < opsEach && !stop.Load(); i++ {
			p.Put(fmt.Sprintf("p|ux|%04d", i), "tweet")
			n = i + 1
		}
		posted <- n
	}()
	// Monotonic reader: after a quiesce the timeline may only grow. It
	// runs until the writers and mover are done (its own WaitGroup, so
	// waiting for the writers does not wait for it).
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		prev := 0
		for !stop.Load() {
			p.Quiesce()
			kvs := p.Scan("t|mon|", "t|mon}", 0, nil, nil)
			if len(kvs) < prev {
				t.Errorf("timeline shrank across migration: %d -> %d", prev, len(kvs))
				stop.Store(true)
				return
			}
			for k := 1; k < len(kvs); k++ {
				if kvs[k-1].Key >= kvs[k].Key {
					t.Errorf("timeline unsorted at %d", k)
					stop.Store(true)
					return
				}
			}
			prev = len(kvs)
		}
	}()

	// Force boundary moves straight through the traffic until the
	// workers finish: mostly modest hops between neighboring bounds,
	// with the occasional sweep across a whole table. A short pause
	// between moves keeps the migration lock-hold windows from starving
	// the workers outright.
	bounds := []string{"a|01|0200", "a|02|0100", "m", "p|ux|0100", "t|mon|0050", "t|zz"}
	var moved atomic.Int64
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	moverDone := make(chan struct{})
	go func() {
		defer close(moverDone)
		writersDone := false
		for i := 0; !writersDone || moved.Load() < 25; i++ {
			select {
			case <-done:
				writersDone = true // keep racing the reader to 25 moves
			default:
			}
			if err := p.MoveBound(0, bounds[i%len(bounds)]); err == nil {
				moved.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	<-done
	<-moverDone
	stop.Store(true)
	readerWG.Wait()
	nPosts := <-posted
	moves := moved.Load()
	if moves < 10 {
		t.Fatalf("only %d migrations ran during traffic", moves)
	}
	p.Quiesce()

	// No lost writes: every plain key and every post is present, and
	// the timeline reflects every post.
	for w := 0; w < writers; w++ {
		kvs := p.Scan(fmt.Sprintf("a|%02d|", w), fmt.Sprintf("a|%02d}", w), 0, nil, nil)
		if len(kvs) != opsEach {
			t.Fatalf("writer %d: %d of %d rows survived", w, len(kvs), opsEach)
		}
	}
	if kvs := p.Scan("t|mon|", "t|mon}", 0, nil, nil); len(kvs) != nPosts {
		t.Fatalf("timeline has %d rows, want %d", len(kvs), nPosts)
	}
}

// TestRebalancerCoolsHotShard runs the rebalancer against the worst
// case the default bounds produce: every ASCII-prefixed key on one
// shard. Under skewed timeline reads the rebalancer must migrate ranges
// until the hot shard no longer serves essentially everything — and the
// data must come through intact.
func TestRebalancerCoolsHotShard(t *testing.T) {
	// The background loop is on but never fires within the test: the
	// test takes the samples itself, one per burst of reads, so the
	// outcome does not depend on how a ticker interleaves with them.
	cfg := Rebalance{Interval: time.Hour, Ratio: 1.2, MinOps: 32}
	p := newPool(t, Config{Shards: 4, Rebalance: &cfg})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	const users = 32
	for u := 0; u < users; u++ {
		for f := 1; f <= 4; f++ {
			p.Put(fmt.Sprintf("s|u%03d|u%03d", u, (u+f)%users), "1")
		}
	}
	for u := 0; u < users; u++ {
		for i := 0; i < 4; i++ {
			p.Put(fmt.Sprintf("p|u%03d|%03d", u, i), "tweet")
		}
	}
	p.Quiesce()

	// All keys sit on one shard under the default 16-bit-prefix bounds.
	before := p.RebalanceStats()
	if p.Owner("p|u000|000") != p.Owner("t|u031|003") {
		t.Fatalf("expected a fully clustered initial partition, bounds %q", before.Bounds)
	}

	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.3, 1, users-1)
	for tick := 0; p.RebalanceStats().Migrations < 2; tick++ {
		if tick == 100 {
			t.Fatalf("rebalancer never migrated twice: %+v", p.RebalanceStats())
		}
		for i := 0; i < 256; i++ {
			u := fmt.Sprintf("u%03d", zipf.Uint64())
			p.Scan("t|"+u+"|", "t|"+u+"}", 0, nil, nil)
		}
		p.rebalanceTick(cfg)
	}

	st := p.RebalanceStats()
	if !st.Enabled || st.Version < 2 {
		t.Fatalf("stats after rebalance = %+v", st)
	}
	// The keyspace is genuinely spread now: the formerly hot pair of
	// probe keys no longer shares an owner with everything else.
	owners := map[int]bool{}
	for u := 0; u < users; u++ {
		owners[p.Owner(fmt.Sprintf("t|u%03d|000", u))] = true
		owners[p.Owner(fmt.Sprintf("p|u%03d|000", u))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("rebalancer ran %d migrations but ownership still clustered: bounds %q",
			st.Migrations, st.Bounds)
	}
	// Correctness survived: timelines match a fresh single engine.
	single := newPool(t, Config{})
	if err := single.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	for _, tab := range []string{"p", "s"} {
		for _, kv := range p.Scan(tab+"|", tab+"}", 0, nil, nil) {
			single.Put(kv.Key, kv.Value)
		}
	}
	p.Quiesce()
	want := single.Scan("t|", "t}", 0, nil, nil)
	got := p.Scan("t|", "t}", 0, nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebalanced timelines diverged: %d vs %d rows", len(got), len(want))
	}
}
