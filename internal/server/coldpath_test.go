package server

import (
	"context"
	"fmt"
	"testing"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
)

// coldPair starts a home server (owner of p| and s|) and a compute
// server that owns the timelines, loads both base tables from the home
// over the mesh and runs the timeline join.
func coldPair(tb testing.TB) (home, compute *Server, hc, cc *client.Client) {
	tb.Helper()
	start := func(cfg Config) (*Server, *client.Client, string) {
		s, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			tb.Fatal(err)
		}
		c, err := client.Dial(addr)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() {
			c.Close()
			s.Close()
		})
		return s, c, addr
	}
	home, hc, haddr := start(Config{Name: "home"})
	compute, cc, caddr := start(Config{Name: "compute", Joins: timelineJoin})
	publish(tb, compute, mustView(tb, partition.MustNew("t|"), []string{haddr, caddr}, 1))
	return home, compute, hc, cc
}

// evict drops the compute server's cached copy of r, as memory pressure
// would.
func evict(compute *Server, r keys.Range) { compute.Pool().DropRangeAll(r) }

// TestReloadKeepsOneSubscription: a subscriber that evicts a range and
// loads it again, fifty times over, holds exactly one subscription for
// it at the home — so one post is pushed to it exactly once — and a
// push for a range it has evicted and not reloaded plants no row.
func TestReloadKeepsOneSubscription(t *testing.T) {
	ctx := context.Background()
	home, compute, hc, cc := coldPair(t)
	for _, kv := range [][2]string{{"s|ann|bob", "1"}, {"p|bob|0100", "first"}} {
		if err := hc.Put(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	timeline := func() []core.KV {
		t.Helper()
		kvs, err := cc.Scan("t|ann|", "t|ann}", 0)
		if err != nil {
			t.Fatal(err)
		}
		return kvs
	}
	sAnn := keys.Range{Lo: "s|ann|", Hi: "s|ann}"}
	pBob := keys.Range{Lo: "p|bob|", Hi: "p|bob}"}
	for i := 0; i < 50; i++ {
		if kvs := timeline(); len(kvs) != 1 {
			t.Fatalf("cycle %d: timeline = %v", i, kvs)
		}
		evict(compute, sAnn)
	}
	timeline()
	st, err := hc.StatSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.NSubs != 2 || home.nsubs.Load() != 2 {
		t.Fatalf("home holds %d subscriptions after 50 reloads of one range, want one each for s|ann| and p|bob|", st.NSubs)
	}
	cst, err := cc.StatSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cst.Loads.Started < 52 || cst.Loads.Batched == 0 || cst.Loads.Restarts == 0 || cst.Loads.Failed != 0 {
		t.Fatalf("compute loads block = %+v", cst.Loads)
	}

	// One post, one pushed change: a second delivery would find its value
	// stored and count an unchanged write. (Pushes apply quietly — the
	// post is counted at its home — so the subscriber's Puts stay put.)
	before := compute.Pool().Stats()
	if err := hc.Put("p|bob|0200", "second"); err != nil {
		t.Fatal(err)
	}
	if err := cc.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	after := compute.Pool().Stats()
	if n := after.UnchangedWrites - before.UnchangedWrites; n != 0 || after.Puts != before.Puts {
		t.Fatalf("one post reached the subscriber %d times (its puts moved by %d)", n+1, after.Puts-before.Puts)
	}
	if kvs := timeline(); len(kvs) != 2 {
		t.Fatalf("timeline after the post = %v", kvs)
	}

	// Evicted and not reloaded: the home still pushes (it cannot know),
	// the subscriber drops the push instead of keeping a row no presence
	// record tracks.
	evict(compute, pBob)
	if err := hc.Put("p|bob|0300", "third"); err != nil {
		t.Fatal(err)
	}
	if err := cc.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	compute.Pool().Shard(0).WithEngine(func(e *core.Engine) {
		if _, ok := e.Store().Get("p|bob|0300"); ok {
			t.Error("a push for an evicted range planted a row outside any presence record")
		}
	})
	if kvs := timeline(); len(kvs) != 3 {
		t.Fatalf("timeline after reloading the evicted range = %v", kvs)
	}
	if home.nsubs.Load() != 2 {
		t.Fatalf("home holds %d subscriptions at the end", home.nsubs.Load())
	}
}

// BenchmarkRemoteLoadBatch measures one cold read's base loads over
// loopback: s|u| is resident, the p|x| ranges of all twenty posters are
// not, so each iteration is one discovery, one batch of twenty
// subscribing scans on one connection, one landing, one emitting
// execution.
func BenchmarkRemoteLoadBatch(b *testing.B) {
	const posters = 20
	_, compute, hc, cc := coldPair(b)
	var futs []*client.Future
	for p := 0; p < posters; p++ {
		futs = append(futs, hc.PutAsync(fmt.Sprintf("s|ann|p%02d", p), "1"))
		for i := 0; i < 10; i++ {
			futs = append(futs, hc.PutAsync(fmt.Sprintf("p|p%02d|%04d", p, i), "a tweet of ordinary length, more or less"))
		}
	}
	if err := client.WaitAll(context.Background(), futs); err != nil {
		b.Fatal(err)
	}
	read := func() {
		kvs, err := cc.Scan("t|ann|", "t|ann}", 0)
		if err != nil || len(kvs) != posters*10 {
			b.Fatalf("timeline = %d rows, %v", len(kvs), err)
		}
	}
	read()
	posts := keys.Range{Lo: "p|", Hi: "p}"}
	before := compute.Pool().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		evict(compute, posts)
		b.StartTimer()
		read()
	}
	b.StopTimer()
	st := compute.Pool().Stats()
	b.ReportMetric(float64(st.LoadsStarted-before.LoadsStarted)/float64(b.N), "loads/op")
	b.ReportMetric(float64(st.LoadBatches-before.LoadBatches)/float64(b.N), "batches/op")
	// The evicted sources leave the timeline a dirty span, so the work
	// shows as span recomputes: one that restarts, one that emits.
	emits := (st.JoinExecs + st.DirtyRecomputes - st.Restarts) - (before.JoinExecs + before.DirtyRecomputes - before.Restarts)
	b.ReportMetric(float64(emits)/float64(b.N), "emits/op")
}
