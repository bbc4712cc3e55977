package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/rpc"
)

// durableConfig returns a server config with the durable store rooted
// at dir, synced fast enough that tests never wait on the flush loop
// but with snapshots effectively off (tests trigger them explicitly).
func durableConfig(name, dir string) Config {
	return Config{
		Name:             name,
		DataDir:          dir,
		SyncInterval:     time.Millisecond,
		SnapshotInterval: time.Hour,
	}
}

// TestWarmRestartRecoversRows: a server with a data dir closed and
// reopened on the same dir comes back with its base rows — some from
// the snapshot, some replayed from the log written after it — its
// joins installed, and its computed ranges recomputed from the
// restored bases (join outputs are never persisted).
func TestWarmRestartRecoversRows(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, err := New(durableConfig("wr", dir))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := addJoin(c, timelineJoin); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("s|ann|bob", "1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("p|bob|%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Materialize the timeline so its warm range lands in the snapshot.
	if kvs, err := c.Scan("t|ann|", "t|ann}", 0); err != nil || len(kvs) != 10 {
		t.Fatalf("timeline before restart = %d kvs, %v", len(kvs), err)
	}
	if n, err := c.SnapshotNow(ctx); err != nil || n == 0 {
		t.Fatalf("SnapshotNow = %d, %v", n, err)
	}
	// Rows written after the snapshot must come back from the log.
	for i := 10; i < 20; i++ {
		if err := c.Put(fmt.Sprintf("p|bob|%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if had, err := c.Remove("p|bob|000"); err != nil || !had {
		t.Fatalf("Remove = %v %v", had, err)
	}
	c.Close()
	s.Close()

	s2, err := New(durableConfig("wr2", dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	addr2, err := s2.Start()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	if n, err := c2.Count("p|", "p}"); err != nil || n != 19 {
		t.Fatalf("posts after restart = %d, %v", n, err)
	}
	if v, found, err := c2.Get("p|bob|015"); err != nil || !found || v != "v15" {
		t.Fatalf("log-replayed row = %q %v %v", v, found, err)
	}
	if _, found, _ := c2.Get("p|bob|000"); found {
		t.Fatal("removed row resurrected by replay")
	}
	// The timeline was never written to disk; it must recompute from
	// the restored bases, including the post-snapshot rows.
	kvs, err := c2.Scan("t|ann|", "t|ann}", 0)
	if err != nil || len(kvs) != 19 {
		t.Fatalf("timeline after restart = %d kvs, %v", len(kvs), err)
	}
	if kvs[18].Key != "t|ann|019|bob" || kvs[18].Value != "v19" {
		t.Fatalf("recomputed timeline tail = %v", kvs[18])
	}
	st, err := c2.StatSnapshot(ctx)
	if err != nil || st.Durable == nil || st.Durable.Recovery == nil {
		t.Fatalf("durable stat after restart = %+v, %v", st, err)
	}
	rec := st.Durable.Recovery
	if rec.SnapshotRows == 0 || rec.LogRecords == 0 || rec.RestoredRows == 0 {
		t.Fatalf("recovery stats = %+v", rec)
	}
}

// TestWarmRestartReplaysOnlySinceSnapshot pins the one bound on restart
// replay: a restart reads the rows the snapshot holds from the snapshot
// and replays only the writes made since it. Two restarts with no
// snapshot between them replay every write since it — the first run's
// and the second's — and never the rows written before it.
func TestWarmRestartReplaysOnlySinceSnapshot(t *testing.T) {
	ctx := context.Background()
	const base, since, later = 50, 7, 5
	dir := t.TempDir()
	// run starts a server generation on dir, lets write drive it, and
	// closes it, returning its recovery stat and the posts it ended with.
	run := func(name string, write func(c *client.Client)) (*client.RecoveryStat, int64) {
		t.Helper()
		s, err := New(durableConfig(name, dir))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		write(c)
		n, err := c.Count("p|", "p}")
		if err != nil {
			t.Fatal(err)
		}
		return s.recovery, n
	}
	put := func(c *client.Client, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := c.Put(fmt.Sprintf("p|bob|%03d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
	}

	// since writes after the snapshot: six puts and one remove.
	run("g1", func(c *client.Client) {
		put(c, 0, base)
		if n, err := c.SnapshotNow(ctx); err != nil || n != base {
			t.Fatalf("SnapshotNow = %d, %v; want %d rows", n, err, base)
		}
		put(c, base, base+since-1)
		if had, err := c.Remove("p|bob|000"); err != nil || !had {
			t.Fatalf("Remove = %v, %v", had, err)
		}
	})
	rec, _ := run("g2", func(c *client.Client) { put(c, 100, 100+later) })
	if rec.SnapshotRows != base || rec.LogRecords != since {
		t.Fatalf("first restart recovery = %+v, want %d snapshot rows and %d log records", rec, base, since)
	}
	rec, n := run("g3", func(*client.Client) {})
	if rec.SnapshotRows != base || rec.LogRecords != since+later {
		t.Fatalf("second restart recovery = %+v, want %d snapshot rows and %d log records", rec, base, since+later)
	}
	if want := int64(base + since - 2 + later); n != want {
		t.Fatalf("posts after two restarts = %d, want %d", n, want)
	}
}

// TestMemoryOnlyServerHasNoDurableState: without a data dir nothing
// durable is wired — no stat block, and the snapshot RPC refuses.
func TestMemoryOnlyServerHasNoDurableState(t *testing.T) {
	ctx := context.Background()
	_, c := startServer(t, Config{Name: "mem"})
	if err := c.Put("a|1", "v"); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatSnapshot(ctx)
	if err != nil || st.Durable != nil {
		t.Fatalf("memory-only durable stat = %+v, %v", st.Durable, err)
	}
	if _, err := c.SnapshotNow(ctx); err == nil {
		t.Fatal("SnapshotNow succeeded without a data dir")
	}
	if _, err := c.RebuildRange(ctx, "a|", "a}"); err == nil {
		t.Fatal("RebuildRange succeeded without a data dir")
	}
}

// BenchmarkDurableWriteBehind measures the write path with the durable
// store off and on. The write-behind contract is that logging is an
// enqueue off the hot path — the fsync batches run behind pipelined
// traffic — so "on" must stay within a small constant factor of "off"
// (the issue's gate is <15% on amortized puts). Writes are pipelined
// (a window of in-flight futures, how any loaded client drives the
// wire) so the measurement amortizes the RPC round trip the way real
// traffic does instead of serializing one put per RTT.
func BenchmarkDurableWriteBehind(b *testing.B) {
	const window = 64
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			cfg := Config{Name: "bench-" + mode}
			if mode == "on" {
				cfg.DataDir = b.TempDir() // default sync/snapshot cadence
			}
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			addr, err := s.Start()
			if err != nil {
				b.Fatal(err)
			}
			c, err := client.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				c.Close()
				s.Close()
			})
			futs := make([]*client.Future, 0, window)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				futs = append(futs, c.PutAsync(fmt.Sprintf("p|u%03d|%09d", i%512, i), "v"))
				if len(futs) == window {
					for _, f := range futs {
						if _, err := f.Wait(); err != nil {
							b.Fatal(err)
						}
					}
					futs = futs[:0]
				}
			}
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

// TestRestartWithHomeDownBacksSources: a gate is a mesh, so a compute
// member restarted while the home of its join sources is down backs
// those tables with its loader before New returns — a timeline read
// fails to load instead of computing over nothing — and leaves no
// goroutine running once it closes. A second crash and restart, the
// home still down, backs them too; once the home is back, a cold
// timeline read loads through it.
func TestRestartWithHomeDownBacksSources(t *testing.T) {
	home := func(addr string) (*Server, string) {
		t.Helper()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(Config{Name: "home"})
		if err != nil {
			t.Fatal(err)
		}
		go h.Serve(ln)
		h.pool.Put("s|ann|bob", "1")
		h.pool.Put("p|bob|100", "Hi")
		return h, ln.Addr().String()
	}
	timeline := func(s *Server, d time.Duration) ([]core.KV, error) {
		return scanPool(s, "t|ann|", "t|ann}", d)
	}
	backed := func(s *Server) {
		t.Helper()
		var tracked []string
		s.pool.Shard(0).WithEngine(func(e *core.Engine) {
			for _, k := range []string{"s|ann|bob", "p|bob|100"} {
				if e.Tracks(k) {
					tracked = append(tracked, k)
				}
			}
		})
		if len(tracked) > 0 {
			t.Fatalf("%v not loader-backed after the restart (want every join source backed)", tracked)
		}
		if kvs, err := timeline(s, 100*time.Millisecond); err == nil {
			t.Fatalf("timeline with its home down = %v, want a failed load", kvs)
		}
	}
	dir := t.TempDir()
	cfg := durableConfig("compute", dir)
	cfg.Joins = timelineJoin

	h, haddr := home("127.0.0.1:0")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, s, mustView(t, partition.MustNew("t"), []string{haddr, "127.0.0.1:1"}, 1)) // self owns the timelines
	if kvs, err := timeline(s, 5*time.Second); err != nil || len(kvs) != 1 {
		t.Fatalf("timeline before any restart = %v, %v", kvs, err)
	}
	s.Close()
	h.Close()

	before := runtime.NumGoroutine()
	s2, err := New(cfg) // the home is down
	if err != nil {
		t.Fatal(err)
	}
	backed(s2)
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the restarted member closed, %d before it started", runtime.NumGoroutine(), before)
		}
	}

	cfg.DataDir = crashed
	s3, err := New(cfg) // the home is still down
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	backed(s3)
	h, _ = home(haddr)
	defer h.Close()
	if kvs, err := timeline(s3, 5*time.Second); err != nil || len(kvs) != 1 || kvs[0].Key != "t|ann|100|bob" || kvs[0].Value != "Hi" {
		t.Fatalf("cold timeline read once the home is back = %v, %v", kvs, err)
	}
}

// TestMetaSavedOnlyWhenChanged: meta.json is rewritten — a rename and a
// directory fsync — when the member's position changes, not on every
// anti-entropy MapUpdate the failure detector re-sends while nothing
// moves.
func TestMetaSavedOnlyWhenChanged(t *testing.T) {
	s, err := New(durableConfig("m", t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	saved := func() int64 {
		t.Helper()
		meta, ok, err := s.dur.LoadMeta()
		if err != nil || !ok {
			t.Fatalf("meta.json = %+v, %v", meta, err)
		}
		return meta.SavedUnixNano
	}
	const self = "member:1"
	v := at(t, 1, []string{"m"}, "127.0.0.1:1", self).For(self)
	replicate(t, s, v, 1)
	first := saved()
	replicate(t, s, v, 1)
	if saved() != first {
		t.Fatal("an unchanged MapUpdate rewrote meta.json")
	}
	next := at(t, 2, []string{"g", "m"}, "127.0.0.1:1", "127.0.0.1:1", self).For(self)
	if r := s.handle(nil, &rpc.Message{Type: rpc.MsgMapUpdate, Map: next.Wire()}); r.Status != rpc.StatusOK {
		t.Fatal(r.Err)
	}
	if saved() == first {
		t.Fatal("a MapUpdate that moved the gate left meta.json as it was")
	}
}
