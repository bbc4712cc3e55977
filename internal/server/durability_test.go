package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"reflect"
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

// TestRetryMeshStopsAtTeardown: a durable member restarted while its
// mesh peer is down keeps retrying the rewire in the background; leaving
// the cluster — Close, or a Drain, after which the process keeps
// running — must stop that goroutine and wait for it before the mesh is
// torn down, so it can neither wire a mesh behind the teardown nor
// rebuild warm coverage into a closed pool.
func TestRetryMeshStopsAtTeardown(t *testing.T) {
	for _, drain := range []bool{false, true} {
		dir := t.TempDir()
		peer, err := New(Config{Name: "peer"})
		if err != nil {
			t.Fatal(err)
		}
		paddr, err := peer.Start()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(durableConfig("rm", dir))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		v := mustView(t, partition.MustNew("m"), []string{addr, paddr}, 0)
		s.pool.ApplyMapUpdate(v)
		if err := s.ConnectMesh(v, "p"); err != nil {
			t.Fatal(err)
		}
		s.Close()
		peer.Close() // and never comes back

		s2, err := New(durableConfig("rm2", dir))
		if err != nil {
			t.Fatal(err)
		}
		if s2.rewireDone == nil {
			t.Fatal("restart with a dead peer left no rewire running")
		}
		if drain {
			s2.handleDrain(&rpc.Message{})
		} else {
			s2.Close()
		}
		select {
		case <-s2.rewireDone:
		default:
			t.Fatalf("drain=%v: teardown returned with the rewire still running", drain)
		}
		s2.mmu.Lock()
		mesh := s2.mesh
		s2.mmu.Unlock()
		if mesh != nil {
			t.Fatalf("drain=%v: a mesh exists after the teardown", drain)
		}
		if drain {
			s2.Close()
		}
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

// TestMetaKeepsMeshWhileRewirePending: a compute member restarted while
// its peer is down cannot dial its mesh yet, but every meta.json it
// saves meanwhile still names the mesh tables — so when it crashes again
// before the rewire lands (a copy of the data dir taken mid-wait stands
// in for the crash) and restarts with the peer back, its loaders are
// wired and a cold timeline read fetches its sources.
func TestMetaKeepsMeshWhileRewirePending(t *testing.T) {
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
	timeline := func(s *Server) ([]core.KV, error) {
		return s.pool.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, 0, time.Now().Add(5*time.Second))
	}
	dir := t.TempDir()
	cfg := durableConfig("compute", dir)
	cfg.Joins = timelineJoin

	h, haddr := home("127.0.0.1:0")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := mustView(t, partition.MustNew("t"), []string{haddr, "127.0.0.1:1"}, 1) // self owns the timelines
	s.pool.ApplyMapUpdate(v)
	if err := s.ConnectMesh(v, "p", "s"); err != nil {
		t.Fatal(err)
	}
	if kvs, err := timeline(s); err != nil || len(kvs) != 1 {
		t.Fatalf("timeline before any restart = %v, %v", kvs, err)
	}
	s.Close()
	h.Close()

	s2, err := New(cfg) // the home is down: the rewire keeps retrying
	if err != nil {
		t.Fatal(err)
	}
	if s2.rewireDone == nil {
		t.Fatal("restart with a dead peer left no rewire running")
	}
	s2.persistMeta() // as every advance and snapshot tick does during the wait
	meta, ok, err := s2.dur.LoadMeta()
	if err != nil || !ok || !meta.HasMesh || !reflect.DeepEqual(meta.MeshTables, []string{"p", "s"}) {
		t.Fatalf("meta saved while the rewire is pending = %+v, %v", meta, err)
	}
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	h, _ = home(haddr)
	defer h.Close()
	cfg.DataDir = crashed
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	s3.mmu.Lock()
	wired := s3.mesh != nil && s3.mesh.tables["p"] && s3.mesh.tables["s"] && s3.mesh.loader != nil
	s3.mmu.Unlock()
	if !wired || s3.rewireDone != nil {
		t.Fatalf("restart with the peer back: mesh wired %v, rewire pending %v", wired, s3.rewireDone != nil)
	}
	if kvs, err := timeline(s3); err != nil || len(kvs) != 1 || kvs[0].Key != "t|ann|100|bob" || kvs[0].Value != "Hi" {
		t.Fatalf("cold timeline read after the second restart = %v, %v", kvs, err)
	}
}

// TestMetaSavedOnlyWhenChanged: meta.json is rewritten — a rename and a
// directory fsync — when the member's position changes, not on every
// Replicate the failure detector re-sends while nothing moves.
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
		t.Fatal("an unchanged Replicate rewrote meta.json")
	}
	next := at(t, 2, []string{"g", "m"}, "127.0.0.1:1", "127.0.0.1:1", self).For(self)
	if r := s.handle(nil, &rpc.Message{Type: rpc.MsgMapUpdate, Map: next.Wire()}); r.Status != rpc.StatusOK {
		t.Fatal(r.Err)
	}
	if saved() == first {
		t.Fatal("a MapUpdate that moved the gate left meta.json as it was")
	}
}
