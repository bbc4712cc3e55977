package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/durable"
	"pequod/internal/interval"
	"pequod/internal/keys"
	"pequod/internal/shard"
	"pequod/internal/store"
	"pequod/internal/twip"
)

// startMembers starts n plain servers and returns them with their
// addresses.
func startMembers(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	var members []*Server
	var addrs []string
	for i := 0; i < n; i++ {
		s, err := New(Config{Name: fmt.Sprintf("m%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		members, addrs = append(members, s), append(addrs, addr)
	}
	return members, addrs
}

// replicaOutputs lists the join-output rows s holds in ranges its gate
// does not serve: rows a replica copy took from a home's computed
// tables.
func replicaOutputs(s *Server) []string {
	g := s.pool.Gate()
	var out []string
	s.pool.Shard(0).WithEngine(func(e *core.Engine) {
		e.Store().Scan("", "", func(k string, _ *store.Value) bool {
			if s.pool.JoinOutput(keys.Table(k)) && !g.Owns(k) {
				out = append(out, k)
			}
			return true
		})
	})
	return out
}

// TestJoinlessCoordinatorKeepsReplicaTables: members replicate the base
// sources of their own joins whoever coordinates them. After a
// coordinator that installed the timeline join, a second one that never
// installed anything — a fresh pequod-cli run — moves a bound, which
// re-grants a replica range over the computed timelines. Every member's
// source tables — the tables its copies hold — are unchanged, its stats
// report its replica range synced, and no member holds a timeline row
// as a replica copy.
func TestJoinlessCoordinatorKeepsReplicaTables(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	members, addrs := startMembers(t, 2)
	installing, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"m"}, Replicas: 2, Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	defer installing.Close()
	for _, kv := range [][2]string{{"s|ann|bob", "1"}, {"s|cat|bob", "1"}, {"p|bob|100", "Hi"}} {
		if err := installing.Put(ctx, kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []string{"ann", "cat"} {
		if kvs, err := installing.Scan(ctx, "t|"+u+"|", "t|"+u+"}", 0); err != nil || len(kvs) != 1 {
			t.Fatalf("timeline of %s = %v, %v", u, kvs, err)
		}
	}
	if err := installing.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	synced := func(s *Server) int {
		var st client.StatSnapshot
		if err := json.Unmarshal([]byte(s.statJSON()), &st); err != nil || st.Cluster == nil {
			t.Fatalf("stat = %+v, %v", st, err)
		}
		return st.Cluster.Replicas
	}
	want := make([][]string, len(members))
	for i, s := range members {
		if want[i] = s.pool.SourceTables(); len(want[i]) == 0 {
			t.Fatalf("member %d replicates whole ranges under the timeline join", i)
		}
		if n := synced(s); n != 1 {
			t.Fatalf("member %d holds %d synced replica ranges, want 1", i, n)
		}
	}

	joinless, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	defer joinless.Close()
	// Member 1 keeps [t|b, ∞), the timelines included; member 0, which
	// copies it, re-syncs the copy from scratch.
	if err := joinless.MoveBound(ctx, 0, "t|b"); err != nil {
		t.Fatal(err)
	}
	if err := joinless.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	for i, s := range members {
		if got := s.pool.SourceTables(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("member %d source tables = %q, want %q", i, got, want[i])
		}
		if n := synced(s); n != 1 {
			t.Errorf("member %d holds %d synced replica ranges, want 1", i, n)
		}
		if rows := replicaOutputs(s); len(rows) != 0 {
			t.Errorf("member %d holds join output as a replica copy: %q", i, rows)
		}
	}
}

// TestJoinInstalledAfterReplicasDropsOutputSubscriptions: replicas
// assigned before any join is installed copy whole ranges, subscribing
// at each home over everything. Installing the timeline join afterwards
// narrows every copy to the join's sources, and the homes drop the
// whole-range subscriptions: none covers a timeline key any more, so no
// computed row is ever pushed to a replica.
func TestJoinInstalledAfterReplicasDropsOutputSubscriptions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	members, addrs := startMembers(t, 2)
	cl, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"m"}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Quiesce(ctx); err != nil { // the whole-range copies land
		t.Fatal(err)
	}
	timelines := func(s *Server) (n int) {
		s.smu.Lock()
		defer s.smu.Unlock()
		s.subs.Overlap("t|", "t}", func(*interval.Entry[*subscription]) bool { n++; return true })
		return n
	}
	if n := timelines(members[1]); n == 0 {
		t.Fatal("no whole-range replica subscription at the timelines' home before the join")
	}
	if err := cl.Install(ctx, timelineJoin); err != nil {
		t.Fatal(err)
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	for i, s := range members {
		for deadline := time.Now().Add(5 * time.Second); timelines(s) != 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("member %d still has %d subscriptions over the timelines after the join", i, timelines(s))
			}
		}
	}
}

// TestReplicaKeepFollowsJoinSources: the replica feed keeps a key only
// while the gate homes it at the feed's peer and its table is one a copy
// holds — any table while no join is installed, the join's sources once
// one is.
func TestReplicaKeepFollowsJoinSources(t *testing.T) {
	s, err := New(Config{Name: "holder"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const home, self = "127.0.0.1:1", "holder:1"
	s.pool.ApplyMapUpdate(at(t, 1, []string{"u"}, home, self).For(self))
	check := func(want map[string]bool) {
		t.Helper()
		for key, keep := range want {
			if got := s.replicaKeep(home, key); got != keep {
				t.Errorf("keep %q = %v, want %v", key, got, keep)
			}
		}
	}
	check(map[string]bool{"a|1": true, "s|ann|bob": true, "t|ann|100|bob": true, "v|1": false})
	if err := s.installJoins(timelineJoin); err != nil {
		t.Fatal(err)
	}
	check(map[string]bool{"a|1": false, "s|ann|bob": true, "p|bob|100": true, "t|ann|100|bob": false, "v|1": false})
}

// TestReplicatedBaseWriteFansOutOnce: in a cluster keeping two copies,
// the member that computes timelines keeps one copy of its home's join
// sources — its replica hold, which its joins read too — on one
// connection to the home. One post reaches it once: the home pushes it
// once, it fires one fan-out there, as on an embedded engine, counts no
// unchanged write, and adds one record to the member's write-behind
// log; the timeline it computes is the embedded engine's, byte for byte.
func TestReplicatedBaseWriteFansOutOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var members []*Server
	var addrs []string
	for i := 0; i < 2; i++ {
		cfg := durableConfig(fmt.Sprintf("m%d", i), t.TempDir())
		cfg.ScrubInterval, cfg.CompactInterval = -1, -1
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		members, addrs = append(members, s), append(addrs, addr)
	}
	// Member 0 homes the posts and subscriptions, member 1 the timelines
	// and a copy of member 0's range. Count the post's pushes into member
	// 1 at its one sink, bound before any feed dials.
	tm := members[1]
	const post = "p|bob|0000000200"
	var pushes atomic.Int64
	tm.up.mu.Lock()
	sink := tm.up.apply
	tm.up.apply = func(cs []core.Change) {
		for _, c := range cs {
			if c.Key == post {
				pushes.Add(1)
			}
		}
		sink(cs)
	}
	tm.up.mu.Unlock()
	cl, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"t|"}, Replicas: 2, Joins: twip.Joins})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	embedded, err := shard.New(shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer embedded.Close()
	if err := embedded.InstallText(twip.Joins); err != nil {
		t.Fatal(err)
	}
	put := func(k, v string) {
		t.Helper()
		if err := embedded.Put(k, v); err != nil {
			t.Fatal(err)
		}
		if err := cl.Put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		if err := cl.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	timeline := func() (want, got []core.KV) {
		t.Helper()
		want = embedded.Scan("t|ann|", "t|ann}", 0, nil, nil)
		got, err := cl.Scan(ctx, "t|ann|", "t|ann}", 0)
		if err != nil {
			t.Fatal(err)
		}
		return want, got
	}
	put("s|ann|bob", "1")
	put("p|bob|0000000100", "hello")
	if want, got := timeline(); len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline before the post: cluster %v, embedded %v", got, want)
	}
	if _, err := tm.snapshotDurable(); err != nil { // the log from here on holds the post alone
		t.Fatal(err)
	}
	before, embBefore := tm.pool.Stats(), embedded.Stats()

	put(post, "again")
	after, embAfter := tm.pool.Stats(), embedded.Stats()
	if fanout := embAfter.UpdaterFires - embBefore.UpdaterFires; fanout != 1 || after.UpdaterFires-before.UpdaterFires != fanout {
		t.Errorf("the post fired %d updaters on the timeline member; one fan-out is %d", after.UpdaterFires-before.UpdaterFires, fanout)
	}
	if n := after.UnchangedWrites - before.UnchangedWrites; n != 0 {
		t.Errorf("the timeline member counted %d unchanged writes for the post, want 0", n)
	}
	if n := pushes.Load(); n != 1 {
		t.Errorf("the home pushed the post to the timeline member %d times, want 1", n)
	}
	if conns := tm.up.conns(""); len(conns) != 1 || len(tm.up.conns(addrs[0])) != 1 {
		t.Errorf("the timeline member holds %d connections, want 1, to its home", len(conns))
	}
	if want, got := timeline(); len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("timeline after the post: cluster %v, embedded %v", got, want)
	}

	// Read the log back from a copy of the member's directory.
	if err := tm.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "copy")
	if err := os.CopyFS(dir, os.DirFS(tm.dur.Dir())); err != nil {
		t.Fatal(err)
	}
	d, err := durable.Open(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	logged := slices.ContainsFunc(rec.KVs, func(kv durable.KV) bool { return kv.Key == post })
	if rec.LogRecords != 1 || !logged {
		t.Errorf("the post left %d log records on the timeline member (recovered: %v), want 1", rec.LogRecords, logged)
	}
}

// heldCopyLoad is the workload the held-copy tests drive through a
// cluster whose first member homes the posts and subscriptions and
// whose second, short of memory, computes the timelines and copies the
// first's range: 30 users following 5 each, then posts.
type heldCopyLoad struct {
	t         *testing.T
	ctx       context.Context
	cl        *cluster.Cluster
	acked     int            // acknowledged base rows
	timelines map[string]int // rows per timeline
}

const heldCopyUsers, heldCopyFollows = 30, 5

func heldCopyUser(i int) string { return fmt.Sprintf("u%02d", i%heldCopyUsers) }

func newHeldCopyLoad(ctx context.Context, t *testing.T, cl *cluster.Cluster, posts int) *heldCopyLoad {
	w := &heldCopyLoad{t: t, ctx: ctx, cl: cl, timelines: make(map[string]int)}
	for u := 0; u < heldCopyUsers; u++ {
		for f := 1; f <= heldCopyFollows; f++ {
			w.put("s|"+heldCopyUser(u)+"|"+heldCopyUser(u+f), "1")
		}
	}
	for i := 0; i < posts; i++ {
		w.post(i)
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *heldCopyLoad) put(k, v string) {
	w.t.Helper()
	if err := w.cl.Put(w.ctx, k, v); err != nil {
		w.t.Fatal(err)
	}
	w.acked++
}

// post writes post i, by user i, which reaches its followers' timelines.
func (w *heldCopyLoad) post(i int) {
	w.t.Helper()
	w.put(fmt.Sprintf("p|%s|%010d", heldCopyUser(i), 1000+i), fmt.Sprintf("post %d", i))
	for f := 1; f <= heldCopyFollows; f++ {
		w.timelines[heldCopyUser(i-f+heldCopyUsers)]++
	}
}

// copied counts the base rows s stores.
func copied(s *Server) (n int) {
	s.pool.Shard(0).WithEngine(func(e *core.Engine) {
		e.Store().Scan("p|", "t|", func(string, *store.Value) bool { n++; return true })
	})
	return n
}

// readThenFailOver reads every timeline through the cluster, requiring
// tm's copy to hold every acknowledged row after each read and the
// reads to have evicted something, then closes the home, repairs, and
// requires the cluster to count every acknowledged row.
func (w *heldCopyLoad) readThenFailOver(home, tm *Server) {
	w.t.Helper()
	for u := 0; u < heldCopyUsers; u++ {
		user := heldCopyUser(u)
		kvs, err := w.cl.Scan(w.ctx, "t|"+user+"|", "t|"+user+"}", 0)
		if err != nil || len(kvs) != w.timelines[user] {
			w.t.Fatalf("timeline of %s = %d rows (%v), want %d", user, len(kvs), err, w.timelines[user])
		}
		if n := copied(tm); n != w.acked {
			w.t.Fatalf("after reading %d timelines the copy holds %d of %d acknowledged rows", u+1, n, w.acked)
		}
	}
	if tm.pool.Stats().Evictions == 0 {
		w.t.Fatal("the limit forced no eviction; the test must exercise it")
	}
	home.Close()
	if dead, err := w.cl.Repair(w.ctx); err != nil || len(dead) != 1 {
		w.t.Fatalf("Repair = %v, %v; want the home repaired", dead, err)
	}
	if n, err := w.cl.Count(w.ctx, "p|", "t|"); err != nil || n != int64(w.acked) {
		w.t.Fatalf("after failover the cluster counts %d rows (%v), want %d acknowledged", n, err, w.acked)
	}
}

// heldCopyMemLimit holds the timeline member well below what its
// timelines and its copy take.
const heldCopyMemLimit = 24 << 10

// TestHeldCopySurvivesEvictionAndFailover: a member short of memory
// keeps its replica copy whole. The timeline member of a 2-copy cluster
// is limited well below what its timelines and its copy of the home's
// posts and subscriptions take; reading every timeline evicts computed
// timelines, never a copied row, so once the home dies and a repair
// promotes the member every acknowledged row is still there.
func TestHeldCopySurvivesEvictionAndFailover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var members []*Server
	var addrs []string
	for i := 0; i < 2; i++ {
		cfg := Config{Name: fmt.Sprintf("m%d", i)}
		if i == 1 {
			cfg.Engine = core.Options{MemLimit: heldCopyMemLimit}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		members, addrs = append(members, s), append(addrs, addr)
	}
	// Member 0 homes the posts and subscriptions, member 1 the timelines
	// and a copy of member 0's range.
	cl, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"t|"}, Replicas: 2, Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w := newHeldCopyLoad(ctx, t, cl, 340)
	if n := copied(members[1]); n != w.acked {
		t.Fatalf("the timeline member's copy holds %d of %d acknowledged rows before any read", n, w.acked)
	}
	w.readThenFailOver(members[0], members[1])
}

// TestHoldLandedBeforeTheMeshStaysResident: a restarted member's replica
// hold lands while a peer it loads from is still down. Its recovered
// gate made the copied tables loader-backed before the hold was granted,
// so the copy is the member's one copy: once the peer is back, the
// home's pushes reach it, eviction spares it, and a repair promotes it
// whole.
func TestHoldLandedBeforeTheMeshStaysResident(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfgs := make([]Config, 3)
	members := make([]*Server, 3)
	addrs := make([]string, 3)
	for i := range members {
		cfgs[i] = durableConfig(fmt.Sprintf("m%d", i), t.TempDir())
		if i == 1 {
			cfgs[i].Engine = core.Options{MemLimit: heldCopyMemLimit}
		}
		s, err := New(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if addrs[i], err = s.Start(); err != nil {
			t.Fatal(err)
		}
		members[i] = s
	}
	restart := func(i int) *Server {
		t.Helper()
		members[i].Close()
		s, err := New(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ln, err := net.Listen("tcp", addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(ln)
		members[i] = s
		return s
	}
	// Member 0 homes the posts and subscriptions, member 1 the timelines
	// and a copy of member 0's range, member 2 nothing.
	cl, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"t|", "u"}, Replicas: 2, Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w := newHeldCopyLoad(ctx, t, cl, 300)

	members[2].Close()
	tm := restart(1)
	for deadline := time.Now().Add(10 * time.Second); tm.repl.snapshot() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the restarted member's hold never synced")
		}
	}
	restart(2)
	for deadline := time.Now().Add(10 * time.Second); tm.repl.snapshot() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d holds synced; want the hold synced", tm.repl.snapshot())
		}
	}
	w.post(300)
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if n := copied(tm); n != w.acked {
		t.Fatalf("the restarted member's copy holds %d of %d acknowledged rows: a push was dropped", n, w.acked)
	}
	w.readThenFailOver(members[0], tm)
}
