package server

import (
	"bufio"
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
)

// TestMalformedViewChangesNothing: a map-bearing frame whose peers do
// not match its owner count, or whose self indexes fall outside it, is
// answered with an error reply before any state moves — the gate and the
// replica assignment stay exactly the values they were.
func TestMalformedViewChangesNothing(t *testing.T) {
	s, err := New(Config{Name: "member"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	v := mustView(t, partition.MustNew("m"), []string{addr, addr}, 0, 1)
	if err := s.ConnectMesh(v, "p"); err != nil {
		t.Fatal(err)
	}
	replicate(t, s, v, 2)
	gate := s.pool.Gate()

	bad := map[string]partition.Wire{
		"short peers":       {Epoch: 9, Version: 1, Bounds: []string{"g", "m"}, Peers: []string{addr, addr}, Self: []int{0}},
		"long peers":        {Epoch: 9, Version: 1, Bounds: []string{"m"}, Peers: []string{addr, addr, addr}, Self: []int{0}},
		"self out of range": {Epoch: 9, Version: 1, Bounds: []string{"m"}, Peers: []string{addr, addr}, Self: []int{0, 2}},
		"unsorted bounds":   {Epoch: 9, Version: 1, Bounds: []string{"m", "g"}, Peers: []string{addr, addr, addr}, Self: []int{0}},
	}
	frames := []*rpc.Message{
		{Type: rpc.MsgExtractRange, Lo: "a", Hi: "b"},
		{Type: rpc.MsgSpliceRange, Lo: "a", Hi: "b", KVs: []rpc.KV{{Key: "a1", Value: "x"}}},
		{Type: rpc.MsgMapUpdate},
		{Type: rpc.MsgJoinCluster, Tables: []string{"q"}, Text: timelineJoin},
		{Type: rpc.MsgReplicate, Limit: 3},
		{Type: rpc.MsgConnectPeers, Tables: []string{"q"}},
	}
	for name, w := range bad {
		for _, f := range frames {
			m := *f
			m.Seq, m.Map = 7, w
			r := s.handle(nil, &m)
			if r == nil || r.Status != rpc.StatusError || r.Seq != 7 {
				t.Errorf("%s in a type-%d frame: reply %+v, want an error reply", name, f.Type, r)
			}
		}
	}
	if s.pool.Gate() != gate || s.repl.copies != 2 {
		t.Fatal("a rejected frame moved the gate or the replica assignment")
	}
	if s.mesh.tables["q"] || s.pool.InstalledText() != "" {
		t.Fatal("a rejected frame wired a table or installed a join")
	}
	if _, ok := s.pool.Get("a1"); ok {
		t.Fatal("a rejected splice installed its rows")
	}
}

// TestRecoverGoldenMeta: testdata/golden_meta.json is a meta.json the
// commit before partition.View existed wrote (a member owning ranges 0
// and 3 of four, meshed, holding replicas). recoverDurable rebuilds the
// same gate and replica assignment from it, and what the server saves
// back is the same file but for its timestamp — the mesh record
// included, though the golden file's peers are long gone and the rewire
// is still retrying at Close.
func TestRecoverGoldenMeta(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_meta.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(durableConfig("m0", dir))
	if err != nil {
		t.Fatal(err)
	}
	g := s.pool.Gate()
	if g == nil {
		t.Fatal("no gate recovered from the golden meta")
	}
	w := g.Wire()
	if w.Epoch != 2147483655 || w.Version != 2 || !reflect.DeepEqual(w.Bounds, []string{"p|k", "p|x", "s|"}) ||
		len(w.Peers) != 4 || w.Peers[0] != w.Peers[3] || !reflect.DeepEqual(w.Self, []int{0, 3}) {
		t.Fatalf("recovered gate = %+v", w)
	}
	if !g.Owns("p|a") || g.Owns("p|m") || !g.Owns("t|x") {
		t.Fatal("recovered gate owns the wrong ranges")
	}
	if st := s.repl; st == nil || st.copies != 2 || !reflect.DeepEqual(st.tables, []string{"s", "p"}) {
		t.Fatalf("recovered replica assignment = %+v", st)
	}
	s.Close()
	saved, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	varies := regexp.MustCompile(`"saved_unix_nano": \d+`)
	strip := func(b []byte) string { return strings.TrimSpace(varies.ReplaceAllString(string(b), "")) }
	if got, want := strip(saved), strip(golden); got != want {
		t.Fatalf("meta.json saved back differs from the golden file:\n%s\nwant\n%s", got, want)
	}
}

// bouncer is a scripted member: once armed with views it answers every
// data request with a NotOwner reply — the first carrying views[0],
// every later one views[1] — and it acknowledges everything else,
// counting pings.
type bouncer struct {
	addr    string
	views   atomic.Pointer[[2]*partition.View]
	bounces atomic.Int64
	pings   atomic.Int64
}

func newBouncer(t *testing.T) *bouncer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	b := &bouncer{addr: ln.Addr().String()}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go b.serve(c)
		}
	}()
	return b
}

func (b *bouncer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		m, _, err := rpc.ReadMessage(br, nil)
		if err != nil {
			return
		}
		r := rpc.OKReply(m.Seq)
		switch vs := b.views.Load(); m.Type {
		case rpc.MsgGet, rpc.MsgPut, rpc.MsgScan:
			if vs != nil {
				r = rpc.NotOwnerReply(m.Seq, vs[min(b.bounces.Add(1)-1, 1)])
			}
		case rpc.MsgPing:
			b.pings.Add(1)
		}
		if _, err := rpc.WriteMessage(c, r, nil); err != nil {
			return
		}
	}
}

// TestAdoptLearnedView runs one table of views carried on NotOwner
// replies against a holder that learns from them and one that must not.
// Each starts at the deployment's (0, 0) map over [bouncer, second
// member]. The cluster client's routing view learns base (e5 v2) from
// its first bounce and adopts the row's view, met on every later one,
// by the adopt-if-newer rule. A server's mesh loader adopts nothing: its
// load fails and the gate — which only a coordinator's frame moves,
// with the splice or promotion an ownership flip needs — stays put.
func TestAdoptLearnedView(t *testing.T) {
	const third = "127.0.0.1:1" // a member nothing ever needs to dial
	cases := []struct {
		name           string
		epoch, version int64
		bounds         []string
		grow           bool // the carried view has a third member between the two
		adopted        bool
	}{
		{"newer version", 5, 3, []string{"u"}, false, true},
		{"epoch tie-break", 6, 2, []string{"u"}, false, true},
		{"older version", 5, 1, []string{"u"}, false, false},
		{"older epoch at a higher version", 4, 9, []string{"u"}, false, false},
		{"same position, other bounds", 5, 2, []string{"u"}, false, false},
		{"membership change", 5, 3, []string{"t", "u"}, true, true},
	}
	holders := []struct {
		name   string
		learns bool
		// run starts the second member, arms the bouncer at home with it,
		// drives one operation into the bouncer's range and returns the
		// view the holder ends on.
		run func(t *testing.T, home string, arm func(second string)) *partition.View
	}{
		{"cluster client", true, func(t *testing.T, home string, arm func(string)) *partition.View {
			second := newBouncer(t).addr // only ever acknowledges
			arm(second)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cl, err := cluster.New(ctx, cluster.Config{Addrs: []string{home, second}, Bounds: []string{"t"}})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, _, err := cl.Get(ctx, "s|ann|bob"); err == nil {
				t.Fatal("a read its home bounces succeeded")
			}
			v, err := partition.NewView(cl.Map(), cl.Addrs())
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
		{"mesh loader", false, func(t *testing.T, home string, arm func(string)) *partition.View {
			s, err := New(Config{Name: "compute", Joins: timelineJoin})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			second, err := s.Start()
			if err != nil {
				t.Fatal(err)
			}
			arm(second)
			if err := s.ConnectMesh(mustView(t, partition.MustNew("t"), []string{home, second}, 1), "p", "s"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.pool.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, 0, time.Now().Add(200*time.Millisecond)); err == nil {
				t.Fatal("a timeline whose sources their home bounces was computed")
			}
			if s.pool.Stats().LoadsFailed == 0 {
				t.Fatal("no load failed against a home that bounces every fetch")
			}
			return s.pool.Gate()
		}},
	}
	for _, h := range holders {
		for _, tc := range cases {
			t.Run(h.name+"/"+tc.name, func(t *testing.T) {
				b := newBouncer(t)
				var second string
				got := h.run(t, b.addr, func(addr string) {
					second = addr
					base := partition.Wire{Epoch: 5, Version: 2, Bounds: []string{"t"}, Peers: []string{b.addr, second}}
					row := partition.Wire{Epoch: tc.epoch, Version: tc.version, Bounds: tc.bounds, Peers: base.Peers}
					if tc.grow {
						row.Peers = []string{b.addr, third, second}
					}
					var views [2]*partition.View
					for i, w := range []partition.Wire{base, row} {
						v, err := w.View()
						if err != nil {
							t.Fatal(err)
						}
						views[i] = v
					}
					b.views.Store(&views)
				})
				want := mustView(t, partition.MustNew("t"), []string{b.addr, second}, 1)
				switch {
				case !h.learns:
				case tc.adopted:
					want = b.views.Load()[1]
				default:
					want = b.views.Load()[0]
				}
				if !got.Same(want) || got.SameShape(want) != nil {
					t.Fatalf("holder ended on %+v, want %+v (after %d bounces)", got.Wire(), want.Wire(), b.bounces.Load())
				}
				// The loader's server is the second member, owner 1 of the
				// gate it started with; the client is nobody.
				if !h.learns && !reflect.DeepEqual(got.Self(), []int{1}) {
					t.Fatalf("loader's self = %v, want [1]", got.Self())
				}
			})
		}
	}
}

// TestExtractSourceLoadsFromNewHome: an extract swaps the source's gate
// before the advance that follows it runs, and in that window the
// source's loaders already route by the swapped gate. A timeline read
// there that needs the moved posts loads them from the destination,
// which has spliced them, instead of marking the range resident with
// no rows.
func TestExtractSourceLoadsFromNewHome(t *testing.T) {
	start := func(name string) (*Server, string) {
		s, err := New(Config{Name: name, Joins: timelineJoin})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		return s, addr
	}
	src, srcAddr := start("src")
	dst, dstAddr := start("dst")
	// Owner 1, [p|b, p|m), moves from src to dst; src keeps the rest of
	// p| and everything from q on, s| and t| included.
	bounds := []string{"p|b", "p|m", "q"}
	v := at(t, 1, bounds, srcAddr, srcAddr, dstAddr, srcAddr)
	next := at(t, 2, bounds, srcAddr, dstAddr, dstAddr, srcAddr)
	for _, m := range []struct {
		s    *Server
		addr string
	}{{src, srcAddr}, {dst, dstAddr}} {
		if r := m.s.handle(nil, &rpc.Message{Type: rpc.MsgMapUpdate, Map: v.For(m.addr).Wire()}); r.Status != rpc.StatusOK {
			t.Fatal(r.Err)
		}
		if err := m.s.ConnectMesh(v.For(m.addr), "p", "s"); err != nil {
			t.Fatal(err)
		}
	}
	for _, kv := range [][2]string{{"s|ann|bob", "1"}, {"p|bob|100", "Hi"}} {
		if err := src.pool.Put(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := src.pool.ExtractClusterRange(keys.Range{Lo: "p|b", Hi: "p|m"}, next.For(srcAddr))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.pool.SpliceClusterRange(rs, next.For(dstAddr)); err != nil {
		t.Fatal(err)
	}
	if err := dst.pool.Put("p|bob|200", "again"); err != nil {
		t.Fatal(err)
	}
	kvs, err := src.pool.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, 0, time.Now().Add(5*time.Second))
	want := []core.KV{{Key: "t|ann|100|bob", Value: "Hi"}, {Key: "t|ann|200|bob", Value: "again"}}
	if err != nil || !reflect.DeepEqual(kvs, want) {
		t.Fatalf("timeline at the source = %v, %v; want %v", kvs, err, want)
	}
}

// TestReplicateFrameCatchesUpGate: a member that missed the MapUpdate
// for v+1 catches up from the coordinator's next Replicate carrying
// v+1, which gets the fence and gate swap a MapUpdate gets before the
// assignment is taken.
func TestReplicateFrameCatchesUpGate(t *testing.T) {
	s, err := New(Config{Name: "member"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	a, b := newBouncer(t), newBouncer(t)
	bounds := []string{"g", "m"}
	v := at(t, 1, bounds, a.addr, b.addr, addr).For(addr)
	next := at(t, 2, bounds, b.addr, b.addr, addr).For(addr) // [, g) moves from a to b
	if r := s.handle(nil, &rpc.Message{Type: rpc.MsgMapUpdate, Map: v.Wire()}); r.Status != rpc.StatusOK {
		t.Fatal(r.Err)
	}
	if err := s.ConnectMesh(v, "p"); err != nil {
		t.Fatal(err)
	}
	replicate(t, s, next, 2)
	if g := s.pool.Gate(); !g.Same(next) || g.SameShape(next) != nil {
		t.Fatalf("gate after the Replicate = %+v, want %+v", g.Wire(), next.Wire())
	}
	if a.pings.Load() == 0 {
		t.Fatal("the range's old owner was not fenced")
	}
	if n := s.buildMeta().ReplicaCopies; n != 2 {
		t.Fatalf("replica copies = %d, want 2", n)
	}
}

// TestStaleCoordinatorAssignsReplicas: a coordinator started from the
// deployment's original bounds after another one moved a bound and added
// a member replicates with the stale map it published, which no gate
// adopts. Every member still takes its assignment — the one it only
// learned of included — and the joins Install adds extend the tables.
func TestStaleCoordinatorAssignsReplicas(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var members []*Server
	var addrs []string
	for _, name := range []string{"m0", "m1", "m2"} {
		s, err := New(Config{Name: name})
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
	first, err := cluster.New(ctx, cluster.Config{Addrs: addrs[:2], Bounds: []string{"m"}, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.MoveBound(ctx, 0, "k"); err != nil {
		t.Fatal(err)
	}
	if err := first.AddServerAt(ctx, addrs[2], 1, "t"); err != nil {
		t.Fatal(err)
	}
	moved := members[0].pool.Gate()

	stale, err := cluster.New(ctx, cluster.Config{Addrs: addrs[:2], Bounds: []string{"m"}, Replicas: 2, Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	for i, s := range members {
		if g := s.pool.Gate(); !g.Same(moved) {
			t.Fatalf("member %d gate moved back to %+v", i, g.Wire())
		}
		s.rmu.Lock()
		st := s.repl
		s.rmu.Unlock()
		if st == nil {
			t.Fatalf("member %d holds no replica assignment", i)
		}
		st.mu.Lock()
		copies, tables := st.copies, slices.Sorted(slices.Values(st.tables))
		st.mu.Unlock()
		if copies != 2 || !reflect.DeepEqual(tables, []string{"p", "s"}) {
			t.Fatalf("member %d assignment = %d copies of %v, want 2 of [p s]", i, copies, tables)
		}
	}
}

// TestReplicaHoldsFollowGate: replica holds are a function of the gate
// and the assignment, so a MapUpdate that changes ring placement
// reshapes them at once, before any Replicate follows it.
func TestReplicaHoldsFollowGate(t *testing.T) {
	s, err := New(Config{Name: "member"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const self, p, q = "member:1", "127.0.0.1:1", "127.0.0.1:2" // peers nothing can dial
	// Ring p, self: self copies p's [, m).
	replicate(t, s, at(t, 1, []string{"m"}, p, self).For(self), 2)
	// q joins at [g, m): on the ring p, q, self, self copies q's range.
	next := at(t, 2, []string{"g", "m"}, p, q, self).For(self)
	if r := s.handle(nil, &rpc.Message{Type: rpc.MsgMapUpdate, Map: next.Wire()}); r.Status != rpc.StatusOK {
		t.Fatal(r.Err)
	}
	g := s.pool.Gate()
	want := map[keys.Range]bool{}
	for _, o := range g.ReplicaHolds(2) {
		want[g.Map().OwnerRange(o)] = true
	}
	s.repl.mu.Lock()
	got := map[keys.Range]bool{}
	for r := range s.repl.held {
		got[r] = true
	}
	s.repl.mu.Unlock()
	if !reflect.DeepEqual(got, want) || !want[keys.Range{Lo: "g", Hi: "m"}] {
		t.Fatalf("held after the MapUpdate = %v, want %v", got, want)
	}
}
