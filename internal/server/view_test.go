package server

import (
	"bufio"
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pequod/internal/cluster"
	"pequod/internal/partition"
	"pequod/internal/rpc"
)

// TestMalformedViewChangesNothing: a map-bearing frame whose peers do
// not match its owner count, or whose self indexes fall outside it, is
// answered with an error reply before any state moves — gate, mesh view
// and replica assignment stay exactly the values they were.
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
	s.pool.ApplyMapUpdate(v)
	if err := s.ConnectMesh(v, "p"); err != nil {
		t.Fatal(err)
	}
	s.applyReplicaAssignment(v, 2, nil)
	gate, mesh, repl := s.pool.Gate(), s.mesh.view.Load(), s.repl.view.Load()

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
	if s.pool.Gate() != gate || s.mesh.view.Load() != mesh || s.repl.view.Load() != repl {
		t.Fatal("a rejected frame moved the gate, the mesh view or the replica assignment")
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
	if rv := s.repl.view.Load(); rv == nil || rv.copies != 2 || !rv.Same(g) || !reflect.DeepEqual(rv.tables, []string{"s", "p"}) {
		t.Fatalf("recovered replica assignment = %+v", rv)
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

// bouncer is a scripted member: it answers every data request with a
// NotOwner reply — the first carrying views[0], every later one
// views[1] — and acknowledges everything else.
type bouncer struct {
	addr    string
	views   atomic.Pointer[[2]*partition.View]
	bounces atomic.Int64
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
		switch m.Type {
		case rpc.MsgGet, rpc.MsgPut, rpc.MsgScan:
			r = rpc.NotOwnerReply(m.Seq, b.views.Load()[min(b.bounces.Add(1)-1, 1)])
		}
		if _, err := rpc.WriteMessage(c, r, nil); err != nil {
			return
		}
	}
}

// TestAdoptLearnedView runs one table of views carried on NotOwner
// replies against both holders that learn from them — the cluster
// client's routing view and a server's mesh loaders. Each holder starts
// at the deployment's (0, 0) map over [bouncer, second member], learns
// base (e5 v2) from its first bounce, and meets the row's view on every
// later one.
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
		name string
		// run starts the second member, arms the bouncer at home with it,
		// drives one operation into the bouncer's range and returns the
		// view the holder ends on.
		run func(t *testing.T, home string, arm func(second string)) *partition.View
	}{
		{"cluster client", func(t *testing.T, home string, arm func(string)) *partition.View {
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
		{"mesh loader", func(t *testing.T, home string, arm func(string)) *partition.View {
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
			return s.mesh.view.Load()
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
				want := b.views.Load()[0]
				if tc.adopted {
					want = b.views.Load()[1]
				}
				if !got.Same(want) || got.SameShape(want) != nil {
					t.Fatalf("holder ended on %+v, want %+v (after %d bounces)", got.Wire(), want.Wire(), b.bounces.Load())
				}
				// The loader's server is the second member, whichever owner
				// index that has become; the client is nobody.
				if wantSelf := want.For(second).Self(); h.name == "mesh loader" && !reflect.DeepEqual(got.Self(), wantSelf) {
					t.Fatalf("loader's self = %v, want %v", got.Self(), wantSelf)
				}
			})
		}
	}
}
