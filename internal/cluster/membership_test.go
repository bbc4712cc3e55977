package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/server"
	"pequod/internal/shard"
)

// startServer launches one single-shard server and returns its address
// and a kill function (for failure-injection tests; graceful cleanups
// still run via t.Cleanup). With PEQUOD_TEST_DATADIR set the server
// persists to a temp dir, re-running the suite with durability on.
func startServer(t *testing.T, name string) (string, func()) {
	t.Helper()
	s, err := server.New(server.Config{Name: name, DataDir: testDataDir(t)})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return addr, s.Close
}

// TestAddServerGrowsMap: a fresh server joins live, takes the upper
// half of a member's range, serves reads and writes there, and
// participates in the join mesh.
func TestAddServerGrowsMap(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}, Joins: shard.EquivJoins})
	var want []core.KV
	for i := 0; i < 20; i++ {
		kv := core.KV{Key: fmt.Sprintf("x|k%02d", i), Value: fmt.Sprintf("v%d", i)}
		want = append(want, kv)
		if err := cl.Put(ctx, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := startServer(t, "joiner")
	// Explicit grant: split member 1's range [m, +inf) at x|k10.
	if err := cl.AddServerAt(ctx, fresh, 1, "x|k10"); err != nil {
		t.Fatal(err)
	}
	if cl.Members() != 3 {
		t.Fatalf("Members = %d after join", cl.Members())
	}
	m := cl.Map()
	if m.Servers() != 3 || m.Version() == 0 || m.Epoch() == 0 {
		t.Fatalf("grown map = %d servers, e%d v%d", m.Servers(), m.Epoch(), m.Version())
	}
	// All rows still visible, exactly once, and the new member serves
	// the granted slice.
	kvs, err := cl.Scan(ctx, "x|", "x}", 0)
	if err != nil || !reflect.DeepEqual(kvs, want) {
		t.Fatalf("post-join scan = %v (%v)", kvs, err)
	}
	raw, err := client.Dial(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if v, found, err := raw.Get("x|k15"); err != nil || !found || v != "v15" {
		t.Fatalf("new member does not serve its slice: %q %v %v", v, found, err)
	}
	// ...and bounces keys outside it with the grown map.
	var noe *partition.NotOwnerError
	if err := raw.Put("x|k05", "nope"); !errors.As(err, &noe) {
		t.Fatalf("new member accepted a key outside its slice: %v", err)
	}
	// Writes route to the new member; joins still compute everywhere.
	if err := cl.Put(ctx, "x|k21", "fresh"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(ctx, "x|k21"); err != nil || !ok || v != "fresh" {
		t.Fatalf("Get after join = %q %v %v", v, ok, err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cl.Put(ctx, "s|u2|u8", "1"))
	must(cl.Put(ctx, "p|u8|100", "Hi"))
	must(cl.Quiesce(ctx))
	tl, err := cl.Scan(ctx, "t|u2|", "t|u2}", 0)
	must(err)
	if len(tl) != 1 || tl[0].Key != "t|u2|100|u8" {
		t.Fatalf("timeline after join = %v", tl)
	}
}

// TestAddServerAutoPick: AddServer without an explicit bound places the
// new member where the load is.
func TestAddServerAutoPick(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"e|k0100"}})
	var pairs []core.KV
	for i := 0; i < 300; i++ {
		pairs = append(pairs, core.KV{Key: fmt.Sprintf("e|k%04d", i), Value: "v"})
	}
	if err := cl.PutBatch(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	// Drive reads so the busiest member accumulates samples.
	var ks []string
	for i := 100; i < 300; i++ {
		ks = append(ks, fmt.Sprintf("e|k%04d", i))
	}
	for pass := 0; pass < 3; pass++ {
		if _, err := cl.GetBatch(ctx, ks); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := startServer(t, "auto-joiner")
	if err := cl.AddServer(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	if cl.Members() != 3 {
		t.Fatalf("Members = %d", cl.Members())
	}
	if cl.v.Load().OwnersOf(fresh) == nil {
		t.Fatal("joined member owns nothing")
	}
	if n, err := cl.Count(ctx, "e|", "e}"); err != nil || n != 300 {
		t.Fatalf("count after auto join = %d (%v)", n, err)
	}
	// Joining the same address twice is refused.
	if err := cl.AddServer(ctx, fresh); err == nil {
		t.Fatal("double join accepted")
	}
}

// TestDrainServerStreamsRanges: draining a member moves every range it
// owns to neighbors, the map shrinks, data survives byte-identical, and
// the drained server answers NotOwner with the post-drain map.
func TestDrainServerStreamsRanges(t *testing.T) {
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
	want, err := cl.Scan(ctx, "", "", 0)
	must(err)
	if len(want) == 0 {
		t.Fatal("no data to drain")
	}

	// Drain member 2 — it owns the computed timelines [t|, t|u5).
	must(cl.DrainServer(ctx, addrs[2]))
	if cl.Members() != 3 {
		t.Fatalf("Members = %d after drain", cl.Members())
	}
	if got := cl.Map().Servers(); got != 3 {
		t.Fatalf("map has %d owners after drain", got)
	}
	got, err := cl.Scan(ctx, "", "", 0)
	must(err)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-drain scan diverged:\nbefore %v\nafter  %v", want, got)
	}
	// The drained server refuses ownership with the post-drain map.
	raw, err := client.Dial(addrs[2])
	must(err)
	defer raw.Close()
	var noe *partition.NotOwnerError
	if err := raw.Put("t|u2|zzz", "stale"); !errors.As(err, &noe) {
		t.Fatalf("drained member accepted a write: %v", err)
	}
	if held := noe.View.Map(); held.Version() != cl.Map().Version() || held.Epoch() != cl.Map().Epoch() {
		t.Fatalf("drained member's map = e%d v%d, cluster at e%d v%d",
			noe.View.Map().Epoch(), noe.View.Map().Version(), cl.Map().Epoch(), cl.Map().Version())
	}
	// Incremental maintenance still flows to the timelines' new home.
	must(cl.Put(ctx, "p|u8|150", "again"))
	must(cl.Quiesce(ctx))
	if v, ok, err := cl.Get(ctx, "t|u2|150|u8"); err != nil || !ok || v != "again" {
		t.Fatalf("timeline missed a post after drain: %q %v %v", v, ok, err)
	}
	want, err = cl.Scan(ctx, "", "", 0) // the new post is in the expectation now
	must(err)
	// Draining everything but one member works; draining the last is
	// refused.
	must(cl.DrainServer(ctx, addrs[3]))
	must(cl.DrainServer(ctx, addrs[0]))
	if cl.Members() != 1 {
		t.Fatalf("Members = %d", cl.Members())
	}
	if err := cl.DrainServer(ctx, addrs[1]); err == nil {
		t.Fatal("drained the last member")
	}
	got, err = cl.Scan(ctx, "", "", 0)
	must(err)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan diverged after draining to one member:\nbefore %v\nafter  %v", want, got)
	}
}

// TestStaleClientDuringDrain: a client that never hears about a drain
// keeps working — its first write into the drained range bounces with
// NotOwner carrying the post-drain map, it adopts (including the
// changed member set) and retries successfully.
func TestStaleClientDuringDrain(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 3)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"h", "q"}})
	if err := cl.Put(ctx, "k1", "v1"); err != nil {
		t.Fatal(err)
	}
	stale := newCluster(t, Config{Addrs: addrs, Bounds: []string{"h", "q"}})

	if err := cl.DrainServer(ctx, addrs[1]); err != nil {
		t.Fatal(err)
	}
	// addrs[1] owned [h, q); the stale client still routes "k1" there.
	if err := stale.Put(ctx, "k1", "v2"); err != nil {
		t.Fatalf("stale write during drain failed: %v", err)
	}
	if got := stale.Map().Servers(); got != 2 {
		t.Fatalf("stale client adopted %d owners, want 2", got)
	}
	if stale.Members() != 2 {
		t.Fatalf("stale client sees %d members", stale.Members())
	}
	if v, ok, err := cl.Get(ctx, "k1"); err != nil || !ok || v != "v2" {
		t.Fatalf("stale write lost: %q %v %v", v, ok, err)
	}
}

// deadDestination is one row of the dead-destination family: a member
// dies, a change then tries to move a range onto it, and whichever way
// the transfer resolves — re-offered, or rolled back — the cluster must
// end settled (see run).
type deadDestination struct {
	bounds []string // initial split points; members m0, m1, … serve the ranges in order
	dead   int      // member killed before the change; -1 = none (the joiner dies mid-change)
	// change drives the coordinator; joiner is a fresh server that dies
	// right after answering its first RPC.
	change func(ctx context.Context, cl *Cluster, addrs []string, joiner string) error
	// outcome checks the error's shape and who ended up a member.
	outcome func(t *testing.T, err error, cl *Cluster, addrs []string)
}

// run executes the row and asserts the family's shared post-conditions:
// every row is readable at its surviving owner, the range that was on
// the move takes writes, every live member sits on one (epoch, version)
// — the coordinator's — and none still retains an extraction.
func (d deadDestination) run(t *testing.T) {
	ctx := context.Background()
	addrs := make([]string, len(d.bounds)+1)
	kills := make([]func(), len(addrs))
	for i := range addrs {
		addrs[i], kills[i] = startServer(t, fmt.Sprintf("m%d", i))
	}
	cl := newCluster(t, Config{Addrs: addrs, Bounds: d.bounds})
	// Rows in a..l: below every "q" bound, so none is homed at a member
	// that dies owning the top range.
	var want []core.KV
	for i := 0; i < 12; i++ {
		kv := core.KV{Key: fmt.Sprintf("%c%02d", 'a'+byte(i), i), Value: fmt.Sprintf("v%d", i)}
		want = append(want, kv)
		if err := cl.Put(ctx, kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	live := map[string]bool{}
	for i, a := range addrs {
		live[a] = i != d.dead
	}
	joiner := ""
	if d.dead >= 0 {
		kills[d.dead]() // and it never comes back
	} else {
		backend, kill := startServer(t, "joiner")
		joiner = dyingProxy(t, backend, kill)
	}
	d.outcome(t, d.change(ctx, cl, addrs, joiner), cl, addrs)

	for _, kv := range want {
		if v, ok, err := cl.Get(ctx, kv.Key); err != nil || !ok || v != kv.Value {
			t.Fatalf("row %s lost: %q %v %v", kv.Key, v, ok, err)
		}
	}
	if err := cl.Put(ctx, "h99", "after"); err != nil {
		t.Fatalf("write into the range that was on the move: %v", err)
	}
	m := cl.Map()
	for _, a := range cl.MemberAddrs() {
		if !live[a] {
			continue
		}
		c, err := client.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.StatSnapshot(ctx)
		c.Close()
		if err != nil || st.Cluster == nil {
			t.Fatalf("stat from %s: %+v, %v", a, st, err)
		}
		if st.Cluster.Epoch != m.Epoch() || st.Cluster.Version != m.Version() {
			t.Fatalf("%s sits on e%d v%d, the coordinator on e%d v%d", a, st.Cluster.Epoch, st.Cluster.Version, m.Epoch(), m.Version())
		}
		if st.Cluster.Retained != 0 {
			t.Fatalf("%s still retains %d extraction(s) after the publish", a, st.Cluster.Retained)
		}
	}
}

// dyingProxy fronts the server at backend and, once that server's first
// reply has gone back through it, kills the server and itself: a member
// that answers one RPC and dies before the next.
func dyingProxy(t *testing.T, backend string, kill func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		front, err := ln.Accept()
		if err != nil {
			return
		}
		defer front.Close()
		back, err := net.Dial("tcp", backend)
		if err != nil {
			return
		}
		defer back.Close()
		go io.Copy(back, front) //nolint:errcheck // ends when front closes
		buf := make([]byte, 64<<10)
		n, _ := back.Read(buf)
		front.Write(buf[:n]) //nolint:errcheck // the test fails on the lost reply
		ln.Close()
		kill()
	}()
	return ln.Addr().String()
}

// reverted is the outcome of a change whose only destination is dead:
// it fails with ErrMemberDown, says it reverted, and leaves exactly the
// original members.
func reverted(t *testing.T, err error, cl *Cluster, addrs []string) {
	t.Helper()
	if err == nil {
		t.Fatal("a change onto a dead destination reported success")
	}
	if !errors.Is(err, perrs.ErrMemberDown) || !strings.Contains(err.Error(), "reverted") {
		t.Fatalf("change did not revert with ErrMemberDown: %v", err)
	}
	if got := cl.MemberAddrs(); !reflect.DeepEqual(got, addrs) {
		t.Fatalf("members after the revert = %v, want %v", got, addrs)
	}
}

// TestDrainReoffersWhenNeighborDies: the destination neighbor dying
// between extract and splice must not strand the range — it re-offers
// to the other neighbor, and every row survives.
func TestDrainReoffersWhenNeighborDies(t *testing.T) {
	deadDestination{
		bounds: []string{"h", "q"},
		dead:   2,
		// Drain m1: its range [h, q) is first offered to its right
		// neighbor m2 (dead) and must fall back to m0.
		change: func(ctx context.Context, cl *Cluster, addrs []string, _ string) error {
			return cl.DrainServer(ctx, addrs[1])
		},
		outcome: func(t *testing.T, err error, cl *Cluster, addrs []string) {
			// The drain itself may report the unreachable member (the
			// final publish cannot reach m2), but m1 must be out of the
			// map and its range on m0.
			if err != nil && !strings.Contains(err.Error(), addrs[2]) {
				t.Fatalf("drain failed for an unexpected reason: %v", err)
			}
			if owners := cl.v.Load().OwnersOf(addrs[1]); owners != nil {
				t.Fatalf("drained member still owns %v", owners)
			}
			raw, err := client.Dial(addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if v, found, err := raw.Get("h07"); err != nil || !found || v != "v7" {
				t.Fatalf("m0 does not serve the re-offered range: %q %v %v", v, found, err)
			}
		},
	}.run(t)
}

// TestDrainRevertsWhenNeighborPermanentlyDead: when the draining
// member's only neighbor is dead (so there is nobody to re-offer to),
// the drain must revert — the member stays in the map, keeps serving
// every row, and the failure is matchable as ErrMemberDown.
func TestDrainRevertsWhenNeighborPermanentlyDead(t *testing.T) {
	deadDestination{
		bounds: []string{"m"},
		dead:   1,
		change: func(ctx context.Context, cl *Cluster, addrs []string, _ string) error {
			return cl.DrainServer(ctx, addrs[0])
		},
		outcome: reverted,
	}.run(t)
	// And the refusal to drain the last member is a typed error too.
	addrS, _ := startServer(t, "solo")
	solo := newCluster(t, Config{Addrs: []string{addrS}})
	if derr := solo.DrainServer(context.Background(), addrS); !errors.Is(derr, perrs.ErrDraining) {
		t.Fatalf("last-member drain refusal is not ErrDraining: %v", derr)
	}
}

// TestMoveBoundRevertsOnDeadDestination: a plain bound move whose
// destination died reverts — the source serves the range again, no row
// is lost, and the failure is reported.
func TestMoveBoundRevertsOnDeadDestination(t *testing.T) {
	deadDestination{
		bounds: []string{"m"},
		dead:   1,
		// Move [g, m) from m0 to m1: extract at m0 succeeds, splice at
		// dead m1 fails.
		change: func(ctx context.Context, cl *Cluster, _ []string, _ string) error {
			return cl.MoveBound(ctx, 0, "g")
		},
		outcome: reverted,
	}.run(t)
}

// TestAddServerRevertsWhenJoinerDies: a fresh member that dies between
// JoinCluster and its first splice never becomes a member — its slice
// goes back to the donor and both original members agree on the map.
func TestAddServerRevertsWhenJoinerDies(t *testing.T) {
	deadDestination{
		bounds: []string{"m"},
		dead:   -1,
		change: func(ctx context.Context, cl *Cluster, _ []string, joiner string) error {
			return cl.AddServerAt(ctx, joiner, 0, "g")
		},
		outcome: reverted,
	}.run(t)
}

// TestConcurrentCoordinatorsEpochTieBreak: two coordinators with
// distinct identities (distinct names) racing from the same parent map
// cannot publish distinct maps at the same position. The loser's
// transfer fails with a version conflict, its MoveBound
// retry-after-adopt succeeds against the winner's map, and exactly one
// map survives: the first coordinator adopts the second's.
func TestConcurrentCoordinatorsEpochTieBreak(t *testing.T) {
	ctx := context.Background()
	addrs := startServers(t, 2)
	a := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}, CoordinatorName: "tie-break-a"})
	b := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}, CoordinatorName: "tie-break-b"})
	for i := 0; i < 6; i++ {
		if err := a.Put(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// A moves first; B still holds the original map and proposes a
	// conflicting successor from the same parent. B's transfer must fail
	// with a version conflict internally and succeed on the
	// retry-after-adopt inside MoveBound.
	if err := a.MoveBound(ctx, 0, "k3"); err != nil {
		t.Fatal(err)
	}
	if err := b.MoveBound(ctx, 0, "k5"); err != nil {
		t.Fatalf("loser's retry-after-adopt failed: %v", err)
	}
	am, bm := a.Map(), b.Map()
	// B's final map is strictly newer than A's published one and the
	// cluster converged on it.
	if !bm.NewerThan(am.Epoch(), am.Version()) && !(bm.Epoch() == am.Epoch() && bm.Version() == am.Version()) {
		t.Fatalf("maps diverged: a=e%d v%d, b=e%d v%d", am.Epoch(), am.Version(), bm.Epoch(), bm.Version())
	}
	if n, err := a.Count(ctx, "", ""); err != nil || n != 6 {
		t.Fatalf("count after racing coordinators = %d (%v)", n, err)
	}
	// A touching the moved range adopts B's map: one map wins.
	if _, _, err := a.Get(ctx, "k4"); err != nil {
		t.Fatal(err)
	}
	if got := a.Map(); got.Epoch() != bm.Epoch() || got.Version() != bm.Version() || !reflect.DeepEqual(got.Bounds(), bm.Bounds()) {
		t.Fatalf("two maps survive: a=e%d v%d %v, b=e%d v%d %v", got.Epoch(), got.Version(), got.Bounds(), bm.Epoch(), bm.Version(), bm.Bounds())
	}
}

// TestClusterEqualsEmbeddedUnderMembershipChange is the PR's gate: the
// randomized Twip workload against a cluster whose membership changes
// mid-workload — a server joins, absorbs ranges, and later drains back
// out — returns byte-identical scans to a single embedded engine.
func TestClusterEqualsEmbeddedUnderMembershipChange(t *testing.T) {
	nSeeds := int64(3)
	nOps := 300
	if testing.Short() {
		nSeeds, nOps = 1, 120
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

			addrs := startServers(t, 3)
			fresh, _ := startServer(t, "joiner")
			cl := newCluster(t, Config{Addrs: addrs, Bounds: testBounds[:2], Joins: shard.EquivJoins})

			// Membership changes forced mid-workload: the fresh server
			// joins (splitting the computed-timeline range), a bound move
			// shifts load onto it, and it drains back out.
			changes := []func() error{
				func() error { return cl.AddServerAt(ctx, fresh, 2, "t|u5") },
				func() error { return cl.MoveBound(ctx, 2, "t|u3") },
				func() error { return cl.DrainServer(ctx, fresh) },
				func() error { return cl.AddServerAt(ctx, fresh, 1, "p|u5|") },
			}
			changeEvery := len(ops)/len(changes) + 1
			next := 0
			for i, o := range ops {
				if i > 0 && i%changeEvery == 0 && next < len(changes) {
					if err := changes[next](); err != nil {
						t.Fatalf("membership change %d: %v", next, err)
					}
					next++
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
			for next < len(changes) {
				if err := changes[next](); err != nil {
					t.Fatalf("trailing membership change %d: %v", next, err)
				}
				next++
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
					t.Fatalf("scan [%q, %q) diverged after membership changes:\nembedded %v\ncluster  %v", r[0], r[1], want, got)
				}
				wn := single.Count(r[0], r[1])
				gn, err := cl.Count(ctx, r[0], r[1])
				if err != nil || int64(wn) != gn {
					t.Fatalf("count [%q, %q) = %d vs %d (%v)", r[0], r[1], wn, gn, err)
				}
			}
		})
	}
}
