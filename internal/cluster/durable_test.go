package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/durable"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/server"
	"pequod/internal/shard"
)

// testDataDir returns a per-server data dir when the suite runs with
// PEQUOD_TEST_DATADIR set (the CI knob that re-runs the cluster tests
// with durability on), and "" — memory-only, the default — otherwise.
func testDataDir(t *testing.T) string {
	t.Helper()
	if os.Getenv("PEQUOD_TEST_DATADIR") == "" {
		return ""
	}
	return t.TempDir()
}

// durableServerConfig is the cluster-test shape of a durable member:
// fsync fast enough that a graceful close never races the flush loop,
// snapshots frequent enough that a mid-workload restart exercises
// snapshot+log replay rather than log-only replay. With
// PEQUOD_TEST_SCRUB set (the CI knob), the background lineage scrub
// runs at test cadence under the whole suite, so it races real
// snapshots, flushes, restarts, and migrations rather than only its own
// unit tests.
func durableServerConfig(name, dir string) server.Config {
	cfg := server.Config{
		Name:             name,
		DataDir:          dir,
		SyncInterval:     2 * time.Millisecond,
		SnapshotInterval: 100 * time.Millisecond,
	}
	if os.Getenv("PEQUOD_TEST_SCRUB") != "" {
		cfg.ScrubInterval = 25 * time.Millisecond
	} else {
		// Off by default: unit cadences keep the suite deterministic.
		cfg.ScrubInterval = -1
	}
	return cfg
}

// startServerDir launches one single-shard server persisting to dir,
// returning its address and a kill function.
func startServerDir(t *testing.T, name, dir string) (string, func()) {
	t.Helper()
	s, err := server.New(durableServerConfig(name, dir))
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

// restartServerDir restarts a member process: a fresh server recovers
// from the data dir a previous server just closed, and rebinds the
// address it just released. Recovery runs inside server.New — the
// member replays its snapshot+log and re-installs its joins and its
// gate, which wires its mesh, before the listener comes back.
func restartServerDir(t *testing.T, name, addr, dir string) func() {
	t.Helper()
	s, err := server.New(durableServerConfig(name, dir))
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go s.Serve(ln) //nolint:errcheck // exits when the test closes the server
	t.Cleanup(s.Close)
	return s.Close
}

// TestClusterEqualsEmbeddedUnderWarmRestart is the issue's warm-restart
// property: with durability on and NO failure detector — the map never
// changes — killing a member in the middle of the randomized Twip
// workload and restarting it from its data dir at the same address
// must leave the cluster byte-equivalent to the embedded cache. The
// restarted member recovers its rows and cluster position from
// snapshot+log before serving; the client retry budget carries ops
// across the gap; and the peers' mesh and replica watchdogs retire the
// dead connections, refetch, and resubscribe.
func TestClusterEqualsEmbeddedUnderWarmRestart(t *testing.T) {
	ctx := context.Background()
	seed := int64(3)
	nOps := 300
	if testing.Short() {
		nOps = 140
	}
	ops := shard.GenTwipOps(seed, nOps, 10)

	single, err := shard.New(shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	if err := single.InstallText(shard.EquivJoins); err != nil {
		t.Fatal(err)
	}

	dirs := make([]string, 4)
	addrs := make([]string, 4)
	kills := make([]func(), 4)
	for i := range addrs {
		dirs[i] = t.TempDir()
		addrs[i], kills[i] = startServerDir(t, fmt.Sprintf("w%d", i), dirs[i])
	}
	cl := newCluster(t, Config{
		Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins,
		Replicas:        2,
		CoordinatorName: "warm-restart-equiv",
	})

	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := cl.Quiesce(ctx)
			if err == nil {
				return
			}
			if !errors.Is(err, perrs.ErrMemberDown) || time.Now().After(deadline) {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Kill the p|-and-s| owner (member 1) halfway through and restart it
	// from its own data dir immediately: its base rows feed every
	// computed timeline, so a restart that lost them would diverge
	// everything downstream. No quiesce first — the write-behind log is
	// the durability contract here, not the replica fence.
	killAt := len(ops) / 2
	for i, o := range ops {
		if i == killAt {
			kills[1]()
			restartServerDir(t, "w1b", addrs[1], dirs[1])
			// Give the peers' watchdogs (200ms cadence) time to notice
			// the dead mesh and replica connections, drop the coverage
			// they sourced from the old process, and resync against the
			// restarted one.
			time.Sleep(600 * time.Millisecond)
		}
		switch o.Kind {
		case shard.OpPut:
			single.Put(o.Key, o.Value)
			if err := cl.Put(ctx, o.Key, o.Value); err != nil {
				t.Fatalf("op %d Put(%q): %v", i, o.Key, err)
			}
		case shard.OpRemove:
			single.Remove(o.Key)
			if _, err := cl.Remove(ctx, o.Key); err != nil {
				t.Fatalf("op %d Remove(%q): %v", i, o.Key, err)
			}
		case shard.OpScan:
			single.Scan(o.Lo, o.Hi, 0, nil, nil)
			quiesce()
			if _, err := cl.Scan(ctx, o.Lo, o.Hi, 0); err != nil {
				t.Fatalf("op %d Scan[%q, %q): %v", i, o.Lo, o.Hi, err)
			}
		}
	}
	quiesce()

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
			t.Fatalf("scan [%q, %q) diverged after warm restart:\nembedded %v\ncluster  %v", r[0], r[1], want, got)
		}
		wn := single.Count(r[0], r[1])
		gn, err := cl.Count(ctx, r[0], r[1])
		if err != nil || int64(wn) != gn {
			t.Fatalf("count [%q, %q) = %d vs %d (%v)", r[0], r[1], wn, gn, err)
		}
	}

	// The restart really was a recovery, not a lucky rebuild through the
	// mesh: the member's stat must report rows restored from disk.
	c, err := client.DialContext(ctx, addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.StatSnapshot(ctx)
	if err != nil || st.Durable == nil {
		t.Fatalf("restarted member durable stat = %+v, %v", st, err)
	}
	if st.Durable.Recovery == nil || st.Durable.Recovery.RestoredRows == 0 {
		t.Fatalf("restarted member recovery stats = %+v", st.Durable.Recovery)
	}
}

// TestWarmRestartedComputeOwnerColdComputes pins a restarted compute
// owner's loader: Server.Close once tore down the mesh BEFORE persisting
// the final meta, so a cleanly-closed member's meta recorded no mesh —
// and after a warm restart the member had no loader for its join source
// tables. Now the recovered gate implies the loader. A base-table owner
// (what the equivalence test restarts) never notices, but a restarted
// compute owner asked to materialize a timeline it had never computed
// would pull nothing and silently serve the empty range forever. So:
// restart the t|u5.. owner, then force a cold join computation on it
// and demand the rows, plus live maintenance for a post written after
// the restart.
func TestWarmRestartedComputeOwnerColdComputes(t *testing.T) {
	ctx := context.Background()
	dirs := make([]string, 4)
	addrs := make([]string, 4)
	kills := make([]func(), 4)
	for i := range addrs {
		dirs[i] = t.TempDir()
		addrs[i], kills[i] = startServerDir(t, fmt.Sprintf("cc%d", i), dirs[i])
	}
	cl := newCluster(t, Config{
		Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins,
		Replicas:        2,
		CoordinatorName: "cold-compute-restart",
	})
	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := cl.Quiesce(ctx)
			if err == nil {
				return
			}
			if !errors.Is(err, perrs.ErrMemberDown) || time.Now().After(deadline) {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// u7 follows u3; u3 posts. The timeline t|u7|... lives on member 3
	// (≥ t|u5) and is deliberately never scanned before the restart, so
	// materializing it afterwards is a genuinely cold computation that
	// must pull s| and p| rows from member 1 through the recovered mesh.
	if err := cl.Put(ctx, "s|u7|u3", "1"); err != nil {
		t.Fatal(err)
	}
	quiesce()
	for i := 1; i <= 5; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("p|u3|%03d", i), fmt.Sprintf("tweet%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	quiesce()

	kills[3]()
	restartServerDir(t, "cc3b", addrs[3], dirs[3])
	// Let the peers' mesh and replica watchdogs (200ms cadence) retire
	// connections to the dead process and resync against the new one.
	time.Sleep(600 * time.Millisecond)
	quiesce()

	kvs, err := cl.Scan(ctx, "t|u7|", "t|u7}", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 5 {
		t.Fatalf("cold timeline on restarted compute owner: want 5 rows, got %d: %v", len(kvs), kvs)
	}

	// The materialized range must also be maintained: a post written
	// after the restart streams in through the re-established
	// subscriptions.
	if err := cl.Put(ctx, "p|u3|006", "tweet6"); err != nil {
		t.Fatal(err)
	}
	quiesce()
	if kvs, err = cl.Scan(ctx, "t|u7|", "t|u7}", 0); err != nil || len(kvs) != 6 {
		t.Fatalf("post after restart did not stream into the timeline: %d rows, %v", len(kvs), err)
	}
}

// TestClusterRestoreToNewAddress is the cross-address restore
// acceptance property: kill a durable member for good, re-key its
// lineage to a fresh address (durable.Rekey — what `pequod-cli restore
// -from` runs), start a new server over the re-keyed dir there, and
// publish the substitution with Admin.Restore. The cluster must end
// byte-equivalent to the embedded cache over every equivalence range —
// the restored rows really came from the dead member's disk, and the
// ops issued after the restore converge through the re-gated member
// like any other write.
func TestClusterRestoreToNewAddress(t *testing.T) {
	ctx := context.Background()
	seed := int64(5)
	nOps := 300
	if testing.Short() {
		nOps = 140
	}
	ops := shard.GenTwipOps(seed, nOps, 10)

	single, err := shard.New(shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	if err := single.InstallText(shard.EquivJoins); err != nil {
		t.Fatal(err)
	}

	dirs := make([]string, 4)
	addrs := make([]string, 4)
	kills := make([]func(), 4)
	for i := range addrs {
		dirs[i] = t.TempDir()
		addrs[i], kills[i] = startServerDir(t, fmt.Sprintf("r%d", i), dirs[i])
	}
	cl := newCluster(t, Config{
		Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins,
		Replicas:        2,
		CoordinatorName: "restore-equiv",
	})

	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := cl.Quiesce(ctx)
			if err == nil {
				return
			}
			if !errors.Is(err, perrs.ErrMemberDown) || time.Now().After(deadline) {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Kill the base-table owner (member 1) halfway through and bring its
	// lineage back on a brand-new address: reserve a port, re-key the
	// dir to it, start a server over the dir there, and Restore. The
	// graceful close flushed the log, so the lineage is complete — the
	// final scans prove the new address serves exactly what the old one
	// held plus everything written since.
	var newAddr string
	killAt := len(ops) / 2
	for i, o := range ops {
		if i == killAt {
			kills[1]()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			newAddr = ln.Addr().String()
			old, err := durable.Rekey(dirs[1], newAddr)
			if err != nil {
				t.Fatalf("rekey: %v", err)
			}
			if old != addrs[1] {
				t.Fatalf("rekey reported old address %s, want %s", old, addrs[1])
			}
			s, err := server.New(durableServerConfig("r1b", dirs[1]))
			if err != nil {
				t.Fatal(err)
			}
			go s.Serve(ln) //nolint:errcheck // exits when the test closes the server
			t.Cleanup(s.Close)
			if err := cl.Restore(ctx, addrs[1], newAddr); err != nil {
				t.Fatalf("restore: %v", err)
			}
			// Give the peers' watchdogs time to retire connections to
			// the dead process and resync against the restored one.
			time.Sleep(600 * time.Millisecond)
		}
		switch o.Kind {
		case shard.OpPut:
			single.Put(o.Key, o.Value)
			if err := cl.Put(ctx, o.Key, o.Value); err != nil {
				t.Fatalf("op %d Put(%q): %v", i, o.Key, err)
			}
		case shard.OpRemove:
			single.Remove(o.Key)
			if _, err := cl.Remove(ctx, o.Key); err != nil {
				t.Fatalf("op %d Remove(%q): %v", i, o.Key, err)
			}
		case shard.OpScan:
			single.Scan(o.Lo, o.Hi, 0, nil, nil)
			quiesce()
			if _, err := cl.Scan(ctx, o.Lo, o.Hi, 0); err != nil {
				t.Fatalf("op %d Scan[%q, %q): %v", i, o.Lo, o.Hi, err)
			}
		}
	}
	quiesce()

	// The map substituted the new address for the old one.
	members := cl.MemberAddrs()
	if contains(members, addrs[1]) || !contains(members, newAddr) {
		t.Fatalf("membership after restore = %v, want %s replaced by %s", members, addrs[1], newAddr)
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
			t.Fatalf("scan [%q, %q) diverged after restore:\nembedded %v\ncluster  %v", r[0], r[1], want, got)
		}
		wn := single.Count(r[0], r[1])
		gn, err := cl.Count(ctx, r[0], r[1])
		if err != nil || int64(wn) != gn {
			t.Fatalf("count [%q, %q) = %d vs %d (%v)", r[0], r[1], wn, gn, err)
		}
	}

	// The restore really served from disk, not a lucky mesh rebuild: the
	// member at the new address must report rows restored from the dead
	// member's lineage.
	c, err := client.DialContext(ctx, newAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.StatSnapshot(ctx)
	if err != nil || st.Durable == nil {
		t.Fatalf("restored member durable stat = %+v, %v", st, err)
	}
	if st.Durable.Recovery == nil || st.Durable.Recovery.RestoredRows == 0 {
		t.Fatalf("restored member recovery stats = %+v", st.Durable.Recovery)
	}
}

// TestDrainedMemberRestartStillBounces: a drained member's post-drain
// NotOwner courtesy must survive a process restart. The drain persists
// the final map (owning nothing) to the data dir; a restart recovers
// that gate, so a client still holding the old map gets bounced with
// the current bounds instead of silently written.
func TestDrainedMemberRestartStillBounces(t *testing.T) {
	ctx := context.Background()
	dirs := make([]string, 3)
	addrs := make([]string, 3)
	kills := make([]func(), 3)
	for i := range addrs {
		dirs[i] = t.TempDir()
		addrs[i], kills[i] = startServerDir(t, fmt.Sprintf("d%d", i), dirs[i])
	}
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"h", "q"}, CoordinatorName: "drain-durable"})
	for _, k := range []string{"a|1", "k|1", "z|1"} {
		if err := cl.Put(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.DrainServer(ctx, addrs[2]); err != nil {
		t.Fatal(err)
	}
	kills[2]()
	restartServerDir(t, "d2b", addrs[2], dirs[2])

	c, err := client.DialContext(ctx, addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Put("z|2", "stale-route")
	var noe *partition.NotOwnerError
	if !errors.As(err, &noe) {
		t.Fatalf("drained+restarted member answered a write: %v", err)
	}
	m := cl.Map()
	if held := noe.View.Map(); held.Epoch() != m.Epoch() || !reflect.DeepEqual(held.Bounds(), m.Bounds()) {
		t.Fatalf("bounce carries stale map: e%d %v, cluster holds e%d %v", held.Epoch(), held.Bounds(), m.Epoch(), m.Bounds())
	}
	// And the row never landed anywhere.
	if _, found, _ := c.Get("z|2"); found {
		t.Fatal("drained member stored the bounced write")
	}
}

// TestRepairRespreadsReplicas: after an automatic repair promotes an
// heir, the repaired ranges changed homes, so their replica copies
// must land on new members — via the repair's own republish retry and
// the monitor's healthy-tick anti-entropy. The cluster must converge
// back to full placement (every range replicated off its home), not
// stay a copy short until the next manual map event.
func TestRepairRespreadsReplicas(t *testing.T) {
	ctx := context.Background()
	addrs := make([]string, 4)
	kills := make([]func(), 4)
	for i := range addrs {
		addrs[i], kills[i] = startServer(t, fmt.Sprintf("rs%d", i))
	}
	cl := newCluster(t, Config{
		Addrs: addrs, Bounds: testBounds,
		Replicas:         2,
		FailoverInterval: 20 * time.Millisecond,
		FailoverMisses:   2,
		CoordinatorName:  "respread",
	})
	for i, k := range []string{"a|1", "p|u1|1", "t|u2|1", "t|u7|1"} {
		if err := cl.Put(ctx, k, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	heldReplicas := func() int {
		n := 0
		for _, h := range cl.Health(ctx) {
			n += h.Replicas
		}
		return n
	}
	// Full placement first: four ranges, each with one synced copy off
	// its home.
	deadline := time.Now().Add(10 * time.Second)
	for heldReplicas() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("initial replica spread never completed: held = %d", heldReplicas())
		}
		time.Sleep(10 * time.Millisecond)
	}

	kills[1]()
	deadline = time.Now().Add(10 * time.Second)
	for {
		left := cl.MemberAddrs()
		if len(left) == 3 && !contains(left, addrs[1]) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("automatic repair never removed the dead member: members = %v", left)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The repaired range lost both its home and (ring-wise) its old
	// copy; the survivors must re-spread to four synced copies again —
	// one per owner index, each off its (possibly promoted) home.
	deadline = time.Now().Add(15 * time.Second)
	for {
		if err := cl.Quiesce(ctx); err == nil && heldReplicas() == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never re-spread after repair: held = %d", heldReplicas())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterSnapshot: Snapshot writes a snapshot at every durable
// member and joins one error per member that cannot, naming only the
// memory-only member; the durable member's Health row then shows the
// snapshot it wrote.
func TestClusterSnapshot(t *testing.T) {
	ctx := context.Background()
	dcfg := durableServerConfig("d0", t.TempDir())
	dcfg.SnapshotInterval = time.Hour // only Snapshot writes one
	var addrs []string
	for _, cfg := range []server.Config{dcfg, {Name: "m1"}} {
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addrs = append(addrs, addr)
	}
	durableAddr, memAddr := addrs[0], addrs[1]
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}})
	for _, k := range []string{"a|1", "z|1"} {
		if err := cl.Put(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	row := func(addr string) MemberHealth {
		for _, h := range cl.Health(ctx) {
			if h.Addr == addr {
				return h
			}
		}
		t.Fatalf("no health row for %s", addr)
		return MemberHealth{}
	}
	if h := row(durableAddr); !h.Durable || h.SnapshotAgeMS >= 0 {
		t.Fatalf("durable member before Snapshot: %+v, want durable with no snapshot yet", h)
	}
	err := cl.Snapshot(ctx)
	if err == nil || !strings.Contains(err.Error(), memAddr) || strings.Contains(err.Error(), durableAddr) {
		t.Fatalf("Snapshot error = %v, want one naming %s only", err, memAddr)
	}
	if h := row(durableAddr); !h.Durable || h.SnapshotAgeMS < 0 {
		t.Fatalf("durable member after Snapshot: %+v, want a snapshot age of 0 or more", h)
	}
	if h := row(memAddr); !h.Alive || h.Durable {
		t.Fatalf("memory-only member after Snapshot: %+v", h)
	}
}
