package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pequod/internal/perrs"
	"pequod/internal/server"
	"pequod/internal/shard"
)

// TestClusterEqualsEmbeddedUnderFailover is the issue's failover
// property: with per-range replication enabled, killing a member in
// the middle of the randomized Twip workload — with NO manual
// intervention — must leave the cluster byte-equivalent to the
// embedded cache. The failure detector notices the death, the
// coordinator promotes the surviving replicas under a repaired map,
// and the client retry budget carries every in-flight op across the
// gap, so no acknowledged write is lost.
func TestClusterEqualsEmbeddedUnderFailover(t *testing.T) {
	nSeeds := int64(2)
	nOps := 300
	if testing.Short() {
		nSeeds, nOps = 1, 140
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

			addrs := make([]string, 4)
			kills := make([]func(), 4)
			for i := range addrs {
				addrs[i], kills[i] = startServer(t, fmt.Sprintf("f%d", i))
			}
			cl := newCluster(t, Config{
				Addrs: addrs, Bounds: testBounds, Joins: shard.EquivJoins,
				Replicas:         2,
				FailoverInterval: 20 * time.Millisecond,
				FailoverMisses:   2,
				CoordinatorName:  "failover-equiv",
			})

			// Quiesce fails fast when a member is down; during the
			// detection window that is expected, so retry until the
			// repaired map routes around the death.
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

			// Kill the p| owner (member 1) halfway through: its base
			// rows feed every computed timeline, so losing them would
			// diverge everything downstream. Quiesce first — the fence
			// settles the replica copies, which is the write-durability
			// contract a failover promotes under.
			killAt := len(ops) / 2
			for i, o := range ops {
				if i == killAt {
					quiesce()
					kills[1]()
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
					if i >= killAt {
						quiesce()
					} else if err := cl.Quiesce(ctx); err != nil {
						t.Fatal(err)
					}
					if _, err := cl.Scan(ctx, o.Lo, o.Hi, 0); err != nil {
						t.Fatalf("op %d Scan[%q, %q): %v", i, o.Lo, o.Hi, err)
					}
				}
			}

			// The detector and coordinator must have repaired the map on
			// their own — the dead member gone, epoch advanced, and every
			// range owned by a survivor.
			deadline := time.Now().Add(10 * time.Second)
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
					t.Fatalf("scan [%q, %q) diverged after failover:\nembedded %v\ncluster  %v", r[0], r[1], want, got)
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

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// restartServer binds a fresh (empty) server to an address a previous
// server just released, simulating a member process restart.
func restartServer(t *testing.T, name, addr string) func() {
	t.Helper()
	s, err := server.New(server.Config{Name: name})
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

// TestReplicaResyncsAfterHomeRestart: a home that restarts kills its
// replica feed silently — the old connection fails, pushes stop, and
// the replica's assignment has not changed. The member must notice the
// failed connection, re-snapshot the ranges it sourced from that home,
// and track it from then on: a later promotion serves the restarted
// home's state (including rows it no longer has), not the pre-restart
// copy.
func TestReplicaResyncsAfterHomeRestart(t *testing.T) {
	ctx := context.Background()
	addrA, _ := startServer(t, "ra")
	addrB, killB := startServer(t, "rb")
	cl := newCluster(t, Config{Addrs: []string{addrA, addrB}, Bounds: []string{"m"}, Replicas: 2, CoordinatorName: "resync"})
	for i := 0; i < 6; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("z%02d", i), "old"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart B's process on the same address: an empty engine, and A's
	// replica feed for B's range dead with the old connection.
	killB()
	killB2 := restartServer(t, "rb2", addrB)

	// Give the member-side watchdog (200ms cadence) time to notice the
	// failed home connection and mark A's copy unsynced. Until it runs,
	// A still reports the pre-restart copy as synced and quiesce fences
	// the dead peer vacuously, so the poll below could pass stale.
	time.Sleep(600 * time.Millisecond)

	// Re-write only the first half; the rest existed solely before the
	// restart, so a correctly resynced replica must drop them as ghosts.
	for i := 0; i < 3; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("z%02d", i), "new"); err != nil {
			t.Fatal(err)
		}
	}

	// A's replica count recovers only after a full snapshot+subscribe
	// pass against the restarted home; a green quiesce then fences the
	// fresh connection, so together they mean the copy is current.
	replicasOf := func(addr string) int {
		for _, h := range cl.Health(ctx) {
			if h.Addr == addr {
				return h.Replicas
			}
		}
		return -1
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		qerr := cl.Quiesce(ctx)
		n := replicasOf(addrA)
		if qerr == nil && n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never resynced after home restart: quiesce=%v, replicas=%d", qerr, n)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Promote A over the dead range and check it serves B's
	// post-restart state exactly.
	killB2()
	repaired, err := cl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 1 || repaired[0] != addrB {
		t.Fatalf("Repair = %v", repaired)
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("z%02d", i)
		v, ok, err := cl.Get(ctx, key)
		if err != nil || !ok || v != "new" {
			t.Fatalf("post-restart write %s lost: %q %v %v", key, v, ok, err)
		}
	}
	for i := 3; i < 6; i++ {
		key := fmt.Sprintf("z%02d", i)
		if _, ok, err := cl.Get(ctx, key); err != nil || ok {
			t.Fatalf("ghost row %s survived the resync: %v %v", key, ok, err)
		}
	}
}

// TestRepairWarnsOnColdPromotion: when every warm replica holder of a
// range died along with its owner, Repair still promotes a survivor so
// the range is served — but it must tell the operator that the range
// came back empty instead of silently losing acknowledged writes.
func TestRepairWarnsOnColdPromotion(t *testing.T) {
	ctx := context.Background()
	addrs := make([]string, 3)
	kills := make([]func(), 3)
	for i := range addrs {
		addrs[i], kills[i] = startServer(t, fmt.Sprintf("c%d", i))
	}
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"h", "p"}, Replicas: 2, CoordinatorName: "cold"})
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill member 0 and its ring successor (member 1) — the only warm
	// holder of member 0's range with two total copies.
	kills[0]()
	kills[1]()

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	repaired, err := cl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 2 || !contains(repaired, addrs[0]) || !contains(repaired, addrs[1]) {
		t.Fatalf("Repair = %v", repaired)
	}
	if got := cl.MemberAddrs(); len(got) != 1 || got[0] != addrs[2] {
		t.Fatalf("surviving members = %v", got)
	}
	if !strings.Contains(buf.String(), "without a warm copy") {
		t.Fatalf("cold promotion not surfaced to the operator; log = %q", buf.String())
	}
}

// TestUnavailableRetryPauseScalesWithDetector: the per-attempt pause
// for unavailable-member retries must stretch with the configured
// failure detector, so the whole retry budget outlasts detection plus
// repair instead of exhausting in under half a second.
func TestUnavailableRetryPauseScalesWithDetector(t *testing.T) {
	addrs := startServers(t, 2)
	cl := newCluster(t, Config{Addrs: addrs, Bounds: []string{"m"}, CoordinatorName: "budget-manual"})
	if cl.downPause != failPause {
		t.Fatalf("manual-failover pause = %v, want the %v floor", cl.downPause, failPause)
	}
	cl2 := newCluster(t, Config{
		Addrs: addrs, Bounds: []string{"m"},
		FailoverInterval: time.Second, FailoverMisses: 3,
		CoordinatorName: "budget-auto",
	})
	detection := cl2.failEvery * time.Duration(cl2.failMisses+1)
	if budget := cl2.downPause * time.Duration(opRetries-1); budget < detection {
		t.Fatalf("retry budget %v does not span the %v detection window (pause %v)", budget, detection, cl2.downPause)
	}
}

// TestHealthAndManualRepair drives the Admin surface directly: Health
// rows flip to dead, a manual Repair promotes the survivor, and the
// repaired map serves the dead member's rows from its replica.
func TestHealthAndManualRepair(t *testing.T) {
	ctx := context.Background()
	addrA, _ := startServer(t, "ha")
	addrB, killB := startServer(t, "hb")
	// No FailoverInterval: detection and repair are manual here, so the
	// test controls exactly when promotion happens.
	cl := newCluster(t, Config{Addrs: []string{addrA, addrB}, Bounds: []string{"m"}, Replicas: 2, CoordinatorName: "manual-repair"})
	for i := 0; i < 8; i++ {
		if err := cl.Put(ctx, fmt.Sprintf("z%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// With 2 total copies over 2 members, each member replicates the
	// other's range. A copy counts once its first snapshot+subscribe pass
	// lands, which Quiesce waits for.
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	rows := cl.Health(ctx)
	if len(rows) != 2 {
		t.Fatalf("health rows = %+v", rows)
	}
	for _, h := range rows {
		if !h.Alive || h.ID == "" || h.Owners == 0 || h.Replicas == 0 {
			t.Fatalf("healthy member row after Quiesce = %+v", h)
		}
	}

	killB()
	rows = cl.Health(ctx)
	var sawDead bool
	for _, h := range rows {
		if h.Addr == addrB {
			sawDead = true
			if h.Alive || h.Err == "" {
				t.Fatalf("dead member row = %+v", h)
			}
		}
	}
	if !sawDead {
		t.Fatalf("Health lost the dead member: %+v", rows)
	}

	repaired, err := cl.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 1 || repaired[0] != addrB {
		t.Fatalf("Repair = %v", repaired)
	}
	if got := cl.MemberAddrs(); len(got) != 1 || got[0] != addrA {
		t.Fatalf("repaired members = %v", got)
	}
	// B's range promoted from A's replica: every acknowledged row
	// (including B's own "z..." rows) survives, served by A.
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("z%02d", i)
		v, ok, err := cl.Get(ctx, key)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("row %s lost in failover: %q %v %v", key, v, ok, err)
		}
	}
	// A second Repair is a no-op on a healthy (single-member) cluster.
	if again, err := cl.Repair(ctx); err != nil || len(again) != 0 {
		t.Fatalf("idempotent Repair = %v, %v", again, err)
	}
	// An error naming the member would be confusing after repair: a
	// fresh write to the promoted range must work first try.
	if err := cl.Put(ctx, "z99", "after"); err != nil {
		t.Fatal(err)
	}
}
