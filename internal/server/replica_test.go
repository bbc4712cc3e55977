package server

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/interval"
	"pequod/internal/keys"
	"pequod/internal/store"
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
