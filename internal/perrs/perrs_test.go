// Proves the sentinel contract end to end: each sentinel is matched
// with errors.Is through the real wrap chains the producing layers
// build — the cluster client's routing retries (doKey), pipelined
// batches, the Stats/Quiesce fan-outs and membership drains — not
// through hand-built stand-ins (the shard pool's ErrOverBudget chain is
// in shard's TestStepTable, with the step that builds it). The package under test is a leaf, so the external test
// package is what lets it look upward at its consumers.
package perrs_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
	"pequod/internal/server"
)

// startServers launches n single-shard servers and returns their
// addresses and handles (so a test can kill one).
func startServers(t *testing.T, n int) ([]string, []*server.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*server.Server, n)
	for i := range addrs {
		s, err := server.New(server.Config{Name: fmt.Sprintf("m%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		addrs[i] = addr
		srvs[i] = s
	}
	return addrs, srvs
}

func newCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := cluster.New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestMemberDownChains kills a member and matches ErrMemberDown through
// every chain that can produce it: the point-op retry loop (doKey), the
// pipelined batch fallback (GetBatch retries dead elements through
// doKey), and the Stats and Quiesce member fan-outs.
func TestMemberDownChains(t *testing.T) {
	ctx := context.Background()
	addrs, srvs := startServers(t, 2)
	cl := newCluster(t, cluster.Config{Addrs: addrs, Bounds: []string{"m"}})

	// Both halves serve before the kill.
	for _, k := range []string{"a|1", "z|1"} {
		if err := cl.Put(ctx, k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	srvs[1].Close()

	if _, _, err := cl.Get(ctx, "z|1"); !errors.Is(err, perrs.ErrMemberDown) {
		t.Fatalf("Get after member death = %v, want ErrMemberDown", err)
	}
	if _, err := cl.GetBatch(ctx, []string{"a|1", "z|1"}); !errors.Is(err, perrs.ErrMemberDown) {
		t.Fatalf("GetBatch after member death = %v, want ErrMemberDown", err)
	}
	if _, err := cl.Stats(ctx); !errors.Is(err, perrs.ErrMemberDown) {
		t.Fatalf("Stats after member death = %v, want ErrMemberDown", err)
	}
	if err := cl.Quiesce(ctx); !errors.Is(err, perrs.ErrMemberDown) {
		t.Fatalf("Quiesce after member death = %v, want ErrMemberDown", err)
	}
	// The live half keeps serving: the sentinel marks the dead range,
	// not the cluster.
	if v, found, err := cl.Get(ctx, "a|1"); err != nil || !found || v != "v" {
		t.Fatalf("Get on surviving member = %q %v %v", v, found, err)
	}
}

// TestNotOwnerThroughRawClient points a raw (non-routing) client at the
// wrong member: the server's gate bounces the request with a NotOwner
// reply, which the client surfaces as a *NotOwnerError matching the
// sentinel — while the richer type stays reachable through errors.As.
func TestNotOwnerThroughRawClient(t *testing.T) {
	ctx := context.Background()
	addrs, _ := startServers(t, 2)
	newCluster(t, cluster.Config{Addrs: addrs, Bounds: []string{"m"}}) // publishes the map

	c, err := client.DialContext(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do(ctx, &rpc.Message{Type: rpc.MsgGet, Key: "z|1"}) // owned by member 1
	if !errors.Is(err, perrs.ErrNotOwner) {
		t.Fatalf("raw Get at wrong member = %v, want ErrNotOwner", err)
	}
	var noe *partition.NotOwnerError
	if !errors.As(err, &noe) {
		t.Fatalf("NotOwner reply lost its typed form: %v", err)
	}
	if len(noe.View.Addrs()) == 0 {
		t.Fatalf("NotOwnerError carries no peers (map position missing): %+v", noe)
	}
}

// TestDrainingLastMember matches ErrDraining through the refused-drain
// chain: removing the only member is never allowed.
func TestDrainingLastMember(t *testing.T) {
	ctx := context.Background()
	addrs, _ := startServers(t, 1)
	cl := newCluster(t, cluster.Config{Addrs: addrs})
	if err := cl.DrainServer(ctx, addrs[0]); !errors.Is(err, perrs.ErrDraining) {
		t.Fatalf("DrainServer(last member) = %v, want ErrDraining", err)
	}
}

// TestConflictWrapChain matches ErrConflict through the exact wrap
// shape the migration coordinator builds when a concurrent coordinator
// wins the map race (provoking the race itself is inherently timing
// dependent; the wrap shape is the contract under test).
func TestConflictWrapChain(t *testing.T) {
	cause := errors.New("version conflict: map moved to e1 v7")
	err := fmt.Errorf("cluster: moving bound %d: %w: %w", 3, perrs.ErrConflict, cause)
	if !errors.Is(err, perrs.ErrConflict) {
		t.Fatalf("wrapped conflict does not match: %v", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("wrapped conflict lost its cause: %v", err)
	}
}
