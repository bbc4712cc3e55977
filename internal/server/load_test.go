package server

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/interval"
	"pequod/internal/twip"
)

// TestLoadCountsClientOpsOnly: a member's load counts the client
// requests it answered and nothing else. The home of Twip's posts and
// subscriptions also serves a gated timeline member that keeps a copy
// of its range and loads from it: those subscribing scans are the
// cluster's own traffic. Once they have settled, the home's load.units
// is exactly its client requests' units, and load.samples names only
// keys those requests named — none that only a peer scanned.
func TestLoadCountsClientOpsOnly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	members, addrs := startMembers(t, 2)
	home, tm := members[0], members[1]
	cl, err := cluster.New(ctx, cluster.Config{Addrs: addrs, Bounds: []string{"t|"}, Replicas: 2, Joins: twip.Joins})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := client.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// The client requests the home answers: units and the key each names.
	var units int64
	var named []string
	served := func(key string, u int64) { units, named = units+u, append(named, key) }
	for _, kv := range []core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "s|cat|bob", Value: "1"},
		{Key: "p|bob|0000000100", Value: "hello"}, {Key: "p|bob|0000000200", Value: "again"}} {
		must(cl.Put(ctx, kv.Key, kv.Value))
		served(kv.Key, 1)
	}
	if found, err := cl.Remove(ctx, "s|cat|bob"); err != nil || !found {
		t.Fatalf("Remove = %v, %v", found, err)
	}
	served("s|cat|bob", 1)
	must(cl.Quiesce(ctx))
	if tl, err := cl.Scan(ctx, "t|ann|", "t|ann}", 0); err != nil || len(tl) != 2 {
		t.Fatalf("ann's timeline = %v (%v), want both posts", tl, err)
	}
	if v, ok, err := c.Get("s|ann|bob"); err != nil || !ok || v != "1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	served("s|ann|bob", 1)
	if kvs, err := c.Scan("p|bob|0000000150", "p|bob}", 0); err != nil || len(kvs) != 1 {
		t.Fatalf("Scan = %v (%v), want one post", kvs, err)
	}
	served("p|bob|0000000150", 1+1)
	if n, err := c.Count("p|bob|0000000050", "p|bob}"); err != nil || n != 2 {
		t.Fatalf("Count = %d (%v), want 2", n, err)
	}
	served("p|bob|0000000050", 1+2)
	must(cl.Quiesce(ctx))

	// The timeline member did scan the home: it holds a copy of the
	// home's range, and the home holds the subscriptions those scans
	// installed.
	var peerScanned []string
	home.smu.Lock()
	home.subs.Overlap("", "", func(e *interval.Entry[*subscription]) bool {
		peerScanned = append(peerScanned, e.Lo())
		return true
	})
	home.smu.Unlock()
	if len(peerScanned) == 0 {
		t.Fatal("no peer subscribed at the home: nothing to leave uncounted")
	}
	if tm.repl.snapshot() == 0 {
		t.Fatal("the timeline member holds no copy of the home's range")
	}

	var st client.StatSnapshot
	if err := json.Unmarshal([]byte(home.statJSON()), &st); err != nil {
		t.Fatal(err)
	}
	load := st.Load
	if load.Units != units {
		t.Errorf("home load.units = %d, want %d: its client requests only", load.Units, units)
	}
	for _, k := range load.Samples {
		if !slices.Contains(named, k) {
			t.Errorf("home load.samples holds %q, which no client request named (peers scanned from %q)", k, peerScanned)
		}
	}
	if len(load.Samples) != len(named) {
		t.Errorf("home load.samples = %q, want one per client request %q", load.Samples, named)
	}
}
