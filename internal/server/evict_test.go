package server

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/partition"
)

// TestComputeServerEvictionRefetches exercises §2.5 in the distributed
// setting: a memory-limited compute server evicts under pressure, and
// later reads transparently refetch from the home server and recompute.
// Computed timelines leave before fetched base ranges: with the limit
// above the fetched base copy only timelines are evicted and nothing is
// fetched twice; below it the base ranges go too and are fetched again.
func TestComputeServerEvictionRefetches(t *testing.T) {
	// Materialized state is ~700KB in all, the fetched base copy ~50KB.
	t.Run("limit above the fetched base copy", func(t *testing.T) {
		runComputeServerEviction(t, 256<<10, false)
	})
	t.Run("limit below the fetched base copy", func(t *testing.T) {
		runComputeServerEviction(t, 24<<10, true)
	})
}

func runComputeServerEviction(t *testing.T, limit int64, fetchedEvicted bool) {
	home, err := New(Config{Name: "home"})
	if err != nil {
		t.Fatal(err)
	}
	haddr, _ := home.Start()
	defer home.Close()

	compute, err := New(Config{
		Name:   "compute",
		Joins:  timelineJoin,
		Engine: core.Options{MemLimit: limit},
	})
	if err != nil {
		t.Fatal(err)
	}
	caddr, _ := compute.Start()
	defer compute.Close()
	publish(t, compute, mustView(t, partition.MustNew("t|"), []string{haddr, caddr}, 1))

	hc, _ := client.Dial(haddr)
	cc, _ := client.Dial(caddr)
	defer hc.Close()
	defer cc.Close()

	// Enough users and posts to exceed the compute server's budget.
	const users, posts = 30, 40
	for u := 0; u < users; u++ {
		for p := 0; p < 3; p++ {
			if err := hc.Put(fmt.Sprintf("s|u%02d|a%02d", u, (u+p)%10), "1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for a := 0; a < 10; a++ {
		for i := 0; i < posts; i++ {
			if err := hc.Put(fmt.Sprintf("p|a%02d|%04d", a, i), "tweet body of reasonable length"); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Each pass materializes every timeline; the limit forces evictions.
	pass := func() core.Stats {
		t.Helper()
		for u := 0; u < users; u++ {
			pfx := fmt.Sprintf("t|u%02d|", u)
			kvs, err := cc.Scan(pfx, pfx[:len(pfx)-1]+"}", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs) != 3*posts {
				t.Fatalf("timeline u%02d = %d entries, want %d", u, len(kvs), 3*posts)
			}
		}
		stat, err := cc.Stat()
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Stats core.Stats `json:"stats"`
		}
		if err := json.Unmarshal([]byte(stat), &parsed); err != nil {
			t.Fatal(err)
		}
		return parsed.Stats
	}
	first := pass()
	if first.Evictions == 0 {
		t.Fatalf("no evictions under a %d B limit: %+v", limit, first)
	}
	second := pass()
	if refetched := second.LoadsStarted > first.LoadsStarted; refetched != fetchedEvicted {
		t.Fatalf("limit %d B: loads.started %d -> %d over a second pass, want fetched ranges evicted = %v",
			limit, first.LoadsStarted, second.LoadsStarted, fetchedEvicted)
	}

	// Fresh writes at the home still reach whatever is currently cached
	// (subscription or refetch — either way the answer is right).
	if err := hc.Put("p|a00|9999", "fresh"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		kvs, err := cc.Scan("t|u00|9999", "t|u00}", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) == 1 && kvs[0].Value == "fresh" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fresh post never appeared after eviction churn")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
