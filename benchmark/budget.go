package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// printBudget regenerates the latency-budget table from a span file: the
// open-loop check latency a client sees, decomposed into the self time
// of each rung of the ladder plus queue wait, with the remainder nobody
// accounts for stated.
func printBudget(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	byName := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		byName[sp.Name] = append(byName[sp.Name], float64(sp.End-sp.Start)/1e3)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	mean := func(name string) float64 {
		var t float64
		for _, v := range byName[name] {
			t += v
		}
		return t / float64(max(len(byName[name]), 1))
	}
	// Both columns: the per-layer metrics are differences of means; the
	// client-side figure being explained is a median. They differ because
	// a loopback round trip is bimodal (whether the reply finds its
	// caller's thread awake), so a difference of medians can go negative.
	row := func(label string, f func(get func(string) float64) float64) {
		fmt.Fprintf(w, "  %-50s %9.2f %9.2f\n", label, f(mean), f(func(n string) float64 { return median(byName[n]) }))
	}
	one := func(name string) func(func(string) float64) float64 {
		return func(get func(string) float64) float64 { return get(name) }
	}
	diff := func(a, b string) func(func(string) float64) float64 {
		return func(get func(string) float64) float64 { return get(a) - get(b) }
	}
	fmt.Fprintf(w, "check latency budget in us (%d replayed checks per rung, %d open-loop checks at the ref rate)\n",
		len(byName["core.check"]), len(byName["open.check"]))
	fmt.Fprintf(w, "  %-50s %9s %9s\n", "", "mean", "median")
	row("core         (core.check)", one("core.check"))
	row("shard self   (shard.check - core.check)", diff("shard.check", "core.check"))
	row("server self  (server.check - shard.check)", diff("server.check", "shard.check"))
	row("cluster self (cluster.check - server.check)", diff("cluster.check", "server.check"))
	row("= service time, single caller (cluster.check)", one("cluster.check"))
	row("queue wait at the ref rate (harness.queue_wait)", one("harness.queue_wait"))
	row("explained (service + queue wait)", func(get func(string) float64) float64 {
		return get("cluster.check") + get("harness.queue_wait")
	})
	row("seen by the client at the ref rate (open.check)", one("open.check"))
	row("unexplained remainder", func(get func(string) float64) float64 {
		return get("open.check") - get("cluster.check") - get("harness.queue_wait")
	})
	return nil
}
