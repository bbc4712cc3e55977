package main

import "fmt"

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// lists the same names; metrics_test.go holds the two lists together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run (-trace 0): what a user of
// the system sees. Every workload emits every one, none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"check_p50_us", "us", "lower"},
	{"check_p99_us", "us", "lower"},
	{"login_p50_us", "us", "lower"},
	{"post_p50_us", "us", "lower"},
	{"mem_bytes_per_base_byte", "ratio", "lower"},
}

// demoted are the issue's end-to-end metrics that are reported per layer
// instead, because their run-to-run spread does not fit a bound
// (README.md has the spreads) or because they may legitimately read 0,
// which an end-to-end metric may not: the open-loop latencies at the ref
// rate (open.*), achieved freshness lag there (fresh.*), the closed-loop
// 99th percentiles (tail.*), the highest fixed rate that held the
// latency limit, and the failed share.
var demoted = concat(
	defs("us", "lower", "open.check_p50_us", "open.check_p99_us", "open.login_p50_us", "open.login_p99_us",
		"open.post_p50_us", "open.post_p99_us", "fresh.lag_p50_us", "fresh.lag_p90_us",
		"tail.check_p99_us", "tail.login_p99_us", "tail.post_p99_us"),
	defs("ops/s", "higher", "rate_ok_ops_s"),
	defs("ratio", "lower", "failed_frac"),
)

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{n, unit, better}
	}
	return out
}

func selfTimes(layer string) []metricDef {
	return defs("us", "lower", layer+".check_self_us", layer+".login_self_us", layer+".post_self_us", layer+".sub_self_us")
}

// perLayer are the metrics of a traced run (-trace 1), by layer.
var perLayer = concat(
	defs("ns", "lower", "rbtree.insert_ns", "rbtree.find_ns"),
	defs("ns", "lower", "store.put_ns", "store.get_ns", "store.scan_ns_per_row"),
	defs("bytes", "lower", "store.bytes_per_row"),
	defs("us", "lower", "core.check_us", "core.login_us", "core.post_us", "core.sub_us", "core.cold_login_us"),
	defs("count", "lower", "core.scanned_keys_per_read", "core.join_execs_per_read"),
	defs("ratio", "higher", "core.hit_frac"),
	defs("count", "lower", "core.updater_fires_per_post", "core.logs_applied_per_sub",
		"core.dirty_recomputes_per_read", "core.evictions_per_read", "core.loads_started_per_read"),
	selfTimes("shard"),
	defs("ratio", "higher", "shard.parallel_read_speedup"),
	defs("ns", "lower", "rpc.encode_ns_per_op", "rpc.decode_ns_per_op"),
	defs("bytes", "lower", "rpc.wire_bytes_per_op"),
	defs("count", "lower", "rpc.allocs_per_op"),
	defs("us", "lower", "client.rtt_us", "client.pipelined_us_per_op"),
	selfTimes("server"),
	defs("count", "lower", "server.notified_changes_per_post"),
	selfTimes("cluster"),
	defs("count", "lower", "cluster.rpcs_per_op"),
	defs("ns", "lower", "partition.owner_ns"),
	defs("ns", "lower", "durable.append_ns"),
	defs("ms", "lower", "durable.sync_ms", "durable.snapshot_ms"),
	defs("ratio", "lower", "durable.bytes_per_user_byte"),
	defs("ms", "lower", "durable.store_replay_ms", "durable.replay_ms"),
	defs("bytes", "lower", "durable.lag_bytes_end"),
	defs("count", "lower", "runtime.allocs_per_op"),
	defs("bytes", "lower", "runtime.alloc_bytes_per_op"),
	defs("count", "lower", "runtime.gc_cycles"),
	defs("ms", "lower", "runtime.gc_pause_ms"),
	defs("MiB", "lower", "runtime.heap_peak_mb"),
	defs("us", "lower", "harness.late_p50_us", "harness.late_p95_us", "harness.late_p99_us",
		"harness.queue_wait_p50_us", "harness.queue_wait_p99_us"),
	defs("count", "lower", "harness.backlog_end"),
	defs("ratio", "lower", "harness.trace_overhead_frac"),
	demoted,
)

// declared is what a run must emit: the per-layer set traced, the
// end-to-end set otherwise.
func declared(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// results collects a run's metrics by name.
type results map[string]stat

// checkComplete reports metrics that were declared but not measured, or
// measured but not declared.
func (r results) checkComplete(want []metricDef) error {
	seen := make(map[string]bool, len(want))
	for _, d := range want {
		seen[d.Name] = true
		st, ok := r[d.Name]
		if !ok {
			return fmt.Errorf("metric %s declared but not measured", d.Name)
		}
		if st.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %q, declared in %q", d.Name, st.Unit, d.Unit)
		}
	}
	for name := range r {
		if !seen[name] {
			return fmt.Errorf("metric %s measured but not declared", name)
		}
	}
	return nil
}
