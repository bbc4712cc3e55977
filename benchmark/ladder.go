package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/rpc"
	"pequod/internal/shard"
	"pequod/internal/twip"
)

// rungResult is what one replay of the op stream through one rung found.
type rungResult struct {
	mean  [4]float64 // µs per op, by op kind
	n     [4]int
	hits  int        // reads that ran no join
	delta core.Stats // engine counters over the replay
	rpcs  int64
	wire  []wirePair // request and reply of the first ops, for the rpc rung
}

func (rr *rungResult) reads() float64 { return float64(rr.n[twip.OpLogin] + rr.n[twip.OpCheck]) }

func per(n int64, d float64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / d
}

// wirePair is the request and reply an op puts on the wire.
type wirePair struct{ req, reply *rpc.Message }

// wireSample is how many of the replayed ops the rpc rung encodes.
const wireSample = 2000

func subStats(a, b core.Stats) core.Stats {
	return core.Stats{
		ScannedKeys: a.ScannedKeys - b.ScannedKeys, JoinExecs: a.JoinExecs - b.JoinExecs,
		UpdaterFires: a.UpdaterFires - b.UpdaterFires, LogsApplied: a.LogsApplied - b.LogsApplied,
		DirtyRecomputes: a.DirtyRecomputes - b.DirtyRecomputes, Evictions: a.Evictions - b.Evictions,
		LoadsStarted: a.LoadsStarted - b.LoadsStarted, NotifiedChanges: a.NotifiedChanges - b.NotifiedChanges,
	}
}

// replay sends the first n ops of the workload's replay stream through
// p's deployment from a single caller, one span per op, and returns the
// per-kind means and the counter deltas. r must be fresh: every rung is
// given the same ops after the same set-up, so its spans share op ids
// with the others.
func replay(r *runner, p *prepared, layer string, n int, spans *[]span) (*rungResult, error) {
	u := r.u
	var local []span
	w := &worker{layer: layer, spans: &local}
	g := u.gen(streamReplay)
	rr := &rungResult{}
	before, rpcs := p.d.stats(), p.d.rpcs()
	runtime.GC() // every rung starts from a collected heap, whatever ran before it
	start := time.Now()
	for i := 0; i < n; i++ {
		o := g.next()
		read := o.kind == twip.OpLogin || o.kind == twip.OpCheck
		var execs int64
		if read {
			execs = p.d.stats().JoinExecs
		}
		if !r.do(w, o, time.Now(), start, false) {
			return nil, fmt.Errorf("%s rung: replayed op %d failed", layer, i)
		}
		if read && p.d.stats().JoinExecs == execs {
			rr.hits++
		}
		if i < wireSample {
			rr.wire = append(rr.wire, w.wirePair(read))
		}
	}
	if err := p.d.tgt.Quiesce(); err != nil {
		return nil, err
	}
	rr.delta, rr.rpcs = subStats(p.d.stats(), before), p.d.rpcs()-rpcs
	for _, sp := range local {
		for kind, name := range opNames {
			if strings.HasSuffix(sp.Name, "."+name) {
				rr.mean[kind] += float64(sp.End-sp.Start) / 1e3
				rr.n[kind]++
			}
		}
	}
	for k := range rr.mean {
		if rr.n[k] > 0 {
			rr.mean[k] /= float64(rr.n[k])
		}
	}
	*spans = append(*spans, local...)
	return rr, nil
}

// notifyPosts is how many posts notifiedPerPost sends.
const notifyPosts = 200

// notifiedPerPost sends posts alone through the deployment, settles it
// and returns the change notifications per post. The replay's own delta
// would not do: it also counts the rows a subscribe copies and the
// backfill of every base-data load a cold read starts.
func notifiedPerPost(r *runner, p *prepared) (float64, error) {
	w := &worker{}
	g := r.u.gen(streamNotify)
	before := p.d.stats().NotifiedChanges
	for sent := 0; sent < notifyPosts; {
		o := g.next()
		if o.kind != twip.OpPost {
			continue
		}
		now := time.Now()
		if !r.do(w, o, now, now, false) {
			return 0, fmt.Errorf("%s rung: post %d of the notify burst failed", p.d.rung, sent)
		}
		sent++
	}
	if err := p.d.tgt.Quiesce(); err != nil {
		return 0, err
	}
	return float64(p.d.stats().NotifiedChanges-before) / notifyPosts, nil
}

// wirePair rebuilds the messages the worker's last op exchanged.
func (w *worker) wirePair(read bool) wirePair {
	if read {
		return wirePair{
			req:   &rpc.Message{Type: rpc.MsgScan, Seq: 1, Lo: w.lastKey, Hi: w.lastVal},
			reply: &rpc.Message{Type: rpc.MsgReply, Seq: 1, KVs: append([]core.KV(nil), w.buf...)},
		}
	}
	return wirePair{
		req:   &rpc.Message{Type: rpc.MsgPut, Seq: 1, Key: w.lastKey, Value: w.lastVal},
		reply: rpc.OKReply(1),
	}
}

// parallelReads measures warm incremental timeline scans per second on a
// pool with the given number of concurrent callers.
func parallelReads(u *universe, p *shard.Pool, callers int, d time.Duration) float64 {
	var total atomic.Int64
	since := timeID(int64(u.sp.Posts))
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(u.seed + int64(streamPar+c)))
			var buf []core.KV
			n := int64(0)
			for time.Now().Before(stop) {
				id := u.ids[u.active[rng.Intn(len(u.active))]]
				buf = p.Scan("t|"+id+"|"+since, "t|"+id+"}", 0, buf, nil)
				n++
			}
			total.Add(n)
		}(c)
	}
	wg.Wait()
	return float64(total.Load()) / d.Seconds()
}

// clientFloor measures the loopback round trip of the smallest request
// (a Get of an absent key) alone and pipelined 64 deep.
func clientFloor(ctx context.Context, c *client.Client) (rttUS, pipelinedUS float64, err error) {
	const key = "zz|absent"
	lats := make([]float64, 0, 2000)
	for i := 0; i < cap(lats); i++ {
		t := time.Now()
		if _, _, err := c.Get(key); err != nil {
			return 0, 0, err
		}
		lats = append(lats, float64(time.Since(t).Nanoseconds())/1e3)
	}
	const depth, rounds = 64, 50
	futs := make([]*client.Future, depth)
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range futs {
			futs[i] = c.GetAsync(key)
		}
		if err := client.WaitAll(ctx, futs); err != nil {
			return 0, 0, err
		}
	}
	return median(lats), float64(time.Since(t).Nanoseconds()) / 1e3 / (depth * rounds), nil
}

// tracedRun produces the per-layer metrics. p is the workload's own
// deployment, fresh from set-up.
func tracedRun(ctx context.Context, cfg *config, u *universe, p *prepared, r *runner, m results) error {
	sp := u.sp
	nproc := runtime.GOMAXPROCS(0)
	var spans []span
	rungs := map[string]*rungResult{}

	// The workload's own deployment replays first, while it is in the
	// state every other rung will be set up to.
	own, err := replay(r, p, p.d.rung, sp.Replay, &spans)
	if err != nil {
		return err
	}
	rungs[p.d.rung] = own
	var notified float64
	if p.d.rung == rungCluster {
		if notified, err = notifiedPerPost(r, p); err != nil {
			return err
		}
	}

	// Open loop at the three fixed rates, then the closed-loop pair that
	// prices the tracing itself.
	step := dur(cfg.seconds / 8)
	callerSpans := make([]*[]span, nproc)
	for i := range callerSpans {
		callerSpans[i] = new([]span)
	}
	var ref *window
	rateOK := 0.0
	for i, name := range []string{"lo", "ref", "hi"} {
		var stepSpans []*[]span
		if i == 1 {
			stepSpans = callerSpans // only the ref step is traced: the budget table reads it
		}
		w := r.openStep(nproc, sp.Rates[i], min(500*time.Millisecond, step/2), step, streamOpen+10*i, stepSpans)
		logStep(cfg, name, w)
		if i == 1 {
			ref = w
		}
		all := allOf(w, kCheck)
		if float64(quantile(all, 0.99))/1e3 <= p99LimitUS && float64(w.completed) >= 0.99*float64(w.offered) &&
			w.backlog <= w.backlogMid+int64(nproc) {
			rateOK = sp.Rates[i]
		}
	}
	us := ref.length.Microseconds()
	late, wait := bySegment(ref.workers, kLate, us), bySegment(ref.workers, kQueueWait, us)
	m["harness.late_p50_us"], m["harness.late_p95_us"], m["harness.late_p99_us"] =
		quantileStat(late, 0.5), quantileStat(late, 0.95), quantileStat(late, 0.99)
	m["harness.queue_wait_p50_us"], m["harness.queue_wait_p99_us"] = quantileStat(wait, 0.5), quantileStat(wait, 0.99)
	m["harness.backlog_end"] = plain("count", float64(ref.backlog))
	m["rate_ok_ops_s"] = plain("ops/s", rateOK)
	invalid := m["harness.late_p95_us"].Value > lateLimitUS
	if invalid {
		cfg.logf("INVALID: generator ran %.0f us late at p95 on the ref step (limit %d): its latencies would measure the harness, open.* are reported as 0",
			m["harness.late_p95_us"].Value, lateLimitUS)
	}

	untraced := r.closedLoop(nproc, step, streamPair, nil)
	traced := r.closedLoop(nproc, step, streamPair+10, callerSpans)
	tpU, _ := closedStats(untraced)
	tpT, _ := closedStats(traced)
	m["harness.trace_overhead_frac"] = plain("ratio", 1-tpT.Value/tpU.Value)
	ops := float64(untraced.marks[segments].ops)
	m0, m1 := &untraced.mem0, &untraced.mem1
	m["runtime.allocs_per_op"] = plain("count", float64(m1.Mallocs-m0.Mallocs)/ops)
	m["runtime.alloc_bytes_per_op"] = plain("bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/ops)
	m["runtime.gc_cycles"] = plain("count", float64(m1.NumGC-m0.NumGC))
	m["runtime.gc_pause_ms"] = plain("ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	m["runtime.heap_peak_mb"] = plain("MiB", float64(m1.HeapSys)/(1<<20))

	for k, st := range latencyStats(ref) {
		switch {
		case strings.HasPrefix(k, "lag_"):
			m["fresh."+k] = st // from a post's ack, not from a scheduled arrival
		case invalid:
			m["open."+k] = plain("us", 0)
		default:
			m["open."+k] = st
		}
	}
	tails := latencyStats(untraced)
	for _, k := range []string{"check_p99_us", "login_p99_us", "post_p99_us"} {
		m["tail."+k] = tails[k]
	}
	cfg.logf("closed-loop service-time medians beside the open-loop ones: check %.1f us, login %.1f us, post %.1f us",
		tails["check_p50_us"].Value, tails["login_p50_us"].Value, tails["post_p50_us"].Value)
	lag, err := durableLag(ctx, p.d)
	if err != nil {
		return err
	}

	// The rungs below, each set up exactly as the workload was.
	below := []string{rungCore, rungShard, rungServer}
	if sp.Embedded {
		below = append(below, rungCluster)
	}
	var parallel, rtt, pipelined float64
	for _, rung := range below {
		q, err := setup(ctx, rung, u, cfg.dataRoot, false) // rungs are memory-only: the directory goes unused
		if err != nil {
			return err
		}
		if rung == rungCore {
			m["core.cold_login_us"] = plain("us", float64(q.coldScan.Nanoseconds())/1e3)
		}
		rq := newRunner(u, q)
		rr, err := replay(rq, q, rung, sp.Replay, &spans)
		if err == nil && rung == rungCluster {
			notified, err = notifiedPerPost(rq, q)
		}
		if err == nil && rung == rungShard {
			d := min(300*time.Millisecond, step)
			parallel = parallelReads(u, q.d.pools[0], nproc, d) / parallelReads(u, q.d.pools[0], 1, d)
		}
		if err == nil && rung == rungServer {
			rtt, pipelined, err = clientFloor(ctx, q.d.conn)
		}
		q.d.close()
		if err != nil {
			return err
		}
		rungs[rung] = rr
	}

	core, sh, srv, cl := rungs[rungCore], rungs[rungShard], rungs[rungServer], rungs[rungCluster]
	for k, name := range opNames {
		m["core."+name+"_us"] = stat{Value: core.mean[k], Unit: "us", Samples: core.n[k]}
		m["shard."+name+"_self_us"] = stat{Value: sh.mean[k] - core.mean[k], Unit: "us", Samples: sh.n[k]}
		m["server."+name+"_self_us"] = stat{Value: srv.mean[k] - sh.mean[k], Unit: "us", Samples: srv.n[k]}
		m["cluster."+name+"_self_us"] = stat{Value: cl.mean[k] - srv.mean[k], Unit: "us", Samples: cl.n[k]}
	}
	reads, posts, subs := own.reads(), float64(own.n[twip.OpPost]), float64(own.n[twip.OpSubscribe])
	m["core.scanned_keys_per_read"] = plain("count", per(own.delta.ScannedKeys, reads))
	m["core.join_execs_per_read"] = plain("count", per(own.delta.JoinExecs, reads))
	m["core.hit_frac"] = plain("ratio", per(int64(own.hits), reads))
	m["core.updater_fires_per_post"] = plain("count", per(own.delta.UpdaterFires, posts))
	m["core.logs_applied_per_sub"] = plain("count", per(own.delta.LogsApplied, subs))
	m["core.dirty_recomputes_per_read"] = plain("count", per(own.delta.DirtyRecomputes, reads))
	m["core.evictions_per_read"] = plain("count", per(own.delta.Evictions, reads))
	m["core.loads_started_per_read"] = plain("count", per(own.delta.LoadsStarted, reads))
	m["shard.parallel_read_speedup"] = plain("ratio", parallel)
	m["client.rtt_us"], m["client.pipelined_us_per_op"] = plain("us", rtt), plain("us", pipelined)
	m["server.notified_changes_per_post"] = plain("count", notified)
	m["cluster.rpcs_per_op"] = plain("count", per(cl.rpcs, float64(sp.Replay)))

	keys, vals := microKeys(u, p.or)
	microTrees(m, keys, vals, u.seed)
	microRPC(m, own.wire)
	if err := microDurable(m, cfg.dataRoot, keys, vals); err != nil {
		return err
	}
	m["durable.lag_bytes_end"] = plain("bytes", float64(lag))
	if cfg.traceOut != "" {
		for _, s := range callerSpans {
			spans = append(spans, *s...)
		}
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return err
		}
		cfg.logf("trace: %d spans written to %s", len(spans), cfg.traceOut)
	}
	return nil
}

// allOf gathers one kind's latencies over a whole window, sorted.
func allOf(w *window, kind uint8) []int64 {
	segs := bySegment(w.workers, kind, w.length.Microseconds())
	var all []int64
	for _, s := range segs {
		all = append(all, s...)
	}
	sortInt64(all)
	return all
}

// durableLag sums the members' unsynced log bytes (0 when the
// deployment has no log).
func durableLag(ctx context.Context, d *deployment) (int64, error) {
	var lag int64
	for i, cfg := range d.cfgs {
		if cfg.DataDir == "" {
			continue
		}
		c, err := client.DialContext(ctx, d.addrs[i])
		if err != nil {
			return 0, err
		}
		snap, err := c.StatSnapshot(ctx)
		c.Close()
		if err != nil {
			return 0, err
		}
		if snap.Durable != nil {
			lag += snap.Durable.LagBytes
		}
	}
	return lag, nil
}
