package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"pequod"
	"pequod/internal/server"
)

// config is one run of one workload.
type config struct {
	sp       spec
	seed     int64
	seconds  float64 // total length of the timed windows
	trace    bool
	dataRoot string // scratch for durable members and the durable rung
	traceOut string // span file of a traced run ("" = none)
	log      io.Writer
}

// report is everything a run found.
type report struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   results  `json:"metrics"`
	Ungated   results  `json:"ungated,omitempty"` // untraced run: tails and freshness of the same window, for the record
	Env       env      `json:"env"`
	Spec      spec     `json:"spec"`
	Notes     []string `json:"notes,omitempty"`
}

// lateLimitUS is the validity threshold: a ref step whose generator ran
// later than this at p95 measured the harness, not Pequod. (At p99 every
// thread of the process sees stalls of one 4 ms scheduler tick on the
// defining machine, the generator's spinning callers included.)
const lateLimitUS = 200

// p99LimitUS is the latency limit rate_ok_ops_s holds check_p99 to.
const p99LimitUS = 5000

func (c *config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// run executes the workload once and reports its metrics: the
// end-to-end set untraced, the per-layer set traced.
func run(ctx context.Context, cfg config) (*report, error) {
	sp := &cfg.sp
	nproc := runtime.GOMAXPROCS(0)
	u := newUniverse(sp, cfg.seed)
	rep := &report{Workload: sp.Name, Trace: cfg.trace, Metrics: results{}, Spec: *sp}
	rep.Env = readEnv(cfg.seed, u.digest())
	cfg.logf("workload %s seed %d digest %s", sp.Name, cfg.seed, rep.Env.Digest)

	dataRoot, err := os.MkdirTemp(cfg.dataRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	cfg.dataRoot = dataRoot

	rung := rungCluster
	if sp.Embedded {
		rung = rungCache
	}
	p, err := setup(ctx, rung, u, dataRoot, true)
	if err != nil {
		return nil, err
	}
	defer func() { p.d.close() }()
	cfg.logf("set-up: %.2f s", p.took.Seconds())
	if p.d.memLimit > 0 {
		cfg.logf("memory: estimated timeline working set %d B, limit %d B (base copy + 1/%d of it)",
			p.d.estTL, p.d.memLimit, sp.MemDiv)
	}
	if sp.Durable {
		cfg.logf("flush policy: fsync every %v (batched, write-behind), snapshot every %v, scrub and compaction off",
			25*time.Millisecond, server.DefaultSnapshotInterval)
	}
	r := newRunner(u, p)
	m := rep.Metrics

	if cfg.trace {
		if err := tracedRun(ctx, &cfg, u, p, r, m); err != nil {
			return nil, err
		}
	} else {
		m["setup_s"] = plain("s", p.took.Seconds())
		// One closed-loop window for everything a user would see: the
		// open-loop steps live in the traced run, their medians being too
		// unsteady from run to run to carry a bound (README.md).
		closed := r.closedLoop(nproc, dur(cfg.seconds), streamClosed, nil)
		m["throughput_ops_s"], m["cpu_us_per_op"] = closedStats(closed)
		lm := latencyStats(closed)
		for _, k := range []string{"check_p50_us", "check_p99_us", "login_p50_us", "post_p50_us"} {
			m[k] = lm[k]
			delete(lm, k)
		}
		rep.Ungated = lm
		if err := p.d.tgt.Quiesce(); err != nil {
			return nil, err
		}
		m["mem_bytes_per_base_byte"] = plain("ratio", float64(p.d.bytes())/float64(r.base.Load()))
	}

	if p.d.memLimit > 0 {
		held := p.d.pools[len(p.d.pools)-1].Bytes()
		cfg.logf("memory: the timeline member holds %d B after the windows, %.2f of its limit of %d B",
			held, float64(held)/float64(p.d.memLimit), p.d.memLimit)
	}
	// A traced durable run checks the reference only after the warm
	// restart: equality there implies every row survived it.
	if cfg.trace && sp.Durable {
		if err := restartCheck(ctx, &cfg, u, p, m); err != nil {
			return nil, err
		}
	} else {
		if cfg.trace {
			m["durable.replay_ms"] = plain("ms", 0) // no member has a log to replay
		}
		start := time.Now()
		rows, err := verify(ctx, u, p)
		if err != nil {
			return nil, err
		}
		cfg.logf("oracle: %d users, %d timeline rows compared byte for byte in %.1f s, %d violations",
			sp.Users, rows, time.Since(start).Seconds(), p.or.violationCount())
	}
	rep.Attempted, rep.Failed = r.attempted.Load(), r.failed.Load()
	rep.Correct = p.or.violationCount() == 0
	for _, v := range p.or.violations {
		rep.Notes = append(rep.Notes, "violation: "+v)
	}
	if cfg.trace {
		ff := float64(rep.Failed) / float64(rep.Attempted)
		if !rep.Correct {
			ff = 1
		}
		m["failed_frac"] = plain("ratio", ff)
	}
	if err := m.checkComplete(declared(cfg.trace)); err != nil {
		return nil, err
	}
	return rep, nil
}

func logStep(cfg *config, name string, w *window) {
	cfg.logf("open loop %-3s: offered %.0f ops/s, achieved %.0f ops/s, backlog mid %d end %d",
		name, float64(w.offered)/w.length.Seconds(), float64(w.completed)/w.length.Seconds(), w.backlogMid, w.backlog)
}

// closedStats turns a closed-loop window's boundary readings into
// throughput and CPU cost per op, each the median over segments.
func closedStats(w *window) (throughput, cpu stat) {
	var tp, cp []float64
	for s := 1; s < len(w.marks); s++ {
		a, b := w.marks[s-1], w.marks[s]
		ops := float64(b.ops - a.ops)
		if ops == 0 {
			continue
		}
		tp = append(tp, ops/(b.at-a.at).Seconds())
		cp = append(cp, float64((b.cpu-a.cpu).Microseconds())/ops)
	}
	total := int(w.marks[len(w.marks)-1].ops)
	return segStat("ops/s", tp, total), segStat("us", cp, total)
}

// latencyStats computes every latency metric a window supports: the
// median and the 99th percentile per op type (the 90th for freshness
// probes, which are too few for a 99th with ten samples beyond it).
func latencyStats(w *window) results {
	us := w.length.Microseconds()
	out := results{}
	for kind, name := range map[uint8]string{kLogin: "login", kCheck: "check", kPost: "post"} {
		segs := bySegment(w.workers, kind, us)
		out[name+"_p50_us"] = quantileStat(segs, 0.50)
		out[name+"_p99_us"] = quantileStat(segs, 0.99)
	}
	fresh := bySegment(w.workers, kFresh, us)
	out["lag_p50_us"] = quantileStat(fresh, 0.50)
	out["lag_p90_us"] = quantileStat(fresh, 0.90)
	return out
}

// verify settles the deployment and compares every user's full timeline
// with the reference, byte for byte.
func verify(ctx context.Context, u *universe, p *prepared) (rows int, err error) {
	if err := p.d.tgt.Quiesce(); err != nil {
		return 0, err
	}
	const chunk = 64
	for lo := 0; lo < u.sp.Users; lo += chunk {
		hi := min(lo+chunk, u.sp.Users)
		ranges := make([]pequod.Range, 0, chunk)
		for i := lo; i < hi; i++ {
			ranges = append(ranges, pequod.Range{Lo: "t|" + u.ids[i] + "|", Hi: "t|" + u.ids[i] + "}"})
		}
		got, err := p.d.store.ScanBatch(ctx, ranges, 0)
		if err != nil {
			return rows, fmt.Errorf("final scan: %w", err)
		}
		for i, kvs := range got {
			rows += p.or.finalCompare(int32(lo+i), asRows(kvs))
		}
	}
	return rows, nil
}

// restartCheck stops the timeline member of a durable cluster, starts a
// new server on the same data directory and address, and requires every
// timeline to read back equal to the reference. The restart is recorded
// as durable.replay_ms only if it does.
func restartCheck(ctx context.Context, cfg *config, u *universe, p *prepared, m results) error {
	d := p.d
	if err := d.tgt.Quiesce(); err != nil {
		return err
	}
	d.servers[1].Close()
	start := time.Now()
	s, err := server.New(d.cfgs[1])
	if err != nil {
		return fmt.Errorf("warm restart from %s: %w", d.cfgs[1].DataDir, err)
	}
	took := time.Since(start)
	d.closers = append(d.closers, s.Close)
	var ln net.Listener
	for try := 0; ; try++ {
		if ln, err = net.Listen("tcp", d.addrs[1]); err == nil {
			break
		}
		if try > 400 {
			return fmt.Errorf("rebinding %s: %w", d.addrs[1], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	go s.Serve(ln) //nolint:errcheck // returns when close() closes the server
	d.servers[1], d.pools[1] = s, s.Pool()
	rows, err := verify(ctx, u, p)
	if err != nil {
		return fmt.Errorf("after warm restart: %w", err)
	}
	cfg.logf("warm restart of the timeline member: %v; oracle: %d users, %d timeline rows compared byte for byte after it, %d violations",
		took, u.sp.Users, rows, p.or.violationCount())
	m["durable.replay_ms"] = plain("ms", float64(took.Microseconds())/1e3)
	return nil
}

// printMetrics lists every metric by name with its unit, in the order
// declared.
func printMetrics(w io.Writer, rep *report) {
	row := func(n string, st stat) {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s spread %5.1f%%  n=%d\n", n, st.Value, st.Unit, 100*st.Spread, st.Samples)
	}
	for _, d := range declared(rep.Trace) {
		row(d.Name, rep.Metrics[d.Name])
	}
	if len(rep.Ungated) > 0 {
		fmt.Fprintln(w, "not gated (same window; too unsteady to bound, the traced run reports them per layer):")
		for _, n := range []string{"login_p99_us", "post_p99_us", "lag_p50_us", "lag_p90_us"} {
			row(n, rep.Ungated[n])
		}
	}
}
