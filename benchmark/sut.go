package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pequod"
	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/server"
	"pequod/internal/shard"
	"pequod/internal/twip"
)

// Accounted bytes per row, mirroring internal/store's constants; used
// only to size the cold workload's memory limit before anything is
// loaded. What the member holds after the windows is printed against the
// limit.
const (
	estSubRow      = 19 + 96 + 1 + 24
	estPostRow     = 22 + 96 + tweetLen + 24
	estTimelineRow = 30 + 96
)

// Rungs of the ladder, bottom to top. rungCache is the embedded
// workload's own deployment (the public Cache over a shard pool).
const (
	rungCore    = "core"
	rungShard   = "shard"
	rungServer  = "server"
	rungCluster = "cluster"
	rungCache   = "cache"
)

// deployment is one system under test: a bare engine, a shard pool, one
// server behind one connection, the 2-member loopback cluster, or the
// embedded cache — all driven through target.
type deployment struct {
	rung    string
	tgt     target
	closers []func()
	pools   []*shard.Pool // every pool in the deployment, for counters
	engine  *core.Engine

	store   pequod.Store     // the public API of the cache and cluster rungs
	conn    *client.Client   // the server rung's one connection
	cl      *cluster.Cluster // the cluster rung's client, for its RPC count
	servers []*server.Server
	addrs   []string
	cfgs    []server.Config

	memLimit int64 // timeline member's limit, 0 = none
	estTL    int64 // estimated bytes of every timeline materialised
}

func userBounds(n, users int) []string { return partition.UserBounds(n, users, 7, "u", "t") }

// boot starts a deployment of the given rung, empty, joins installed.
// asWorkload makes the members durable if the spec says so (the
// workload's own cluster); ladder rungs run memory-only. A spec's memory
// limit applies at every rung, so each rung does the same evictions.
func boot(ctx context.Context, rung string, u *universe, dataRoot string, asWorkload bool) (*deployment, error) {
	sp := u.sp
	d := &deployment{rung: rung}
	nproc := runtime.GOMAXPROCS(0)
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, fmt.Errorf("boot %s rung: %w", rung, err)
	}
	if sp.MemDiv > 0 {
		var rows int64
		for _, ps := range u.g.Following {
			for _, p := range ps {
				rows += int64(u.histN[p])
			}
		}
		// Whatever holds the timelines also holds a copy of the base
		// data; a pool splits its limit evenly and each shard has one.
		d.estTL = rows * estTimelineRow
		base := int64(sp.Edges)*estSubRow + int64(sp.Posts)*estPostRow
		if rung == rungShard || rung == rungCache {
			base *= int64(nproc)
		}
		d.memLimit = base + d.estTL/int64(sp.MemDiv)
	}
	limited := core.Options{MemLimit: d.memLimit}
	switch rung {
	case rungCore:
		d.engine = core.New(limited)
		if err := d.engine.InstallText(twip.Joins); err != nil {
			return fail(err)
		}
		d.tgt = engineTarget{d.engine}
	case rungShard:
		p, err := shard.New(shard.Config{Engine: limited, Shards: nproc, Bounds: userBounds(nproc, sp.Users)})
		if err != nil {
			return fail(err)
		}
		d.closers = append(d.closers, p.Close)
		d.pools = []*shard.Pool{p}
		if err := p.InstallText(twip.Joins); err != nil {
			return fail(err)
		}
		d.tgt = poolTarget{p}
	case rungCache:
		c, err := pequod.NewCache(limited, pequod.WithShards(nproc),
			pequod.WithBounds(userBounds(nproc, sp.Users)...))
		if err != nil {
			return fail(err)
		}
		d.closers = append(d.closers, func() { c.Close() })
		d.pools = []*shard.Pool{c.Pool()}
		if err := c.Install(ctx, twip.Joins); err != nil {
			return fail(err)
		}
		d.store, d.tgt = c, storeTarget{ctx, c}
	case rungServer:
		s, err := server.New(server.Config{Name: "solo", Joins: twip.Joins, Engine: limited})
		if err != nil {
			return fail(err)
		}
		d.closers = append(d.closers, s.Close)
		d.servers, d.pools = []*server.Server{s}, []*shard.Pool{s.Pool()}
		addr, err := s.Start()
		if err != nil {
			return fail(err)
		}
		d.addrs = []string{addr}
		c, err := client.DialContext(ctx, addr)
		if err != nil {
			return fail(err)
		}
		d.closers = append(d.closers, func() { c.Close() })
		d.conn, d.tgt = c, clientTarget{ctx, c}
	case rungCluster:
		// Member 0 owns p| and s|, member 1 owns t| (the internal/loadgen
		// layout): every post crosses the subscription mesh and every
		// read is served by a member that does not own its base data.
		for i := 0; i < 2; i++ {
			cfg := server.Config{Name: fmt.Sprintf("m%d", i)}
			if i == 1 {
				cfg.Engine = limited
			}
			if asWorkload && sp.Durable {
				// Flush policy: the server defaults (25 ms batched fsync,
				// 30 s snapshots); scrub and compaction off so no
				// maintenance timer fires into a window.
				cfg.DataDir = filepath.Join(dataRoot, cfg.Name)
				if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
					return fail(err)
				}
				cfg.ScrubInterval, cfg.CompactInterval = -1, -1
			}
			s, err := server.New(cfg)
			if err != nil {
				return fail(err)
			}
			d.closers = append(d.closers, s.Close)
			d.servers, d.cfgs, d.pools = append(d.servers, s), append(d.cfgs, cfg), append(d.pools, s.Pool())
			addr, err := s.Start()
			if err != nil {
				return fail(err)
			}
			d.addrs = append(d.addrs, addr)
		}
		cl, err := cluster.New(ctx, cluster.Config{
			Addrs: d.addrs, Bounds: []string{"t|"}, Joins: twip.Joins, CoordinatorName: "benchmark",
		})
		if err != nil {
			return fail(err)
		}
		d.closers = append(d.closers, func() { cl.Close() })
		d.cl, d.store, d.tgt = cl, cl, storeTarget{ctx, cl}
	default:
		return nil, fmt.Errorf("unknown rung %q", rung)
	}
	return d, nil
}

// close releases the deployment, clients before servers.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// stats sums the engine counters of everything in the deployment, read
// in process so the reading costs no RPC.
func (d *deployment) stats() core.Stats {
	if d.engine != nil {
		return d.engine.Stats()
	}
	var t core.Stats
	for _, p := range d.pools {
		t.Add(p.Stats())
	}
	return t
}

func (d *deployment) bytes() int64 {
	if d.engine != nil {
		return d.engine.Store().Bytes()
	}
	var n int64
	for _, p := range d.pools {
		n += p.Bytes()
	}
	return n
}

func (d *deployment) rpcs() int64 {
	if d.cl == nil {
		return 0
	}
	return d.cl.RPCs()
}

// load writes the subscription graph, then the historical posts, feeding
// the oracle, and returns the base bytes written (keys + values).
func load(t target, u *universe, or *oracle) (int64, error) {
	var base int64
	batch := make([]core.KV, 0, 1024)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := t.PutBatch(batch)
		batch = batch[:0]
		return err
	}
	add := func(k, v string) error {
		base += int64(len(k) + len(v))
		batch = append(batch, core.KV{Key: k, Value: v})
		if len(batch) == cap(batch) {
			return flush()
		}
		return nil
	}
	for user, ps := range u.g.Following {
		for _, p := range ps {
			or.subscribe(int32(user), p)
			if err := add("s|"+u.ids[user]+"|"+u.ids[p], "1"); err != nil {
				return 0, err
			}
		}
	}
	for _, h := range u.hist {
		or.post(h.User, h.Time, h.Text)
		if err := add("p|"+u.ids[h.User]+"|"+timeID(h.Time), h.Text); err != nil {
			return 0, err
		}
	}
	return base, flush()
}

// prepared is a deployment loaded, settled and warm, with the reference
// that saw the same writes.
type prepared struct {
	d        *deployment
	or       *oracle
	base     int64         // base bytes loaded
	took     time.Duration // boot + load + quiesce + warm
	coldScan time.Duration // mean first scan of an unmaterialised timeline
}

// setup is the whole preparation, timed as setup_s: boot, install
// joins, load subscriptions then historical posts, quiesce, scan every
// active timeline once.
func setup(ctx context.Context, rung string, u *universe, dataRoot string, asWorkload bool) (*prepared, error) {
	start := time.Now()
	d, err := boot(ctx, rung, u, dataRoot, asWorkload)
	if err != nil {
		return nil, err
	}
	p := &prepared{d: d, or: newOracle()}
	p.base, err = load(d.tgt, u, p.or)
	if err == nil {
		err = d.tgt.Quiesce()
	}
	warmStart := time.Now()
	var buf []core.KV
	for _, a := range u.active {
		if err != nil {
			break
		}
		buf, err = d.tgt.Scan("t|"+u.ids[a]+"|", "t|"+u.ids[a]+"}", buf)
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("set-up of %s rung: %w", rung, err)
	}
	p.coldScan = time.Since(warmStart) / time.Duration(len(u.active))
	p.took = time.Since(start)
	return p, nil
}
