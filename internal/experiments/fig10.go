package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pequod/internal/client"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
	"pequod/internal/server"
	"pequod/internal/twip"
)

// Fig10Row is one point of the scalability sweep: aggregate query
// throughput with a given number of compute servers.
type Fig10Row struct {
	ComputeServers int
	QPS            float64
	Ops            int
	Runtime        time.Duration
	BaseBytes      int64
	ComputeBytes   int64
}

// Fig10 reproduces §5.5: a fixed Twip workload against a backing store of
// base servers and a varying number of compute servers executing the
// timeline join. "All of a user's compute requests are directed to the
// same compute server"; caches are warmed (every active user logged in)
// before measurement; throughput should rise sub-linearly with compute
// servers (the paper: 3x from 12→48).
func Fig10(sc Scale, computeCounts []int, baseServers int, out io.Writer) ([]Fig10Row, error) {
	g := twip.Generate(sc.Users, sc.Edges, sc.seedAt(42))
	posts := twip.GeneratePosts(g, sc.Posts, sc.seedAt(43), sc.TweetLen)
	w := twip.GenerateWorkload(g, twip.WorkloadConfig{
		ActiveFraction: float64(sc.ActivePct) / 100,
		ChecksPerUser:  sc.ChecksPerUser,
		Seed:           sc.seedAt(44),
		StartTime:      int64(len(posts)),
		TweetLen:       sc.TweetLen,
	})
	fprintf(out, "Figure 10: scalability (scale=%s, %d base servers, %d ops per run)\n",
		sc.Name, baseServers, len(w.Ops))
	fprintf(out, "%8s %12s %12s %14s %14s\n", "compute", "QPS", "Runtime", "BaseBytes", "ComputeBytes")

	var rows []Fig10Row
	for _, nc := range computeCounts {
		row, err := runFig10(g, posts, w, sc, baseServers, nc)
		if err != nil {
			return nil, fmt.Errorf("compute=%d: %w", nc, err)
		}
		rows = append(rows, row)
		fprintf(out, "%8d %12.0f %11.3fs %14d %14d\n",
			row.ComputeServers, row.QPS, row.Runtime.Seconds(), row.BaseBytes, row.ComputeBytes)
	}
	return rows, nil
}

// fig10Cluster is the §5.5 topology. view places every key: the base
// tables at the base servers, each user's timeline at one compute
// server; clients route by it and the compute servers' loaders read it.
type fig10Cluster struct {
	baseServers    []*server.Server
	computeServers []*server.Server
	clients        map[string]*client.Client // by server address
	view           *partition.View
}

func (c *fig10Cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, s := range c.computeServers {
		s.Close()
	}
	for _, s := range c.baseServers {
		s.Close()
	}
}

// clientFor returns the connection to key's home under the view.
func (c *fig10Cluster) clientFor(key string) *client.Client {
	return c.clients[c.view.OwnerAddr(key)]
}

// basePartition builds the home-server map for the Twip base tables and
// the per-owner address list. Besides the per-table user splits, each
// table after the first gets a bound at its start: without it, one
// range spans the previous table's tail and this table's head — two
// spans whose user-id arithmetic picks different servers — and remote
// loads for the head span would be routed to the tail's server, where
// the rows never were (clients write them via shardOfBound).
func basePartition(users, nBase int, baseAddrs []string) (*partition.Map, []string) {
	bounds := append(partition.UserBounds(nBase, users, 7, "u", "p", "s"), "s|")
	sort.Strings(bounds)
	pmap := partition.MustNew(bounds...)
	// Owner i covers [bounds[i-1], bounds[i]); its server is determined
	// by the covering range's low key (table-local user split).
	ownerAddr := make([]string, pmap.Servers())
	for i := range ownerAddr {
		var rep string
		if i == 0 {
			rep = "" // lowest range: first shard
		} else {
			rep = bounds[i-1]
		}
		ownerAddr[i] = baseAddrs[shardOfBound(rep, users, nBase)]
	}
	return pmap, ownerAddr
}

// shardOfBound maps a partition bound ("p|u0001234" or "") to its base
// server index.
func shardOfBound(bound string, users, nBase int) int {
	if bound == "" {
		return 0
	}
	comps := keys.Split(bound)
	if len(comps) < 2 {
		return 0
	}
	var id int
	fmt.Sscanf(comps[1], "u%d", &id)
	s := id * nBase / users
	if s >= nBase {
		s = nBase - 1
	}
	return s
}

// fig10View is the §5.5 topology as one cluster view: basePartition's
// ranges at the base servers, then the timeline table split by user
// across the compute servers, each the home of its users' timelines.
func fig10View(users int, baseAddrs, computeAddrs []string) (*partition.View, error) {
	pmap, ownerAddr := basePartition(users, len(baseAddrs), baseAddrs)
	bounds := append(pmap.Bounds(), "t|")
	bounds = append(bounds, partition.UserBounds(len(computeAddrs), users, 7, "u", "t")...)
	m, err := partition.New(bounds...)
	if err != nil {
		return nil, err
	}
	return partition.NewView(m, append(ownerAddr, computeAddrs...))
}

func startFig10(users, nBase, nCompute int) (*fig10Cluster, error) {
	c := &fig10Cluster{clients: make(map[string]*client.Client)}
	fail := func(err error) (*fig10Cluster, error) {
		c.Close()
		return nil, err
	}
	start := func(cfg server.Config) (*server.Server, string, error) {
		s, err := server.New(cfg)
		if err != nil {
			return nil, "", err
		}
		addr, err := s.Start()
		var cl *client.Client
		if err == nil {
			cl, err = client.Dial(addr)
		}
		if err != nil {
			s.Close()
			return nil, "", err
		}
		c.clients[addr] = cl
		return s, addr, nil
	}
	var baseAddrs, computeAddrs []string
	for i := 0; i < nBase; i++ {
		s, addr, err := start(server.Config{Name: fmt.Sprintf("base%d", i)})
		if err != nil {
			return fail(err)
		}
		c.baseServers, baseAddrs = append(c.baseServers, s), append(baseAddrs, addr)
	}
	for i := 0; i < nCompute; i++ {
		s, addr, err := start(server.Config{Name: fmt.Sprintf("compute%d", i), Joins: twip.Joins})
		if err != nil {
			return fail(err)
		}
		c.computeServers, computeAddrs = append(c.computeServers, s), append(computeAddrs, addr)
	}
	var err error
	if c.view, err = fig10View(users, baseAddrs, computeAddrs); err != nil {
		return fail(err)
	}
	// Each compute server's gate is the view as that server holds it: it
	// serves its users' timelines and, being gated, loads its joins'
	// sources, p| and s|, from the bases.
	for _, addr := range computeAddrs {
		m := &rpc.Message{Type: rpc.MsgMapUpdate, Map: c.view.For(addr).Wire()}
		if _, err := c.clients[addr].Do(context.TODO(), m); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

func runFig10(g *twip.Graph, posts []twip.Op, w *twip.Workload, sc Scale, nBase, nCompute int) (Fig10Row, error) {
	c, err := startFig10(g.Users, nBase, nCompute)
	if err != nil {
		return Fig10Row{}, err
	}
	defer c.Close()

	// "We run enough clients to saturate the Pequod servers" (§5.1):
	// driver parallelism scales with the cluster under test.
	workers := sc.Workers * 4
	sc.Workers = workers

	// Base writes and timeline reads route by the view the compute
	// servers' gates hold, so client routing and their remote loaders
	// agree on every key's home by construction.
	baseFor := c.clientFor
	computeFor := func(u int32) *client.Client { return c.clientFor("t|" + twip.UserID(u) + "|") }

	// Base data: subscriptions and historical posts to home servers.
	err = parallel(sc.Workers, len(w.Active), func(i int) error {
		u := w.Active[i]
		uid := twip.UserID(u)
		for _, p := range g.Following[u] {
			key := keys.Join("s", uid, twip.UserID(p))
			if err := baseFor(key).Put(key, "1"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Fig10Row{}, err
	}
	// Inactive users' subscriptions still live at the base store.
	activeSet := map[int32]bool{}
	for _, u := range w.Active {
		activeSet[u] = true
	}
	err = parallel(sc.Workers, g.Users, func(i int) error {
		u := int32(i)
		if activeSet[u] {
			return nil
		}
		uid := twip.UserID(u)
		for _, p := range g.Following[u] {
			key := keys.Join("s", uid, twip.UserID(p))
			if err := baseFor(key).Put(key, "1"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Fig10Row{}, err
	}
	err = parallel(sc.Workers, len(posts), func(i int) error {
		op := posts[i]
		key := keys.Join("p", twip.UserID(op.User), twip.TimeID(op.Time))
		return baseFor(key).Put(key, op.Text)
	})
	if err != nil {
		return Fig10Row{}, err
	}

	// Warm: log every active user in (installs join status ranges,
	// fetches base data, establishes subscriptions — §5.5).
	err = parallel(sc.Workers, len(w.Active), func(i int) error {
		u := w.Active[i]
		uid := twip.UserID(u)
		_, err := computeFor(u).Scan("t|"+uid+"|", keys.RangeEnd("t", uid), 0)
		return err
	})
	if err != nil {
		return Fig10Row{}, err
	}

	// Timed phase: the workload runs as fast as possible; writes go to
	// base homes, reads to user-affine compute servers.
	start := time.Now()
	var errCount int64
	var mu sync.Mutex
	err = parallel(sc.Workers, len(w.Ops), func(i int) error {
		op := w.Ops[i]
		var err error
		switch op.Kind {
		case twip.OpLogin:
			uid := twip.UserID(op.User)
			_, err = computeFor(op.User).Scan("t|"+uid+"|", keys.RangeEnd("t", uid), 0)
		case twip.OpCheck:
			uid := twip.UserID(op.User)
			lo := keys.Join("t", uid, twip.TimeID(op.Since))
			_, err = computeFor(op.User).Scan(lo, keys.RangeEnd("t", uid), 0)
		case twip.OpSubscribe:
			key := keys.Join("s", twip.UserID(op.User), twip.UserID(op.Target))
			err = baseFor(key).Put(key, "1")
		case twip.OpPost:
			key := keys.Join("p", twip.UserID(op.User), twip.TimeID(op.Time))
			err = baseFor(key).Put(key, op.Text)
		}
		if err != nil {
			mu.Lock()
			errCount++
			mu.Unlock()
		}
		return nil
	})
	runtime := time.Since(start)
	if err != nil {
		return Fig10Row{}, err
	}
	if errCount > 0 {
		return Fig10Row{}, fmt.Errorf("%d op errors", errCount)
	}

	row := Fig10Row{
		ComputeServers: nCompute,
		Ops:            len(w.Ops),
		Runtime:        runtime,
		QPS:            float64(len(w.Ops)) / runtime.Seconds(),
	}
	for _, s := range c.baseServers {
		row.BaseBytes += s.Bytes()
	}
	for _, s := range c.computeServers {
		row.ComputeBytes += s.Bytes()
	}
	return row, nil
}

// parallel runs fn(0..n-1) across w workers, returning the first error.
func parallel(w, n int, fn func(i int) error) error {
	if w < 1 {
		w = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, w)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += w {
				if err := fn(i); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}(k)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
