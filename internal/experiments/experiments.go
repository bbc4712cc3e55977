// Package experiments implements the paper's evaluation (§5): one
// function per table/figure, shared by the root benchmark suite and the
// cmd/repro harness. Each function prints the same rows/series the paper
// reports and returns them for programmatic checks.
//
// Scales: the paper ran 1.8M-user graphs and 62M timeline checks on
// 32-core EC2 machines; the reproduction runs laptop-scale versions whose
// *shape* — which system wins, rough factors, where crossovers fall — is
// the comparison target (DESIGN.md "Evaluation"; cmd/repro prints the
// rows to compare with the paper's).
package experiments

import (
	"fmt"
	"io"

	"pequod/internal/baselines"
	"pequod/internal/client"
	"pequod/internal/server"
	"pequod/internal/twip"
)

// Scale sizes an experiment run.
type Scale struct {
	Name          string
	Users         int
	Edges         int
	Posts         int // historical posts
	ChecksPerUser int
	ActivePct     int // Fig 7 active-user percentage
	Sessions      int // Newp sessions
	Servers       int // cache servers per system (Fig 7)
	Workers       int // driver goroutines
	TweetLen      int
	Seed          int64 // determinism root; 0 keeps the historical defaults
}

// defaultSeedRoot is the root the experiments have always run under:
// graph seed 42, with the other fixed stream seeds (43, 44, 7, 11, 13,
// 5, 9) derived alongside it.
const defaultSeedRoot = 42

// seedAt shifts one of the experiment's fixed default seeds by the
// scale's Seed override. With Seed unset (or set to the default root)
// every historical seed keeps its exact value, so recorded BENCH
// numbers regenerate from the same streams; with a -seed override
// every derived stream — graph, posts, workload, datasets — shifts
// together, giving an independent but still fully deterministic run.
func (sc Scale) seedAt(def int64) int64 {
	return def + (sc.EffectiveSeed() - defaultSeedRoot)
}

// EffectiveSeed is the resolved determinism root (the historical
// default when Seed is unset) — what repro prints so a run can be
// replayed exactly.
func (sc Scale) EffectiveSeed() int64 {
	if sc.Seed == 0 {
		return defaultSeedRoot
	}
	return sc.Seed
}

// Tiny runs in CI test time; Small in seconds; Medium in tens of seconds.
var (
	Tiny = Scale{
		Name: "tiny", Users: 300, Edges: 2500, Posts: 2500,
		ChecksPerUser: 6, ActivePct: 70, Sessions: 800,
		Servers: 2, Workers: 8, TweetLen: 60,
	}
	Small = Scale{
		Name: "small", Users: 2000, Edges: 30000, Posts: 16000,
		ChecksPerUser: 15, ActivePct: 70, Sessions: 8000,
		Servers: 3, Workers: 16, TweetLen: 100,
	}
	Medium = Scale{
		Name: "medium", Users: 20000, Edges: 400000, Posts: 150000,
		ChecksPerUser: 30, ActivePct: 70, Sessions: 60000,
		Servers: 4, Workers: 32, TweetLen: 140,
	}
)

// ScaleByName resolves a scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (tiny|small|medium)", name)
}

// cluster is a set of servers + clients with teardown.
type cluster struct {
	clients []*client.Client
	closers []func()
}

func (c *cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, f := range c.closers {
		f()
	}
}

// startPequodCluster boots n Pequod servers with the given joins.
func startPequodCluster(n int, joins string, opts server.Config) (*cluster, error) {
	cl := &cluster{}
	for i := 0; i < n; i++ {
		cfg := opts
		cfg.Name = fmt.Sprintf("pequod%d", i)
		cfg.Joins = joins
		s, err := server.New(cfg)
		if err != nil {
			cl.Close()
			return nil, err
		}
		addr, err := s.Start()
		if err != nil {
			cl.Close()
			return nil, err
		}
		c, err := client.Dial(addr)
		if err != nil {
			s.Close()
			cl.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, c)
		cl.closers = append(cl.closers, s.Close)
	}
	return cl, nil
}

// startBaselineCluster boots n baseline servers from a handler factory.
func startBaselineCluster(n int, mk func() baselines.Handler) (*cluster, error) {
	cl := &cluster{}
	for i := 0; i < n; i++ {
		srv := baselines.NewServer(mk())
		addr, err := srv.Start()
		if err != nil {
			cl.Close()
			return nil, err
		}
		c, err := client.Dial(addr)
		if err != nil {
			srv.Close()
			cl.Close()
			return nil, err
		}
		cl.clients = append(cl.clients, c)
		cl.closers = append(cl.closers, srv.Close)
	}
	return cl, nil
}

// buildTwip generates the graph, prepopulation, and workload for a scale.
func buildTwip(sc Scale, activePct int, mix twip.Mix) (*twip.Graph, []twip.Op, *twip.Workload) {
	g := twip.Generate(sc.Users, sc.Edges, sc.seedAt(42))
	posts := twip.GeneratePosts(g, sc.Posts, sc.seedAt(43), sc.TweetLen)
	w := twip.GenerateWorkload(g, twip.WorkloadConfig{
		ActiveFraction: float64(activePct) / 100,
		ChecksPerUser:  sc.ChecksPerUser,
		Mix:            mix,
		Seed:           sc.seedAt(44),
		StartTime:      int64(len(posts)),
		TweetLen:       sc.TweetLen,
	})
	return g, posts, w
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// pequodServerDefaults returns the server configuration used by the
// experiments (paper defaults: all optimizations on, no memory limit —
// §5.1 "Although we enable eviction, it never triggers").
func pequodServerDefaults() server.Config {
	return server.Config{}
}
