package experiments

import (
	"fmt"
	"io"
	"time"

	"pequod/internal/client"

	"pequod/internal/baselines"
	"pequod/internal/baselines/memsim"
	"pequod/internal/baselines/redisim"
	"pequod/internal/baselines/sqlsim"
	"pequod/internal/twip"
)

// Fig7Row is one line of the Figure 7 table: "Time to process a Twip
// experiment to completion using Pequod and related systems. Smaller
// numbers are better."
type Fig7Row struct {
	System  string
	Runtime time.Duration
	Ratio   float64 // runtime / Pequod runtime (paper: 1.00x … 9.55x)
	RPCs    int64   // client requests issued during the timed run
}

// Fig7 runs the §5.2 system comparison: the same Twip workload to
// completion on Pequod, Redis, client Pequod, memcached, and the
// trigger-maintained relational database.
func Fig7(sc Scale, out io.Writer) ([]Fig7Row, error) {
	g, posts, w := buildTwip(sc, sc.ActivePct, twip.DefaultMix)
	fprintf(out, "Figure 7: system comparison (scale=%s: %d users, %d edges, %d ops)\n",
		sc.Name, sc.Users, g.Edges(), len(w.Ops))

	type sys struct {
		name  string
		setup func() (twip.Backend, func(), error)
	}
	var clusterClients []*client.Client // set by each setup for RPC counting
	systems := []sys{
		{"Pequod", func() (twip.Backend, func(), error) {
			cl, err := startPequodCluster(sc.Servers, twip.Joins, pequodServerDefaults())
			if err != nil {
				return nil, nil, err
			}
			clusterClients = cl.clients
			return &twip.PequodBackend{Clients: cl.clients}, cl.Close, nil
		}},
		{"Redis", func() (twip.Backend, func(), error) {
			cl, err := startBaselineCluster(sc.Servers, func() baselines.Handler { return redisim.New() })
			if err != nil {
				return nil, nil, err
			}
			clusterClients = cl.clients
			return &twip.RedisBackend{Clients: cl.clients}, cl.Close, nil
		}},
		{"Client Pequod", func() (twip.Backend, func(), error) {
			cl, err := startPequodCluster(sc.Servers, "", pequodServerDefaults())
			if err != nil {
				return nil, nil, err
			}
			clusterClients = cl.clients
			return &twip.ClientPequodBackend{Clients: cl.clients}, cl.Close, nil
		}},
		{"memcached", func() (twip.Backend, func(), error) {
			cl, err := startBaselineCluster(sc.Servers, func() baselines.Handler { return memsim.New() })
			if err != nil {
				return nil, nil, err
			}
			clusterClients = cl.clients
			return &twip.MemcachedBackend{Clients: cl.clients}, cl.Close, nil
		}},
		{"PostgreSQL", func() (twip.Backend, func(), error) {
			// One database instance, as in the paper's setup.
			cl, err := startBaselineCluster(1, func() baselines.Handler { return sqlsim.NewTwip() })
			if err != nil {
				return nil, nil, err
			}
			clusterClients = cl.clients
			return &twip.PostgresBackend{Client: cl.clients[0]}, cl.Close, nil
		}},
	}

	var rows []Fig7Row
	for _, s := range systems {
		b, cleanup, err := s.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if err := twip.LoadGraph(b, g, sc.Workers); err != nil {
			cleanup()
			return nil, fmt.Errorf("%s: load graph: %w", s.name, err)
		}
		if err := twip.LoadPosts(b, posts, sc.Workers); err != nil {
			cleanup()
			return nil, fmt.Errorf("%s: load posts: %w", s.name, err)
		}
		var before int64
		for _, c := range clusterClients {
			before += c.RPCs()
		}
		res, err := twip.Run(b, w, sc.Workers)
		var after int64
		for _, c := range clusterClients {
			after += c.RPCs()
		}
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", s.name, err)
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("%s: %d op errors", s.name, res.Errors)
		}
		rows = append(rows, Fig7Row{System: s.name, Runtime: res.Duration, RPCs: after - before})
	}

	base := rows[0].Runtime.Seconds()
	for i := range rows {
		rows[i].Ratio = rows[i].Runtime.Seconds() / base
	}
	fprintf(out, "%-16s %12s %8s %12s\n", "System", "Runtime", "Ratio", "RPCs")
	for _, r := range rows {
		fprintf(out, "%-16s %11.3fs %7.2fx %12d\n", r.System, r.Runtime.Seconds(), r.Ratio, r.RPCs)
	}
	fprintf(out, "(\u00a75.2: client-managed systems amplify RPC counts; the paper attributes\n")
	fprintf(out, " half of client Pequod's penalty to RPC overhead, half to insertion overhead)\n")
	return rows, nil
}
