package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/twip"
)

// Fig8Row is one point of the Figure 8 sweep: runtime (and memory) of a
// materialization strategy at a given active-user percentage.
type Fig8Row struct {
	Strategy  string
	ActivePct int
	Runtime   time.Duration
	Bytes     int64
}

// Fig8 compares materialization strategies (§5.3): no materialization
// (pull), full materialization (everything warmed and kept up to date),
// and Pequod's dynamic materialization. The workload has only timeline
// checks and posts; p active-user percentages sweep the check:post ratio
// from 1:1 toward 100:1.
func Fig8(sc Scale, activePcts []int, out io.Writer) ([]Fig8Row, error) {
	g := twip.Generate(sc.Users, sc.Edges, sc.seedAt(42))
	postBase := fig8PostBase(sc.Posts)
	fprintf(out, "Figure 8: materialization strategy (scale=%s, %d posts per run)\n", sc.Name, postBase)
	fprintf(out, "%-22s %8s %12s %14s\n", "Strategy", "active%", "Runtime", "Bytes")

	strategies := []struct {
		name string
		pull bool
		full bool
	}{
		{"No materialization", true, false},
		{"Full materialization", false, true},
		{"Dynamic materialization", false, false},
	}

	var rows []Fig8Row
	for _, strat := range strategies {
		for _, p := range activePcts {
			runtime, bytes, err := runFig8(g, sc, postBase, p, strat.pull, strat.full)
			if err != nil {
				return nil, fmt.Errorf("%s at %d%%: %w", strat.name, p, err)
			}
			rows = append(rows, Fig8Row{strat.name, p, runtime, bytes})
			fprintf(out, "%-22s %7d%% %11.3fs %14d\n", strat.name, p, runtime.Seconds(), bytes)
		}
	}
	return rows, nil
}

// fig8PostBase sizes the per-run post count: the check count scales as
// p × posts (up to 100:1), so the post base is kept smaller than
// Figure 7's history, with a floor that keeps tiny scales meaningful.
func fig8PostBase(scalePosts int) int {
	postBase := scalePosts / 4
	if postBase < 500 {
		postBase = 500
	}
	return postBase
}

// runFig8 executes one (strategy, activePct) cell on an embedded engine:
// the strategies differ in join annotation and warming, not transport, so
// the comparison runs in process.
func runFig8(g *twip.Graph, sc Scale, postBase, activePct int, pull, full bool) (time.Duration, int64, error) {
	e := core.New(core.Options{})
	joins := twip.Joins
	if pull {
		joins = "t|<user>|<time:10>|<poster> = pull check s|<user>|<poster> copy p|<poster>|<time:10>"
	}
	if err := e.InstallText(joins); err != nil {
		return 0, 0, err
	}
	// Subscription graph (base data).
	for u := 0; u < g.Users; u++ {
		uid := twip.UserID(int32(u))
		for _, p := range g.Following[u] {
			e.Put(keys.Join("s", uid, twip.UserID(p)), "1")
		}
	}
	// Historical posts, distributed log-proportionally (§5.3).
	hist := twip.GeneratePosts(g, postBase, sc.seedAt(7), sc.TweetLen)
	for _, op := range hist {
		e.Put(keys.Join("p", twip.UserID(op.User), twip.TimeID(op.Time)), op.Text)
	}

	rng := rand.New(rand.NewSource(sc.seedAt(11)))
	nActive := g.Users * activePct / 100
	if nActive < 1 {
		nActive = 1
	}
	active := make([]int32, nActive)
	for i, u := range rng.Perm(g.Users)[:nActive] {
		active[i] = int32(u)
	}

	if full {
		// Full materialization: every timeline (active or not) is
		// computed up front and kept up to date — "inevitably uses more
		// memory when users can be inactive" (§5.3). Warming is part of
		// the strategy's cost and is included in the runtime, matching
		// run-to-completion measurement.
	}

	// Timed phase: postBase new posts + p × postBase checks, uniformly
	// across active users — §5.3's "check:post ratio between 1:1 and
	// 100:1" as p sweeps 1..100.
	newPosts := twip.GeneratePosts(g, postBase, sc.seedAt(13), sc.TweetLen)
	for i := range newPosts {
		newPosts[i].Time += int64(postBase) // after history
	}
	nChecks := postBase * activePct
	lastCheck := make(map[int32]int64, nActive)

	start := time.Now()
	if full {
		for u := 0; u < g.Users; u++ {
			uid := twip.UserID(int32(u))
			e.Scan("t|"+uid+"|", keys.PrefixEnd("t|"+uid+"|"), 0)
		}
	}
	ci, pi := 0, 0
	clock := int64(postBase)
	for ci < nChecks || pi < len(newPosts) {
		// Interleave: p checks per post keeps the ratio steady.
		doChecks := activePct
		if doChecks < 1 {
			doChecks = 1
		}
		for k := 0; k < doChecks && ci < nChecks; k++ {
			u := active[ci%nActive]
			uid := twip.UserID(u)
			lo := keys.Join("t", uid, twip.TimeID(lastCheck[u]))
			e.Scan(lo, keys.RangeEnd("t", uid), 0)
			lastCheck[u] = clock
			ci++
		}
		if pi < len(newPosts) {
			op := newPosts[pi]
			clock = op.Time
			e.Put(keys.Join("p", twip.UserID(op.User), twip.TimeID(op.Time)), op.Text)
			pi++
		}
	}
	return time.Since(start), e.Store().Bytes(), nil
}
