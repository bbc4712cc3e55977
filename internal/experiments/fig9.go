package experiments

import (
	"fmt"
	"io"
	"time"

	"pequod/internal/newp"
)

// Fig9Row is one point of the Figure 9 sweep: runtime of a Newp page
// strategy at a given vote rate.
type Fig9Row struct {
	Strategy string
	VoteRate int // percent
	Runtime  time.Duration
}

// Fig9 compares Newp cache-join choices (§5.4): interleaved joins (one
// scan per article page) versus separate aggregate ranges (many gets in
// two round trips), across vote rates. "We expect the interleaved
// approach to perform well when article reads far outnumber votes."
func Fig9(sc Scale, voteRates []int, out io.Writer) ([]Fig9Row, error) {
	users := fig9Users(sc.Users)
	fprintf(out, "Figure 9: Newp cache-join choice (scale=%s: %d users, %d articles, %d sessions/run)\n",
		sc.Name, users, users*2, sc.Sessions)
	fprintf(out, "%-16s %8s %12s\n", "Strategy", "vote%", "Runtime")

	type strat struct {
		name  string
		joins string
		mk    func(c *cluster) newp.Backend
	}
	strategies := []strat{
		{"Interleaved", newp.InterleavedJoins,
			func(c *cluster) newp.Backend { return &newp.Interleaved{C: c.clients[0]} }},
		{"Non-interleaved", newp.AggregateJoins,
			func(c *cluster) newp.Backend { return &newp.NonInterleaved{C: c.clients[0]} }},
	}

	var rows []Fig9Row
	for _, s := range strategies {
		for _, vr := range voteRates {
			cl, err := startPequodCluster(1, s.joins, pequodServerDefaults())
			if err != nil {
				return nil, err
			}
			b := s.mk(cl)
			d := fig9Dataset(users, sc.seedAt(5))
			if err := d.Populate(b); err != nil {
				cl.Close()
				return nil, fmt.Errorf("%s: populate: %w", s.name, err)
			}
			ops := d.Sessions(sc.Sessions, float64(vr)/100, sc.seedAt(9))
			// Warm the page/aggregate ranges so the timed phase measures
			// steady-state reads + maintenance, as the paper's
			// long-running sessions do.
			if _, err := newp.RunSessions(b, ops[:min(len(ops), 200)], sc.Workers); err != nil {
				cl.Close()
				return nil, err
			}
			start := time.Now()
			if _, err := newp.RunSessions(b, ops, sc.Workers); err != nil {
				cl.Close()
				return nil, fmt.Errorf("%s at %d%%: %w", s.name, vr, err)
			}
			runtime := time.Since(start)
			cl.Close()
			rows = append(rows, Fig9Row{s.name, vr, runtime})
			fprintf(out, "%-16s %7d%% %11.3fs\n", s.name, vr, runtime.Seconds())
		}
	}
	return rows, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fig9Users scales the Newp population from the Twip scale (§5.4 ran
// 50K users against Twip's 1.8M; half the scale's user count keeps the
// same spirit), with a floor that keeps tiny scales runnable.
func fig9Users(scaleUsers int) int {
	users := scaleUsers / 2
	if users < 20 {
		users = 20
	}
	return users
}

// fig9Dataset applies the §5.4 dataset ratios — 100K articles : 50K
// users : 1M comments : 2M votes = 2 : 1 : 20 : 40 per user. The 20
// comments/user ratio drives the karma fan-out that makes interleaving
// expensive at high vote rates (each vote copies the commenter's karma
// into every page they commented on).
func fig9Dataset(users int, seed int64) *newp.Dataset {
	return &newp.Dataset{
		Users:    users,
		Articles: users * 2,
		Comments: users * 20,
		Votes:    users * 40,
		Seed:     seed,
	}
}
