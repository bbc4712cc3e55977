package experiments

import (
	"io"
	"sort"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/twip"
)

// CelebrityRow reports one configuration of the §2.3 celebrity-join
// comparison.
type CelebrityRow struct {
	Config      string
	Runtime     time.Duration
	Bytes       int64
	Celebrities int
}

// Celebrity reproduces the §2.3/§5.2 claim: "In our tests, celebrity
// timelines don't offer performance advantages, but they do save
// memory." The same workload runs with (a) the plain timeline join, all
// posts eagerly copied into followers' timelines, and (b) the celebrity
// join set, where the most-followed users' posts live in cp|/ct| and
// reach timelines through a pull join at read time, never materialized.
func Celebrity(sc Scale, out io.Writer) ([]CelebrityRow, error) {
	g := twip.Generate(sc.Users, sc.Edges, sc.seedAt(42))
	// Celebrities: the top 1% most-followed users (at least 1).
	type uc struct {
		u int32
		n int
	}
	byFollowers := make([]uc, g.Users)
	for u := 0; u < g.Users; u++ {
		byFollowers[u] = uc{int32(u), len(g.Followers[u])}
	}
	sort.Slice(byFollowers, func(i, j int) bool { return byFollowers[i].n > byFollowers[j].n })
	nCeleb := g.Users / 100
	if nCeleb < 1 {
		nCeleb = 1
	}
	isCeleb := map[int32]bool{}
	for _, c := range byFollowers[:nCeleb] {
		isCeleb[c.u] = true
	}

	hist := twip.GeneratePosts(g, sc.Posts, sc.seedAt(7), sc.TweetLen)

	run := func(name string, joins string, celebSplit bool) (CelebrityRow, error) {
		e := core.New(core.Options{})
		if err := e.InstallText(joins); err != nil {
			return CelebrityRow{}, err
		}
		for u := 0; u < g.Users; u++ {
			uid := twip.UserID(int32(u))
			for _, p := range g.Following[u] {
				e.Put(keys.Join("s", uid, twip.UserID(p)), "1")
			}
		}
		for _, op := range hist {
			table := "p"
			if celebSplit && isCeleb[op.User] {
				table = "cp"
			}
			e.Put(keys.Join(table, twip.UserID(op.User), twip.TimeID(op.Time)), op.Text)
		}
		start := time.Now()
		// Everyone logs in (materializing timelines), then a round of
		// incremental checks.
		for u := 0; u < g.Users; u++ {
			uid := twip.UserID(int32(u))
			e.Scan("t|"+uid+"|", keys.RangeEnd("t", uid), 0)
		}
		for u := 0; u < g.Users; u++ {
			uid := twip.UserID(int32(u))
			e.Scan(keys.Join("t", uid, twip.TimeID(int64(sc.Posts/2))), keys.RangeEnd("t", uid), 0)
		}
		return CelebrityRow{
			Config:      name,
			Runtime:     time.Since(start),
			Bytes:       e.Store().Bytes(),
			Celebrities: nCeleb,
		}, nil
	}

	fprintf(out, "Celebrity joins (§2.3): %d celebrities among %d users\n", nCeleb, g.Users)
	var rows []CelebrityRow
	a, err := run("regular join", twip.Joins, false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, a)
	b, err := run("celebrity joins", twip.CelebrityJoins, true)
	if err != nil {
		return nil, err
	}
	rows = append(rows, b)
	for _, r := range rows {
		fprintf(out, "  %-16s %11.3fs %14d bytes\n", r.Config, r.Runtime.Seconds(), r.Bytes)
	}
	fprintf(out, "  memory saved by celebrity joins: %.2fx\n",
		float64(rows[0].Bytes)/float64(rows[1].Bytes))
	return rows, nil
}
