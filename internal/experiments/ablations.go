package experiments

import (
	"fmt"
	"io"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/twip"
)

// AblationRow reports one configuration of a §4 optimization ablation.
type AblationRow struct {
	Config  string
	Runtime time.Duration
	Bytes   int64
}

// runTwipEmbedded drives a Twip-like workload on an embedded engine with
// the given options, returning runtime and store bytes. mix selects the
// operation blend: the insert-path optimizations (§4.2) are measured
// under a write-heavy mix so maintenance work dominates the runtime.
func runTwipEmbedded(sc Scale, opts core.Options, mix twip.Mix) (AblationRow, error) {
	e := core.New(opts)
	if err := e.InstallText(twip.Joins); err != nil {
		return AblationRow{}, err
	}
	g := twip.Generate(sc.Users, sc.Edges, sc.seedAt(42))
	for u := 0; u < g.Users; u++ {
		uid := twip.UserID(int32(u))
		for _, p := range g.Following[u] {
			e.Put(keys.Join("s", uid, twip.UserID(p)), "1")
		}
	}
	hist := twip.GeneratePosts(g, sc.Posts, sc.seedAt(7), sc.TweetLen)
	for _, op := range hist {
		e.Put(keys.Join("p", twip.UserID(op.User), twip.TimeID(op.Time)), op.Text)
	}
	w := twip.GenerateWorkload(g, twip.WorkloadConfig{
		ActiveFraction: float64(sc.ActivePct) / 100,
		ChecksPerUser:  sc.ChecksPerUser,
		Mix:            mix,
		Seed:           sc.seedAt(44),
		StartTime:      int64(len(hist)),
		TweetLen:       sc.TweetLen,
	})

	start := time.Now()
	for _, op := range w.Ops {
		switch op.Kind {
		case twip.OpLogin, twip.OpCheck:
			uid := twip.UserID(op.User)
			lo := keys.Join("t", uid, twip.TimeID(op.Since))
			e.Scan(lo, keys.RangeEnd("t", uid), 0)
		case twip.OpSubscribe:
			e.Put(keys.Join("s", twip.UserID(op.User), twip.UserID(op.Target)), "1")
		case twip.OpPost:
			e.Put(keys.Join("p", twip.UserID(op.User), twip.TimeID(op.Time)), op.Text)
		}
	}
	return AblationRow{Runtime: time.Since(start), Bytes: e.Store().Bytes()}, nil
}

// AblationOutputHints reproduces §4.2: output hints "improve performance
// by a factor of 1.11x" by avoiding tree lookups on in-order inserts.
// Measured under a write-heavy mix, where the insert path dominates.
func AblationOutputHints(sc Scale, out io.Writer) ([]AblationRow, error) {
	return runAblationMix(sc, out, "output hints (§4.2)",
		[]ablationCase{
			{"without output hints", core.Options{DisableOutputHints: true}},
			{"with output hints", core.Options{}},
		}, writeHeavyMix)
}

// AblationValueSharing reproduces §4.3: value sharing "reduces memory
// consumption by a factor of 1.14x" on the Twip benchmark (the metric is
// bytes, not runtime).
func AblationValueSharing(sc Scale, out io.Writer) ([]AblationRow, error) {
	return runAblation(sc, out, "value sharing (§4.3)",
		[]ablationCase{
			{"without value sharing", core.Options{DisableValueSharing: true}},
			{"with value sharing", core.Options{}},
		})
}

type ablationCase struct {
	name string
	opts core.Options
}

// writeHeavyMix emphasizes the insert/maintenance path for the §4.2
// measurement (posts and subscription churn rather than scans).
var writeHeavyMix = twip.Mix{Login: 5, Check: 45, Subscribe: 20, Post: 30}

func runAblation(sc Scale, out io.Writer, title string, cases []ablationCase) ([]AblationRow, error) {
	return runAblationMix(sc, out, title, cases, twip.DefaultMix)
}

func runAblationMix(sc Scale, out io.Writer, title string, cases []ablationCase, mix twip.Mix) ([]AblationRow, error) {
	fprintf(out, "Ablation: %s (scale=%s)\n", title, sc.Name)
	var rows []AblationRow
	for _, c := range cases {
		// Best of three runs: single-process macro runtimes carry
		// scheduler/GC noise larger than some of the §4 effects.
		var row AblationRow
		for rep := 0; rep < 3; rep++ {
			r, err := runTwipEmbedded(sc, c.opts, mix)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			if rep == 0 || r.Runtime < row.Runtime {
				r.Config = c.name
				row = r
			}
		}
		rows = append(rows, row)
		fprintf(out, "  %-24s %11.3fs %14d bytes\n", c.name, row.Runtime.Seconds(), row.Bytes)
	}
	if len(rows) == 2 {
		fprintf(out, "  speedup %.2fx, memory ratio %.2fx\n",
			rows[0].Runtime.Seconds()/rows[1].Runtime.Seconds(),
			float64(rows[1].Bytes)/float64(rows[0].Bytes))
	}
	return rows, nil
}
