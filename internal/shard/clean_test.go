package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pequod/internal/core"
)

// cleanReads sums the reads the pool's engines served clean, under the
// shared lock.
func cleanReads(p *Pool) (n int64) {
	for i := range p.NumShards() {
		p.Shard(i).WithEngine(func(e *core.Engine) { n += e.CleanReads() })
	}
	return n
}

// readAs renders what one read form returns for key or [lo, hi).
func readAs(t *testing.T, p *Pool, form, key, lo, hi string) string {
	t.Helper()
	switch form {
	case "Get":
		v, ok, err := p.GetBounded(key, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%q %v", v, ok)
	case "Scan":
		kvs, err := p.ScanBounded(lo, hi, 0, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(kvs)
	default:
		n, err := p.CountBounded(lo, hi, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(n)
	}
}

// TestCleanReadInvalidation: every event that leaves a read something
// to compute sends it to the exclusive step, and the read returns what
// a pool without the shared attempt returns. Each row warms a range,
// applies its event to twin pools — one with the shared attempt, one
// without — and reads the range by every form on both: the first must
// serve no clean read, and the answers must match. Where the read
// leaves the range clean, the next read is served shared, and still
// matches.
func TestCleanReadInvalidation(t *testing.T) {
	const timeline = timelineJoin
	clock := time.Unix(1000, 0)
	rows := []struct {
		name  string
		cfg   Config
		gated bool
		joins string
		// event runs after the warm-up read of [lo, hi) and before the
		// read that must go exclusive.
		event  func(p *Pool)
		key    string // the Get form's key, inside [lo, hi)
		lo, hi string
		warm   string // the table warmed for ann, when not [lo, hi)'s
		stays  bool   // the range never reads clean
	}{
		{name: "a subscribe's lazy log", joins: timeline,
			event: func(p *Pool) { p.Put("p|liz|150", "Yo"); p.Put("s|ann|liz", "1") },
			key:   "t|ann|150|liz", lo: "t|ann|", hi: "t|ann}"},
		{name: "a dirty span", joins: "n|<user>|<poster> = eager check s|<user>|<poster> count p|<poster>|<time>",
			event: func(p *Pool) { p.Put("p|liz|150", "Yo"); p.Put("s|ann|liz", "1") },
			key:   "n|ann|liz", lo: "n|ann|", hi: "n|ann}"},
		{name: "an expired snapshot", joins: "snap|<user>|<time>|<poster> = snapshot 30 check s|<user>|<poster> copy p|<poster>|<time>",
			cfg: Config{Engine: core.Options{Clock: func() time.Time { return clock }}},
			event: func(p *Pool) {
				p.Put("p|bob|100", "edited")
				clock = clock.Add(31 * time.Second)
			},
			key: "snap|ann|100|bob", lo: "snap|ann|", hi: "snap|ann}"},
		{name: "a coverage gap", joins: timeline, warm: "t",
			event: func(p *Pool) { p.Put("s|cat|bob", "1") },
			key:   "t|cat|100|bob", lo: "t|", hi: "t}"},
		{name: "a pull join", joins: "t|<user>|<time>|<poster> = pull check s|<user>|<poster> copy p|<poster>|<time>",
			event: func(*Pool) {}, stays: true,
			key: "t|ann|100|bob", lo: "t|ann|", hi: "t|ann}"},
		{name: "a cascaded join", joins: EquivJoins,
			event: func(*Pool) {}, stays: true,
			key: "z|ann|100|bob", lo: "z|ann|", hi: "z|ann}"},
		{name: "a status behind the LRU front under MemLimit", joins: timeline,
			cfg:   Config{Engine: core.Options{MemLimit: 1 << 20}},
			event: func(p *Pool) { p.Put("s|cat|bob", "1"); p.Scan("t|cat|", "t|cat}", 0, nil, nil) },
			key:   "t|ann|100|bob", lo: "t|ann|", hi: "t|ann}"},
		{name: "a gated pool", joins: timeline, gated: true,
			event: func(*Pool) {}, stays: true,
			key: "t|ann|100|bob", lo: "t|ann|", hi: "t|ann}"},
	}
	for _, row := range rows {
		for _, form := range []string{"Get", "Scan", "Count"} {
			t.Run(row.name+"/"+form, func(t *testing.T) {
				var twins [2]*Pool
				for i := range twins {
					if row.gated {
						twins[i] = gatedPool(t, 1, []string{"a:1", "a:2"}) // owns [m, +inf)
					} else {
						twins[i] = newPool(t, row.cfg)
					}
					p := twins[i]
					p.exclusiveReads = i == 1
					if err := p.InstallText(row.joins); err != nil {
						t.Fatal(err)
					}
					p.Put("s|ann|bob", "1")
					p.Put("p|bob|100", "Hi")
					if row.warm != "" {
						p.Scan(row.warm+"|ann|", row.warm+"|ann}", 0, nil, nil)
					} else {
						p.Scan(row.lo, row.hi, 0, nil, nil)
					}
					row.event(p)
				}
				shared, excl := twins[0], twins[1]
				before := cleanReads(shared)
				got, want := readAs(t, shared, form, row.key, row.lo, row.hi), readAs(t, excl, form, row.key, row.lo, row.hi)
				if n := cleanReads(shared) - before; n != 0 {
					t.Fatalf("the read after the event took the shared path (%d clean reads)", n)
				}
				if got != want {
					t.Fatalf("read = %s, exclusive step read %s", got, want)
				}
				got, want = readAs(t, shared, form, row.key, row.lo, row.hi), readAs(t, excl, form, row.key, row.lo, row.hi)
				if n := cleanReads(shared) - before; n != 0 == row.stays {
					t.Fatalf("the read after that served %d clean reads; want shared: %v", n, !row.stays)
				}
				if got != want {
					t.Fatalf("second read = %s, exclusive step read %s", got, want)
				}
				if n := cleanReads(excl); n != 0 {
					t.Fatalf("the pool without the shared attempt served %d clean reads", n)
				}
			})
		}
	}
}

// BenchmarkParallelCleanReads times warm incremental timeline checks —
// the newest rows of a materialized timeline, nothing to compute — run
// by GOMAXPROCS goroutines at once on a two-shard pool, with the shared
// attempt (shared) and without it (exclusive).
func BenchmarkParallelCleanReads(b *testing.B) {
	const users, follows, posts = 400, 20, 5
	user := func(i int) string { return fmt.Sprintf("u%05d", i) }
	for _, mode := range []string{"shared", "exclusive"} {
		b.Run(mode, func(b *testing.B) {
			p, err := New(Config{Bounds: []string{"t|" + user(users/2)}})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			p.exclusiveReads = mode == "exclusive"
			if err := p.InstallText(timelineJoin); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for u := range users {
				for range follows {
					p.Put("s|"+user(u)+"|"+user(rng.Intn(users)), "1")
				}
				for i := range posts {
					p.Put(fmt.Sprintf("p|%s|%010d", user(u), 100*i+u%100), "a tweet of the usual length, more or less")
				}
			}
			p.Quiesce()
			for u := range users {
				p.Scan("t|"+user(u)+"|", "t|"+user(u)+"}", 0, nil, nil)
			}
			los, his := make([]string, users), make([]string, users)
			for u := range users {
				los[u], his[u] = fmt.Sprintf("t|%s|%010d", user(u), 300), "t|"+user(u)+"}"
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				buf := make([]core.KV, 0, 64)
				for pb.Next() {
					u := rng.Intn(users)
					buf = p.Scan(los[u], his[u], 0, buf, nil)
				}
			})
		})
	}
}
