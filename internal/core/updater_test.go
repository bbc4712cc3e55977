package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pequod/internal/interval"
	"pequod/internal/keys"
)

// The join sets of the Twip and Newp applications, as twip.Joins,
// twip.CelebrityJoins and newp.InterleavedJoins spell them (those
// packages sit above core, so a core test cannot import them).
const (
	twipJoins = "t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>"

	celebrityJoins = `
  ct|<time:10>|<poster> = copy cp|<poster>|<time:10>;
  t|<user>|<time:10>|<poster> = check s|<user>|<poster> copy p|<poster>|<time:10>;
  t|<user>|<time:10>|<poster> = pull copy ct|<time:10>|<poster> check s|<user>|<poster>
`
)

// twipSession drives a Twip engine in the paper's mix, posts raised so
// that updaters fire: logins and checks read timelines from a time on,
// as twip.PequodBackend.Check does, subscribes and posts write, in time
// order. Posters below celebs post to cp| (the celebrity join set's pull
// path) instead of p|.
func twipSession(e *Engine, rng *rand.Rand, celebs int) {
	const users, ops = 200, 6000
	user := func(i int) string { return fmt.Sprintf("u%05d", i) }
	for u := 0; u < users; u++ {
		for f := 0; f < 8; f++ {
			e.Put("s|"+user(u)+"|"+user(rng.Intn(users)), "1")
		}
	}
	seen := make([]int, users) // each user's last read
	for now := 1; now <= ops; now++ {
		u := rng.Intn(users)
		switch k := rng.Intn(100); {
		case k < 70: // login (from time 0) or check (from the last read)
			if k < 5 {
				seen[u] = 0
			}
			e.Scan(fmt.Sprintf("t|%s|%010d", user(u), seen[u]), "t|"+user(u)+"}", 0)
			seen[u] = now
		case k < 80:
			e.Put("s|"+user(u)+"|"+user(rng.Intn(users)), "1")
		case u < celebs:
			e.Put(fmt.Sprintf("cp|%s|%010d", user(u), now), "a celebrity tweet")
		default:
			e.Put(fmt.Sprintf("p|%s|%010d", user(u), now), "a tweet")
		}
	}
}

// newpSession writes articles, comments and votes and reads pages.
func newpSession(e *Engine, rng *rand.Rand) {
	const users, articles, ops = 60, 120, 6000
	art := func(i int) string { return fmt.Sprintf("n%06d|a%07d", i%users, i) }
	for a := 0; a < articles; a++ {
		e.Put("article|"+art(a), "a story")
	}
	for op := 0; op < ops; op++ {
		a, who := rng.Intn(articles), fmt.Sprintf("n%06d", rng.Intn(users))
		switch k := rng.Intn(100); {
		case k < 40:
			e.Scan("page|"+art(a)+"|", "page|"+art(a)+"}", 0)
		case k < 60:
			e.Put(fmt.Sprintf("comment|%s|c%08d|%s", art(a), op, who), "a comment")
		default:
			e.Put("vote|"+art(a)+"|"+who, "1")
		}
	}
}

// checkUpdaters holds the updater bookkeeping to what a recount finds:
// every indexed updater has a live context and counts exactly the
// contexts of attached statuses, at least half its contexts are live,
// and every attached status's stakes count its own contexts, each in an
// updater that is still indexed.
func checkUpdaters(t testing.TB, e *Engine) {
	t.Helper()
	indexed := map[*Updater]bool{}
	e.updaters.Overlap("", "", func(en *interval.Entry[*Updater]) bool {
		u, live := en.Val, 0
		indexed[u] = true
		for _, c := range u.contexts {
			if c.js.valid {
				live++
			}
		}
		if u.entry != en || u.live != live || live == 0 || len(u.contexts) > 2*live {
			t.Fatalf("updater %s counts %d live of %d contexts; a recount finds %d", en.Range(), u.live, len(u.contexts), live)
		}
		return true
	})
	for _, ij := range e.joins {
		ij.status.all(func(st *JoinStatus) {
			for _, s := range st.updaters {
				n := 0
				for _, c := range s.u.contexts {
					if c.js == st {
						n++
					}
				}
				if !st.valid || s.n != n || n > 0 && !indexed[s.u] {
					t.Fatalf("status %s (valid %v) holds %d contexts in updater %s, counts %d; indexed %v",
						st.r, st.valid, n, s.u.entry.Range(), s.n, indexed[s.u])
				}
			}
		})
	}
}

// TestUpdaterIndexDoesNoWastedWork runs the Twip, celebrity-Twip and
// Newp join sets at test scale and counts the updater entries a stab
// opens whose range does not hold the key: the index must waste none.
// It logs each join set's bucket-length histogram.
func TestUpdaterIndexDoesNoWastedWork(t *testing.T) {
	for _, c := range []struct {
		name, joins string
		run         func(e *Engine, rng *rand.Rand)
	}{
		{"twip", twipJoins, func(e *Engine, rng *rand.Rand) { twipSession(e, rng, 0) }},
		{"celebrity", celebrityJoins, func(e *Engine, rng *rand.Rand) { twipSession(e, rng, 10) }},
		{"newp", newpJoins, newpSession},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New(Options{})
			if err := e.InstallText(c.joins); err != nil {
				t.Fatal(err)
			}
			c.run(e, rand.New(rand.NewSource(1)))
			checkUpdaters(t, e)
			sizes, err := e.updaters.Check()
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.UpdaterFires == 0 {
				t.Fatal("no updater fired; the session exercises nothing")
			}
			t.Logf("%d updaters (%d installed, %d merged, %d fires); buckets by length %v",
				e.updaters.Len(), st.UpdatersInstalled, st.UpdatersMerged, st.UpdaterFires, sizes)
			if m := e.updaters.Misses(); m != 0 {
				e.updaters.Overlap("", "", func(en *interval.Entry[*Updater]) bool {
					t.Logf("updater %s (%d contexts)", en.Range(), len(en.Val.contexts))
					return true
				})
				t.Fatalf("stabs opened %d updaters whose range missed the key", m)
			}
		})
	}
}

// BenchmarkBoundedCheck times bounded checks — timeline scans from a
// lower bound T — on dropped timelines, as a cache that evicts serves
// them. 2 000 users each follow 4 of 20 shared posters, and the even
// users' timelines are resident, each computed from its own T, so each
// poster's bucket in the updater index holds about 180 ranges
// [p|poster|T, p|poster}). Each timed check of an odd user installs its
// 4 updaters among them; the timeline is dropped again outside the
// timer, deleting them. It reports the entries each exact lookup of the
// index (find, insert or delete) examines.
func BenchmarkBoundedCheck(b *testing.B) {
	const users, posters, follows, posts = 2000, 20, 4, 50
	e := New(Options{})
	if err := e.InstallText(timelineJoin); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	poster := func(p int) string { return fmt.Sprintf("q%03d", p) }
	for u := 0; u < users; u++ {
		for _, p := range rng.Perm(posters)[:follows] {
			e.Put("s|"+uid(u)+"|"+poster(p), "1")
		}
	}
	at := 0
	for n := 0; n < posts; n++ {
		for p := 0; p < posters; p++ {
			at++
			e.Put(fmt.Sprintf("p|%s|%010d", poster(p), at), "a tweet of ordinary length, more or less")
		}
	}
	check := func(u int) keys.Range {
		return keys.Range{Lo: fmt.Sprintf("t|%s|%010d", uid(u), rng.Intn(at)), Hi: "t|" + uid(u) + "}"}
	}
	var buf []KV
	for u := 0; u < users; u += 2 {
		r := check(u)
		buf, _ = e.ScanInto(r.Lo, r.Hi, 0, buf)
	}
	rs := make([]keys.Range, users/2)
	for i := range rs {
		rs[i] = check(2*i + 1)
	}
	ops, examined := e.updaters.Exact()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rs[i%len(rs)]
		buf, _ = e.ScanInto(r.Lo, r.Hi, 0, buf)
		b.StopTimer()
		e.DropRange(r)
		b.StartTimer()
	}
	b.StopTimer()
	o, x := e.updaters.Exact()
	b.ReportMetric(float64(x-examined)/float64(o-ops), "examined/lookup")
}
