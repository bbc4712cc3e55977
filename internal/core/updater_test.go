package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pequod/internal/interval"
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
