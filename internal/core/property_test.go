package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"pequod/internal/keys"
	"pequod/internal/pattern"
)

// These tests check the system's central theorem: after ANY interleaving
// of base writes, subscription changes, scans, and evictions, a push
// join's materialized output equals a from-scratch recomputation of the
// join over current base data. Eager maintenance, lazy invalidation logs,
// updater merging/compression, and eviction must all be invisible.

// twipModel recomputes the timeline join naively.
type twipModel struct {
	subs  map[string]map[string]bool // user -> poster set
	posts map[string]map[string]string
}

func newTwipModel() *twipModel {
	return &twipModel{subs: map[string]map[string]bool{}, posts: map[string]map[string]string{}}
}

func (m *twipModel) subscribe(u, p string) {
	if m.subs[u] == nil {
		m.subs[u] = map[string]bool{}
	}
	m.subs[u][p] = true
}

func (m *twipModel) unsubscribe(u, p string) { delete(m.subs[u], p) }

func (m *twipModel) post(p, ts, v string) {
	if m.posts[p] == nil {
		m.posts[p] = map[string]string{}
	}
	m.posts[p][ts] = v
}

func (m *twipModel) unpost(p, ts string) { delete(m.posts[p], ts) }

// timeline computes the expected scan of [lo, hi) over the t table.
func (m *twipModel) timeline(lo, hi string) []KV {
	var out []KV
	for u, posters := range m.subs {
		for p := range posters {
			for ts, v := range m.posts[p] {
				k := keys.Join("t", u, ts, p)
				if (keys.Range{Lo: lo, Hi: hi}).Contains(k) {
					out = append(out, KV{k, v})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func compareKVs(t *testing.T, step int, got, want []KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: got %d kvs, want %d\n got: %v\nwant: %v", step, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: kv[%d] = %v, want %v", step, i, got[i], want[i])
		}
	}
}

func runTwipSoak(t *testing.T, seed int64, opts Options, steps int) {
	runTwipSoakJoin(t, seed, opts, steps, timelineJoin)
}

func runTwipSoakJoin(t *testing.T, seed int64, opts Options, steps int, joinSpec string) {
	rng := rand.New(rand.NewSource(seed))
	e := New(opts)
	if err := e.InstallText(joinSpec); err != nil {
		t.Fatal(err)
	}
	m := newTwipModel()

	users := []string{"u00", "u01", "u02", "u03", "u04", "u05"}
	posters := []string{"a00", "a01", "a02", "a03"}
	times := func() string { return fmt.Sprintf("%04d", rng.Intn(200)) }

	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0, 1: // subscribe
			u, p := users[rng.Intn(len(users))], posters[rng.Intn(len(posters))]
			e.Put(keys.Join("s", u, p), "1")
			m.subscribe(u, p)
		case 2: // unsubscribe
			u, p := users[rng.Intn(len(users))], posters[rng.Intn(len(posters))]
			e.Remove(keys.Join("s", u, p))
			m.unsubscribe(u, p)
		case 3, 4, 5, 6: // post (insert or overwrite)
			p, ts := posters[rng.Intn(len(posters))], times()
			v := fmt.Sprintf("v%d", step)
			e.Put(keys.Join("p", p, ts), v)
			m.post(p, ts, v)
		case 7: // delete post
			p, ts := posters[rng.Intn(len(posters))], times()
			e.Remove(keys.Join("p", p, ts))
			m.unpost(p, ts)
		case 8, 9, 10: // user timeline scan
			u := users[rng.Intn(len(users))]
			lo, hi := "t|"+u+"|", keys.PrefixEnd("t|"+u+"|")
			if rng.Intn(3) == 0 { // random time subrange
				lo = keys.Join("t", u, times())
				hi = keys.Join("t", u, times())
				if hi < lo {
					lo, hi = hi, lo
				}
			}
			got, pending := e.Scan(lo, hi, 0)
			if pending != 0 {
				t.Fatalf("step %d: pending=%d without a loader", step, pending)
			}
			compareKVs(t, step, got, m.timeline(lo, hi))
		default: // cross-timeline scan
			lo := "t|" + users[rng.Intn(len(users))]
			hi := "t|" + users[rng.Intn(len(users))]
			if hi < lo {
				lo, hi = hi, lo
			}
			got, _ := e.Scan(lo, hi, 0)
			compareKVs(t, step, got, m.timeline(lo, hi))
		}
		if step%100 == 0 {
			checkUpdaters(t, e)
		}
	}
	checkUpdaters(t, e)
	// Final full-table check.
	got, _ := e.Scan("t|", "t}", 0)
	compareKVs(t, steps, got, m.timeline("t|", "t}"))
}

func TestTimelinePushEqualsRecompute(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runTwipSoak(t, seed, Options{}, 4000)
		})
	}
}

func TestTimelinePushEqualsRecomputeNoOptimizations(t *testing.T) {
	// The §4 optimizations must be semantically invisible.
	runTwipSoak(t, 99, Options{DisableOutputHints: true, DisableValueSharing: true}, 3000)
}

func TestTimelinePushEqualsRecomputeUnderEviction(t *testing.T) {
	// Eviction discards cache, never truth (§2.5).
	runTwipSoak(t, 7, Options{MemLimit: 16 * 1024}, 3000)
}

// TestAggregatePushEqualsRecompute soaks the karma count join.
func TestAggregatePushEqualsRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := New(Options{})
	if err := e.InstallText("karma|<author> = count vote|<author>|<id>|<voter>"); err != nil {
		t.Fatal(err)
	}
	votes := map[string]bool{} // full vote key set
	authors := []string{"w", "x", "y", "z"}
	voteKey := func() string {
		return keys.Join("vote", authors[rng.Intn(len(authors))],
			fmt.Sprintf("a%02d", rng.Intn(12)), fmt.Sprintf("u%02d", rng.Intn(10)))
	}
	expected := func() []KV {
		counts := map[string]int{}
		for k := range votes {
			counts["karma|"+keys.Split(k)[1]]++
		}
		var out []KV
		for k, n := range counts {
			out = append(out, KV{k, fmt.Sprint(n)})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	for step := 0; step < 6000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			k := voteKey()
			e.Put(k, "1")
			votes[k] = true
		case 5, 6:
			k := voteKey()
			e.Remove(k)
			delete(votes, k)
		case 7:
			a := authors[rng.Intn(len(authors))]
			got, _, _ := e.Get("karma|" + a)
			n := 0
			for k := range votes {
				if keys.Split(k)[1] == a {
					n++
				}
			}
			want := ""
			if n > 0 {
				want = fmt.Sprint(n)
			}
			if got != want {
				t.Fatalf("step %d: karma|%s = %q, want %q", step, a, got, want)
			}
		default:
			got, _ := e.Scan("karma|", "karma}", 0)
			compareKVs(t, step, got, expected())
		}
	}
	for _, op := range []string{"count", "sum", "min", "max"} {
		t.Run("check "+op, func(t *testing.T) { aggregateOverCheck(t, op) })
	}
}

// aggregateOverCheck is TestAggregatePushEqualsRecompute for an
// aggregate with a check source, k|<a> = check m|<a> <op> v|<a>|<id>:
// an eager delta of the value source must fold in only while m|<a>
// holds. Fresh reads after random writes to both tables equal a
// recompute. Then m|<a> goes and new v rows arrive: the removal waits
// in the check source's lazy log, so a read with an hour's budget may
// serve the value from before it, or nothing — never one folding in
// rows the removal had already excluded.
func aggregateOverCheck(t *testing.T, op string) {
	rng := rand.New(rand.NewSource(29))
	e := New(Options{})
	if err := e.InstallText("k|<a> = check m|<a> " + op + " v|<a>|<id>"); err != nil {
		t.Fatal(err)
	}
	authors := []string{"a", "b", "c"}
	marks := map[string]bool{}
	vals := map[string]map[string]int{} // author -> id -> value
	for _, a := range authors {
		vals[a] = map[string]int{}
	}
	want := func(a string) string {
		if !marks[a] || len(vals[a]) == 0 {
			return ""
		}
		n, sum, lo, hi := 0, 0, math.MaxInt, 0
		for _, v := range vals[a] {
			n, sum, lo, hi = n+1, sum+v, min(lo, v), max(hi, v)
		}
		return fmt.Sprint(map[string]int{"count": n, "sum": sum, "min": lo, "max": hi}[op])
	}
	read := func(step int, a string) string {
		got, _, _ := e.Get("k|" + a)
		if w := want(a); got != w {
			t.Fatalf("step %d: k|%s = %q, want %q", step, a, got, w)
		}
		return got
	}
	for step := 0; step < 3000; step++ {
		a := authors[rng.Intn(len(authors))]
		id := fmt.Sprintf("%02d", rng.Intn(8))
		switch rng.Intn(10) {
		case 0:
			e.Put("m|"+a, "1")
			marks[a] = true
		case 1:
			e.Remove("m|" + a)
			delete(marks, a)
		case 2, 3, 4:
			v := 2 + rng.Intn(40)
			e.Put(keys.Join("v", a, id), fmt.Sprint(v))
			vals[a][id] = v
		case 5:
			e.Remove(keys.Join("v", a, id))
			delete(vals[a], id)
		default:
			read(step, a)
		}
	}
	for _, a := range authors {
		e.Put("m|"+a, "1")
		e.Put(keys.Join("v", a, "00"), "5")
		marks[a], vals[a]["00"] = true, 5
		before := read(-1, a)
		e.Remove("m|" + a)
		e.Put(keys.Join("v", a, "new1"), "1")
		e.Put(keys.Join("v", a, "new2"), "100")
		if got, ok, _ := e.GetBounded(pattern.PointRange("k|"+a), time.Hour); ok && got != before {
			t.Fatalf("k|%s within an hour's budget = %q, want %q from before m|%s went, or nothing", a, got, before, a)
		}
		delete(marks, a)
		read(-1, a)
	}
}

// TestNewpInterleavedEqualsRecompute soaks the full Fig 1 join set,
// including the two-hop karma cascade.
func TestNewpInterleavedEqualsRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := New(Options{})
	if err := e.InstallText(newpJoins); err != nil {
		t.Fatal(err)
	}
	authors := []string{"aa", "bb", "cc"}
	articles := map[string]string{}           // author|id -> text
	comments := map[string]string{}           // author|id|cid|commenter -> text
	votes := map[string]bool{}                // author|id|voter
	users := []string{"aa", "bb", "cc", "dd"} // commenters/voters

	karma := func(u string) int {
		n := 0
		for v := range votes {
			if keys.Split(v)[0] == u {
				n++
			}
		}
		return n
	}
	expectedPage := func(author, id string) []KV {
		var out []KV
		pfx := keys.Join("page", author, id)
		if txt, ok := articles[author+"|"+id]; ok {
			out = append(out, KV{pfx + "|a", txt})
		}
		rank := 0
		for v := range votes {
			p := keys.Split(v)
			if p[0] == author && p[1] == id {
				rank++
			}
		}
		if rank > 0 {
			out = append(out, KV{pfx + "|r", fmt.Sprint(rank)})
		}
		for ck, txt := range comments {
			p := keys.Split(ck)
			if p[0] == author && p[1] == id {
				out = append(out, KV{keys.Join(pfx, "c", p[2], p[3]), txt})
				if k := karma(p[3]); k > 0 {
					out = append(out, KV{keys.Join(pfx, "k", p[2], p[3]), fmt.Sprint(k)})
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}

	for step := 0; step < 4000; step++ {
		author := authors[rng.Intn(len(authors))]
		id := fmt.Sprintf("%02d", rng.Intn(4))
		switch rng.Intn(10) {
		case 0:
			txt := fmt.Sprintf("art%d", step)
			e.Put(keys.Join("article", author, id), txt)
			articles[author+"|"+id] = txt
		case 1, 2:
			cid := fmt.Sprintf("c%02d", rng.Intn(6))
			commenter := users[rng.Intn(len(users))]
			txt := fmt.Sprintf("cm%d", step)
			e.Put(keys.Join("comment", author, id, cid, commenter), txt)
			comments[keys.Join(author, id, cid, commenter)] = txt
		case 3, 4, 5:
			voter := users[rng.Intn(len(users))]
			e.Put(keys.Join("vote", author, id, voter), "1")
			votes[keys.Join(author, id, voter)] = true
		case 6:
			voter := users[rng.Intn(len(users))]
			e.Remove(keys.Join("vote", author, id, voter))
			delete(votes, keys.Join(author, id, voter))
		default:
			lo := keys.Join("page", author, id) + "|"
			got, _ := e.Scan(lo, keys.PrefixEnd(lo), 0)
			compareKVs(t, step, got, expectedPage(author, id))
		}
	}
}

// TestScanDeterminism: scanning twice in a row returns identical results
// (materialization is idempotent) — via testing/quick over range choices.
func TestScanDeterminism(t *testing.T) {
	e := New(Options{})
	if err := e.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 50; i++ {
		e.Put(fmt.Sprintf("s|u%02d|a%02d", rng.Intn(10), rng.Intn(5)), "1")
		e.Put(fmt.Sprintf("p|a%02d|%04d", rng.Intn(5), rng.Intn(100)), "x")
	}
	f := func(a, b uint8) bool {
		lo := fmt.Sprintf("t|u%02d", a%12)
		hi := fmt.Sprintf("t|u%02d", b%12)
		if hi < lo {
			lo, hi = hi, lo
		}
		first, _ := e.Scan(lo, hi, 0)
		second, _ := e.Scan(lo, hi, 0)
		if len(first) != len(second) {
			return false
		}
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
