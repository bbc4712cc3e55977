package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/store"
)

// lruOrder lists l's owners from least to most recently used.
func lruOrder[T any](l *lruList[T], name func(T) string) []string {
	var out []string
	for en := l.back(); en != nil && en != &l.head; en = en.prev {
		out = append(out, name(en.owner))
	}
	return out
}

func statusOrder(e *Engine) []string {
	return lruOrder(&e.statusLRU, func(st *JoinStatus) string { return st.r.Lo })
}

func presOrder(e *Engine) []string {
	return lruOrder(&e.presLRU, func(pr *presRange) string { return pr.r.Lo })
}

// evictOne lowers the limit just below what the engine holds and
// enforces it: exactly the least recently used range of the class being
// evicted goes, when that range holds rows.
func evictOne(e *Engine) {
	e.opts.MemLimit = e.s.Bytes() - 1
	e.evictIfNeeded()
}

// TestEvictionOrder scripts the eviction order one rule per row: cost
// class first (computed statuses before fetched base ranges), then
// recency within each class.
func TestEvictionOrder(t *testing.T) {
	// Three timelines read in order, each over its own follow list and
	// poster: statuses ann, bob, cat; presence ranges s|x| and p|px| each.
	setup := func(t *testing.T) *coldRig {
		r := newColdRig(t, Options{}, timelineJoin)
		for _, u := range []string{"ann", "bob", "cat"} {
			r.put("s|"+u+"|p"+u, "1")
			for i := 0; i < 4; i++ {
				r.put(fmt.Sprintf("p|p%s|%04d", u, i), "post by "+u)
			}
		}
		for _, u := range []string{"ann", "bob", "cat"} {
			r.read("t|"+u+"|", "t|"+u+"}", first, nil)
		}
		if got, want := statusOrder(r.cold), []string{"t|ann|", "t|bob|", "t|cat|"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("status LRU after setup = %q, want %q", got, want)
		}
		if got, want := presOrder(r.cold), []string{"s|ann|", "p|pann|", "s|bob|", "p|pbob|", "s|cat|", "p|pcat|"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("presence LRU after setup = %q, want %q", got, want)
		}
		return r
	}
	readsLikeReference := func(t *testing.T, r *coldRig, u string) (waits int) {
		t.Helper()
		got, waits := r.read("t|"+u+"|", "t|"+u+"}", first, nil)
		want, _ := r.ref.Scan("t|"+u+"|", "t|"+u+"}", 0)
		compareKVs(t, 0, got, want)
		return waits
	}

	t.Run("statuses leave in LRU order while any is tracked", func(t *testing.T) {
		r := setup(t)
		readsLikeReference(t, r, "ann") // warm: ann becomes the most recent status
		pres := presOrder(r.cold)
		for _, want := range [][]string{{"t|cat|", "t|ann|"}, {"t|ann|"}, nil} {
			evictOne(r.cold)
			if got := statusOrder(r.cold); !reflect.DeepEqual(got, want) {
				t.Fatalf("statuses after an eviction = %q, want %q", got, want)
			}
			if got := presOrder(r.cold); !reflect.DeepEqual(got, pres) {
				t.Fatalf("a presence range left while a status was tracked: %q, want %q", got, pres)
			}
		}
		if st := r.cold.Stats(); st.Evictions != 3 || st.LoadsStarted != 6 {
			t.Fatalf("Evictions=%d LoadsStarted=%d, want 3 status evictions and no reload", st.Evictions, st.LoadsStarted)
		}
	})

	t.Run("a presence range leaves only once no status is tracked", func(t *testing.T) {
		r := setup(t)
		var seq []Change
		r.cold.SetChangeHook(func(c Change) { seq = append(seq, c) })
		r.cold.opts.MemLimit = 1 // everything must go
		r.cold.evictIfNeeded()
		if r.cold.LRULen() != 0 || r.cold.s.Len() != 0 {
			t.Fatalf("after evicting everything: %d tracked, %d rows", r.cold.LRULen(), r.cold.s.Len())
		}
		// Every computed row leaves before any fetched one, and the fetched
		// ranges leave in their LRU order.
		var order []string
		for i, c := range seq {
			computed := c.Key[0] == 't'
			if computed != (c.Op == OpRemove) || (computed && i > 0 && seq[i-1].Op == OpEvict) {
				t.Fatalf("change %d %+v out of order in %+v", i, c, seq)
			}
			if !computed && !slices.Contains(order, c.Key[:6]) {
				order = append(order, c.Key[:6])
			}
		}
		if want := []string{"s|ann|", "p|pann", "s|bob|", "p|pbob", "s|cat|", "p|pcat"}; !reflect.DeepEqual(order, want) {
			t.Fatalf("fetched ranges left in order %q, want %q", order, want)
		}
		r.cold.opts.MemLimit = 0
		if waits := readsLikeReference(t, r, "ann"); waits != 2 {
			t.Fatalf("read after the fetched ranges left waited %d times, want 2 rounds of reloads", waits)
		}

		// The presence fallback still dirties every status that read the
		// range it evicts, so the next read reloads the range and re-derives
		// what the status computed from it.
		st, _ := r.cold.joins[0].status.at("t|ann|")
		pr, _ := r.cold.presence["p"].at("p|pann|")
		r.cold.presLRU.remove(&pr.lru)
		r.cold.evictPresence(pr)
		if len(st.dirty) == 0 || !st.valid {
			t.Fatalf("status that read the evicted range: valid=%v dirty=%v", st.valid, st.dirty)
		}
		before := r.cold.Stats()
		if waits := readsLikeReference(t, r, "ann"); waits != 1 {
			t.Fatalf("read after the eviction waited %d times, want once for the reload", waits)
		}
		if after := r.cold.Stats(); after.LoadsStarted != before.LoadsStarted+1 || after.DirtyRecomputes == before.DirtyRecomputes {
			t.Fatalf("LoadsStarted %d -> %d, DirtyRecomputes %d -> %d: want one reload and a dirty recompute",
				before.LoadsStarted, after.LoadsStarted, before.DirtyRecomputes, after.DirtyRecomputes)
		}
	})

	t.Run("touching either kind reorders it only within its own list", func(t *testing.T) {
		r := setup(t)
		pres := presOrder(r.cold)
		readsLikeReference(t, r, "bob") // warm: touches bob's status and nothing fetched
		if got, want := statusOrder(r.cold), []string{"t|ann|", "t|cat|", "t|bob|"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("statuses after a warm read = %q, want %q", got, want)
		}
		if got := presOrder(r.cold); !reflect.DeepEqual(got, pres) {
			t.Fatalf("a warm status read reordered presence: %q, want %q", got, pres)
		}
		statuses := statusOrder(r.cold)
		r.cold.Scan("s|ann|", "s|ann}", 0) // a direct read of a fetched range
		if got, want := presOrder(r.cold), []string{"p|pann|", "s|bob|", "p|pbob|", "s|cat|", "p|pcat|", "s|ann|"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("presence after a direct read = %q, want %q", got, want)
		}
		if got := statusOrder(r.cold); !reflect.DeepEqual(got, statuses) {
			t.Fatalf("a presence read reordered statuses: %q, want %q", got, statuses)
		}
	})

	t.Run("LRULen counts both kinds", func(t *testing.T) {
		r := setup(t)
		if n := r.cold.LRULen(); n != 3+6 {
			t.Fatalf("LRULen = %d, want 3 statuses + 6 presence ranges", n)
		}
		evictOne(r.cold)
		if n := r.cold.LRULen(); n != 2+6 {
			t.Fatalf("LRULen after one eviction = %d, want 2 + 6", n)
		}
	})
}

// evictKeyByKey is a status eviction whose outputs leave one key at a
// time: the reference the one-cut path must match.
func evictKeyByKey(e *Engine, st *JoinStatus) {
	e.stats.Invalidations++
	e.detachStatus(st)
	var doomed []string
	e.s.Scan(st.r.Lo, st.r.Hi, func(k string, _ *store.Value) bool {
		if _, ok := st.ij.j.Out.Match(k, pattern.Binding{}); ok {
			doomed = append(doomed, k)
		}
		return true
	})
	for _, k := range doomed {
		old, _ := e.s.Remove(k)
		e.notify(Change{Op: OpRemove, Key: k, Value: old.String()})
		e.invalidateDependents(k)
	}
}

// statusState renders every status of e with its dirty spans.
func statusState(e *Engine) []string {
	var out []string
	for i, ij := range e.joins {
		ij.status.all(func(st *JoinStatus) {
			out = append(out, fmt.Sprintf("join %d [%q, %q) dirty %v", i, st.r.Lo, st.r.Hi, st.dirty))
		})
	}
	return out
}

func storeRows(e *Engine) []KV {
	var out []KV
	e.s.Scan("", "", func(k string, v *store.Value) bool {
		out = append(out, KV{k, v.String()})
		return true
	})
	return out
}

func sortedChanges(cs []Change) []Change {
	cs = slices.Clone(cs)
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Key != cs[j].Key {
			return cs[i].Key < cs[j].Key
		}
		return cs[i].Op < cs[j].Op
	})
	return cs
}

// TestEvictedOutputsLeaveAsBefore: evicting a status removes its outputs
// in one cut when nothing else lives in its range and key by key when
// another join's rows are interleaved (§2.3); either way the hook sees
// the same changes, the store ends the same, and dependents go dirty
// over the same spans as a key-by-key eviction of a twin engine.
func TestEvictedOutputsLeaveAsBefore(t *testing.T) {
	const mentions = "t|<user>|<time>|<poster>|m = check s|<user>|<poster> copy m|<poster>|<time>"
	const archive = "z|<user>|<time>|<poster> = copy t|<user>|<time>|<poster>"
	now := time.Unix(1000, 0)
	cuts, perKey := 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		joins := timelineJoin
		if seed&1 == 1 {
			joins += "\n" + mentions // interleaved into the timeline's range
		}
		if seed&2 == 2 {
			joins += "\n" + archive // a cascade over the computed table
		}
		build := func() *Engine {
			rng := rand.New(rand.NewSource(seed))
			e := New(Options{Clock: func() time.Time { return now }})
			if err := e.InstallText(joins); err != nil {
				t.Fatal(err)
			}
			users, posters := []string{"u0", "u1", "u2"}, []string{"a0", "a1", "a2", "a3"}
			for i := 0; i < 8; i++ {
				e.Put(fmt.Sprintf("s|%s|%s", users[rng.Intn(3)], posters[rng.Intn(4)]), "1")
			}
			for i := 0; i < 40; i++ {
				e.Put(fmt.Sprintf("p|%s|%03d", posters[rng.Intn(4)], rng.Intn(50)), fmt.Sprintf("post %d", i))
				e.Put(fmt.Sprintf("m|%s|%03d", posters[rng.Intn(4)], rng.Intn(50)), fmt.Sprintf("mention %d", i))
			}
			for _, u := range users {
				// Whole timelines and sub-ranges of them, so statuses of one
				// join abut and cascades read across several.
				lo, hi := rng.Intn(25), 25+rng.Intn(25)
				for _, table := range []string{"z", "t"} {
					e.Scan(fmt.Sprintf("%s|%s|%03d", table, u, lo), fmt.Sprintf("%s|%s|%03d", table, u, hi), 0)
					e.Scan(table+"|"+u+"|", table+"|"+u+"}", 0)
				}
			}
			return e
		}
		a, b := build(), build()
		var all []*JoinStatus
		for _, ij := range a.joins {
			ij.status.all(func(st *JoinStatus) { all = append(all, st) })
		}
		rng := rand.New(rand.NewSource(-seed))
		stA := all[rng.Intn(len(all))]
		idx := slices.Index(a.joins, stA.ij)
		stB, _ := b.joins[idx].status.at(stA.r.Lo)
		if stB == nil || stB.r != stA.r {
			t.Fatalf("seed %d: twin engines disagree on statuses", seed)
		}

		before := storeRows(a)
		if !slices.Equal(before, storeRows(b)) {
			t.Fatalf("seed %d: twin engines disagree on rows", seed)
		}
		var want []Change
		var rest []KV
		interleaved := false
		for _, kv := range before {
			if !stA.r.Contains(kv.Key) {
				rest = append(rest, kv)
			} else if _, ok := stA.ij.j.Out.Match(kv.Key, pattern.Binding{}); ok {
				want = append(want, Change{Op: OpRemove, Key: kv.Key, Value: kv.Value})
			} else {
				interleaved = true
				rest = append(rest, kv)
			}
		}
		if interleaved {
			perKey++
		} else if len(want) > 0 {
			cuts++
		}

		var gotA, gotB []Change
		a.SetChangeHook(func(c Change) { gotA = append(gotA, c) })
		b.SetChangeHook(func(c Change) { gotB = append(gotB, c) })
		a.invalidateStatus(stA)
		evictKeyByKey(b, stB)

		if got := sortedChanges(gotA); !slices.Equal(got, want) {
			t.Fatalf("seed %d: evicting [%q, %q) notified\n  %v\nwant\n  %v", seed, stA.r.Lo, stA.r.Hi, got, want)
		}
		if !slices.Equal(sortedChanges(gotA), sortedChanges(gotB)) {
			t.Fatalf("seed %d: changes differ from the key-by-key twin:\n  %v\n  %v", seed, gotA, gotB)
		}
		if got := storeRows(a); !slices.Equal(got, rest) {
			t.Fatalf("seed %d: rows after the eviction\n  %v\nwant\n  %v", seed, got, rest)
		}
		if !slices.Equal(storeRows(b), rest) {
			t.Fatalf("seed %d: the key-by-key twin's rows differ", seed)
		}
		if ga, gb := statusState(a), statusState(b); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("seed %d: statuses after the eviction\n  %q\nkey-by-key twin\n  %q", seed, ga, gb)
		}
		if err := a.s.Check(); err != nil {
			t.Fatalf("seed %d: store check after the cut: %v", seed, err)
		}
	}
	if cuts == 0 || perKey == 0 {
		t.Fatalf("seeds covered %d one-cut and %d key-by-key evictions; want both", cuts, perKey)
	}
}

// BenchmarkEvictStatus evicts one 300-row timeline status at 2 000
// resident statuses: the cost of letting a computed range go.
func BenchmarkEvictStatus(b *testing.B) {
	e := New(Options{})
	if err := e.InstallText(timelineJoin + "\nw|<a> = copy v|<a>"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1_999; i++ {
		k := fmt.Sprintf("%05d", i)
		e.Put("v|"+k, "x")
		e.Get("w|" + k)
	}
	for p := 0; p < 10; p++ {
		e.Put(fmt.Sprintf("s|ann|p%02d", p), "1")
		for i := 0; i < 30; i++ {
			e.Put(fmt.Sprintf("p|p%02d|%04d", p, 10*i+p), "a tweet of ordinary length, more or less")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if kvs, _ := e.Scan("t|ann|", "t|ann}", 0); len(kvs) != 300 {
			b.Fatalf("timeline has %d rows", len(kvs))
		}
		st, _ := e.joins[0].status.at("t|ann|")
		b.StartTimer()
		e.invalidateStatus(st)
	}
}

// TestHeldRangeIsNeverEvicted: a held range — a replica hold's copy —
// takes over a load in flight over it, is resident without a load,
// admits pushes, and stays out of the LRU, so a limit below it evicts
// only what can be fetched or recomputed. A clip keeps the pin on its
// sides; dropping is the only way out.
func TestHeldRangeIsNeverEvicted(t *testing.T) {
	e := New(Options{})
	ld := &recordingLoader{}
	e.SetLoader(ld, "s", "p")
	if err := e.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	e.Scan("s|ann|", "s|ann}", 0) // a load in flight over part of the copy
	copyOf := keys.Range{Lo: "p|", Hi: "t|"}
	e.Hold(copyOf)
	if _, pr := e.loadingRecord("s", ld.loads[0]); pr != nil {
		t.Fatal("the load under the hold is still in flight")
	}
	for _, k := range []string{"s|ann|bob", "p|bob|100", "p|cat|100"} {
		if !e.Tracks(k) {
			t.Fatalf("held key %s not tracked", k)
		}
		e.PutQuiet(k, "1")
	}
	e.LoadRows([]KV{{"s|ann|bob", "stale"}}) // the abandoned load lands late
	if v, _ := e.Store().Get("s|ann|bob"); v.String() != "1" {
		t.Fatalf("a late load row overwrote the held copy: %q", v.String())
	}
	loads := len(ld.loads)
	if kvs, pending := e.Scan("t|ann|", "t|ann}", 0); pending != 0 || len(kvs) != 1 || len(ld.loads) != loads {
		t.Fatalf("timeline over the held copy: %v, %d pending, %d loads started", kvs, pending, len(ld.loads)-loads)
	}
	if statuses, fetched := e.statusLRU.n, e.presLRU.n; statuses != 1 || fetched != 0 {
		t.Fatalf("LRU tracks %d statuses and %d fetched ranges, want 1 and 0", statuses, fetched)
	}
	e.opts.MemLimit = 1
	e.evictIfNeeded()
	if e.LRULen() != 0 || e.s.Len() != 3 {
		t.Fatalf("under a limit below the copy: %d ranges tracked, %d rows kept; want 0, the 3 held", e.LRULen(), e.s.Len())
	}
	e.DropRange(keys.Range{Lo: "p|bob|", Hi: "p|bob}"})
	if _, ok := e.Store().Get("p|bob|100"); ok || e.Tracks("p|bob|100") {
		t.Fatal("the dropped piece of the copy survived")
	}
	if !e.Tracks("p|cat|100") || e.presLRU.n != 0 {
		t.Fatalf("the clipped copy's side: tracked %v, %d fetched ranges in the LRU", e.Tracks("p|cat|100"), e.presLRU.n)
	}
}
