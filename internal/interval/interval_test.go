package interval

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pequod/internal/keys"
)

func collectStab(tr *Tree[int], k string) []int {
	var got []int
	tr.Stab(k, func(e *Entry[int]) bool { got = append(got, e.Val); return true })
	return got
}

func TestStabBasic(t *testing.T) {
	tr := New[int]()
	tr.Insert("b", "f", 1)
	tr.Insert("d", "h", 2)
	tr.Insert("a", "c", 3)
	tr.Insert("x", "", 4) // unbounded
	got := map[int]bool{}
	tr.Stab("d", func(e *Entry[int]) bool { got[e.Val] = true; return true })
	if !got[1] || !got[2] || got[3] || got[4] || len(got) != 2 {
		t.Fatalf("Stab(d) = %v", got)
	}
	got = map[int]bool{}
	tr.Stab("zzz", func(e *Entry[int]) bool { got[e.Val] = true; return true })
	if !got[4] || len(got) != 1 {
		t.Fatalf("Stab(zzz) = %v", got)
	}
}

func TestOverlapBasic(t *testing.T) {
	tr := New[int]()
	tr.Insert("b", "f", 1)
	tr.Insert("f", "h", 2)
	var got []int
	tr.Overlap("e", "g", func(e *Entry[int]) bool { got = append(got, e.Val); return true })
	sort.Ints(got)
	if len(got) != 2 {
		t.Fatalf("Overlap(e,g) = %v", got)
	}
	got = nil
	tr.Overlap("f", "g", func(e *Entry[int]) bool { got = append(got, e.Val); return true })
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Overlap(f,g) = %v (half-open bounds must exclude [b,f))", got)
	}
}

func TestDuplicateLo(t *testing.T) {
	tr := New[int]()
	e1 := tr.Insert("k", "m", 1)
	e2 := tr.Insert("k", "z", 2)
	e3 := tr.Insert("k", "m", 3)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := collectStab(tr, "n"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Stab(n) = %v", got)
	}
	if f := tr.Find("k", "m"); f != e1 {
		t.Fatalf("Find(k, m) = %v, want the first inserted", f)
	}
	tr.Delete(e1)
	if f := tr.Find("k", "m"); f != e3 {
		t.Fatalf("Find(k, m) after deleting the first = %v, want the second", f)
	}
	tr.Delete(e3)
	if got := collectStab(tr, "k"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after delete, Stab(k) = %v", got)
	}
	tr.Delete(e2)
	tr.Delete(e2) // double delete is a no-op
	if tr.Len() != 0 || tr.Find("k", "z") != nil {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestEntryAccessors(t *testing.T) {
	tr := New[int]()
	e := tr.Insert("lo", "hi", 9)
	if e.Lo() != "lo" || e.Hi() != "hi" {
		t.Fatal("accessors")
	}
	if r := e.Range(); r.Lo != "lo" || r.Hi != "hi" {
		t.Fatal("Range")
	}
}

func TestEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Insert("a", "z", i)
		tr.Insert("p|", "p}", 10+i)
	}
	for _, k := range []string{"m", "p|u"} {
		calls := 0
		tr.Stab(k, func(e *Entry[int]) bool { calls++; return calls < 3 })
		if calls != 3 {
			t.Fatalf("Stab(%q) early stop: %d", k, calls)
		}
	}
	for _, lo := range []string{"a", "p|"} {
		calls := 0
		tr.Overlap(lo, "p}", func(e *Entry[int]) bool { calls++; return false })
		if calls != 1 {
			t.Fatalf("Overlap(%q) early stop: %d", lo, calls)
		}
	}
}

func TestKeysContainingZeroBytes(t *testing.T) {
	tr := New[int]()
	tr.Insert("a\x00b", "a\x00c", 1)
	tr.Insert("a", "a\x00zzz", 2)
	tr.Insert("a\x01", "b", 3)
	tr.Insert("p|a\x00b", "p|a\x00b\x00", 4) // a point
	tr.Insert("p|a\x00", "p|a\x00b\x00", 5)
	if got := collectStab(tr, "a\x00b"); !slices.Equal(sorted(got), []int{1, 2}) {
		t.Fatalf("Stab = %v", got)
	}
	if got := collectStab(tr, "p|a\x00b"); !slices.Equal(sorted(got), []int{4, 5}) {
		t.Fatalf("Stab = %v", got)
	}
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCatchesHiOrder damages a bucket's order where only Hi
// tells it: two entries with one Lo and unequal Hi, swapped.
func TestCheckCatchesHiOrder(t *testing.T) {
	tr := New[int]()
	tr.Insert("p|u|5", "p|u}", 1)
	tr.Insert("p|u|5", "p|u|9", 2)
	tr.Insert("p|u|3", "p|u}", 3)
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	es, _ := tr.buckets.Get("p|u|")
	if es[1].hi != "p|u|9" || es[2].hi != "p|u}" {
		t.Fatalf("bucket holds %v, want [p|u|5, p|u|9) before [p|u|5, p|u})", es)
	}
	es[1], es[2] = es[2], es[1]
	if _, err := tr.Check(); err == nil {
		t.Fatal("Check passed a bucket with [p|u|5, p|u}) before [p|u|5, p|u|9)")
	}
}

// TestExactOpsAreLogarithmic fills one bucket with 4 096 ranges
// [p|u|T, p|u}) — a bounded check's updaters on one poster, one per
// lower bound T — in random order, and holds every Insert, Find,
// FindOrInsert and Delete on it to between one and 2·log2(n)+2 entries
// examined. A walk of the bucket examines thousands; one that does not
// count what it examines examines none.
func TestExactOpsAreLogarithmic(t *testing.T) {
	const n = 4096
	bound := 2*bits.Len(n-1) + 2
	lo := func(at int) string { return fmt.Sprintf("p|u|%010d", at) }
	tr := New[int]()
	one := func(what string, at int, op func()) {
		t.Helper()
		ops, examined := tr.Exact()
		least := min(tr.Len(), 1) // an empty bucket has nothing to examine
		op()
		if o, x := tr.Exact(); o != ops+1 || x-examined < least || x-examined > bound {
			t.Fatalf("%s(%s) examined %d entries in %d operations, want 1 operation of %d..%d", what, lo(at), x-examined, o-ops, least, bound)
		}
	}
	es := make([]*Entry[int], n)
	rng := rand.New(rand.NewSource(1))
	for _, at := range rng.Perm(n) {
		one("Insert", at, func() { es[at] = tr.Insert(lo(2*at), "p|u}", at) })
	}
	if sizes, err := tr.Check(); err != nil || !maps.Equal(sizes, map[int]int{n: 1}) {
		t.Fatalf("buckets by length %v, want one of %d: %v", sizes, n, err)
	}
	for i := 0; i < 256; i++ {
		at := rng.Intn(n)
		one("Find", at, func() {
			if e := tr.Find(lo(2*at), "p|u}"); e != es[at] {
				t.Fatalf("Find(%s) = %v", lo(2*at), e)
			}
		})
		one("Find", at, func() {
			if e := tr.Find(lo(2*at+1), "p|u}"); e != nil {
				t.Fatalf("Find(%s) = %v, want none", lo(2*at+1), e)
			}
		})
		one("FindOrInsert", at, func() {
			if e, added := tr.FindOrInsert(lo(2*at), "p|u}"); added || e != es[at] {
				t.Fatalf("FindOrInsert(%s) = %v, %v", lo(2*at), e, added)
			}
		})
		one("Delete", at, func() { tr.Delete(es[at]) })
		one("FindOrInsert", at, func() {
			e, added := tr.FindOrInsert(lo(2*at), "p|u}")
			if !added {
				t.Fatalf("FindOrInsert(%s) found a deleted range", lo(2*at))
			}
			e.Val, es[at] = at, e
		})
	}
	if _, err := tr.Check(); err != nil || tr.Len() != n {
		t.Fatalf("Len %d: %v", tr.Len(), err)
	}
}

// TestPlacement pins the bucket each range shape lands in, and the stab
// order that follows: the root slice, then shorter prefixes before
// longer ones, the key's own point bucket last, Lo order within each.
func TestPlacement(t *testing.T) {
	for _, c := range []struct{ lo, hi, bucket string }{
		{"s|u|", "s|u}", "s|u|"},
		{"p|u|0000000000", "p|u}", "p|u|"},
		{"p|u|7", "p|u|7\x00", "p|u|7"},    // a point
		{"p|u|", "p|u|\x00", "p|u|"},       // a point on a prefix
		{"p|u|1", "p|u|2", "p|u|"},         // inside one user's rows
		{"p|u|1", "p|v", "p|"},             // across users
		{"p|", "p}", "p|"},                 // the whole table
		{"p|u|1", "", ""},                  // unbounded
		{"p|u|1", "s|", ""},                // across tables
		{"p", "p\x00", ""},                 // a point without a table
		{"p|u}|1", "p|u}}", "p|u}|"},       // a '}' inside a component
		{"p|\xff|a", "p|\xff}", "p|\xff|"}, // 0xff inside a component
	} {
		if b := home(c.lo, c.hi); b != c.bucket {
			t.Errorf("home(%q, %q) = %q, want %q", c.lo, c.hi, b, c.bucket)
		}
	}
	tr := New[int]()
	tr.Insert("p|u|1", "p|u|1\x00", 1)
	tr.Insert("p|u|0", "p|u}", 2)
	tr.Insert("p|", "p}", 3)
	tr.Insert("p|u|", "p|u}", 4)
	tr.Insert("a", "", 5)
	if got := collectStab(tr, "p|u|1"); !slices.Equal(got, []int{5, 3, 4, 2, 1}) {
		t.Fatalf("stab order %v, want root, p|, p|u| in Lo order, then the point", got)
	}
}

// The model: a slice of live entries, scanned by brute force.
type model struct {
	entries []*Entry[int]
	ranges  map[*Entry[int]]keys.Range
}

func (m *model) stab(k string) []int {
	var out []int
	for _, e := range m.entries {
		if m.ranges[e].Contains(k) {
			out = append(out, e.Val)
		}
	}
	return sorted(out)
}

func (m *model) overlap(q keys.Range) []int {
	var out []int
	for _, e := range m.entries {
		if q.Overlaps(m.ranges[e]) {
			out = append(out, e.Val)
		}
	}
	return sorted(out)
}

func sorted(s []int) []int {
	sort.Ints(s)
	return s
}

// Key alphabet: four tables (one ends in '}', the byte after '|'),
// keys without a '|', and components that are empty, plain, or hold '}',
// 0x00 or 0xff.
var (
	opTables = [...]string{"p", "s", "t", "p}"}
	opComps  = [...]string{"", "u1", "u2", "0000000000", "7", "}", "\x00", "\xff", "a\x00b", "u1}"}
)

// runIntervalOps interprets data as a stream of operations — inserts of
// every range shape (prefix ranges, points, ranges whose Lo is their
// prefix or whose Hi is exactly the prefix's end, arbitrary, unbounded,
// cross-table and empty ranges, duplicates of live ranges with a new
// value), deletes (twice over, sometimes), stabs, overlaps and exact
// finds — against the index and a brute-force model, with Check after
// every step.
func runIntervalOps(t testing.TB, data []byte) {
	tr := New[int]()
	m := &model{ranges: map[*Entry[int]]keys.Range{}}
	var dead []*Entry[int]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	key := func() string {
		b := next()
		if b%16 == 15 {
			return opTables[b>>6] // no '|' at all
		}
		k := opTables[b%4] + "|"
		for i := 0; i < (b>>2)%4; i++ {
			k += opComps[next()%len(opComps)]
			if i < (b>>2)%4-1 || b&64 != 0 {
				k += "|"
			}
		}
		return k
	}
	prefix := func(k string) string { // a '|'-terminated prefix of k, or k + "|"
		var ps []string
		for i := 0; i < len(k); i++ {
			if k[i] == keys.Sep {
				ps = append(ps, k[:i+1])
			}
		}
		if len(ps) == 0 {
			return k + "|"
		}
		return ps[next()%len(ps)]
	}
	rng := func() keys.Range {
		switch op := next() % 9; op {
		case 0: // a whole prefix
			p := prefix(key())
			return keys.Range{Lo: p, Hi: keys.PrefixEnd(p)}
		case 1: // a point
			k := key()
			return keys.Range{Lo: k, Hi: k + "\x00"}
		case 2: // deeper Lo, Hi exactly the prefix's end
			k := key()
			return keys.Range{Lo: k, Hi: keys.PrefixEnd(prefix(k))}
		case 3: // unbounded
			return keys.Range{Lo: key()}
		case 4: // live duplicate
			if len(m.entries) > 0 {
				return m.ranges[m.entries[next()%len(m.entries)]]
			}
			fallthrough
		default: // arbitrary: inside a table, across tables, or empty
			lo, hi := key(), key()
			if op == 5 && hi < lo {
				lo, hi = hi, lo
			}
			return keys.Range{Lo: lo, Hi: hi}
		}
	}
	for step := 0; len(data) > 0; step++ {
		switch op := next() % 8; op {
		case 0, 1, 2:
			r := rng()
			e := tr.Insert(r.Lo, r.Hi, step)
			m.entries = append(m.entries, e)
			m.ranges[e] = r
		case 3:
			if len(m.entries) == 0 {
				break
			}
			i := next() % len(m.entries)
			e := m.entries[i]
			tr.Delete(e)
			m.entries = slices.Delete(m.entries, i, i+1)
			dead = append(dead, e)
			if next()%4 == 0 {
				tr.Delete(dead[next()%len(dead)]) // a no-op
			}
		case 4, 5:
			k := key()
			if got, want := sorted(collectStab(tr, k)), m.stab(k); !slices.Equal(got, want) {
				t.Fatalf("step %d: Stab(%q) = %v, model %v", step, k, got, want)
			}
		case 6:
			q := rng()
			var got []int
			tr.Overlap(q.Lo, q.Hi, func(e *Entry[int]) bool { got = append(got, e.Val); return true })
			if want := m.overlap(q); !slices.Equal(sorted(got), want) {
				t.Fatalf("step %d: Overlap(%s) = %v, model %v", step, q, got, want)
			}
		case 7: // an exact find, then (on an odd byte) a find-or-insert
			q := rng()
			var want *Entry[int]
			for _, e := range m.entries {
				if m.ranges[e] == q {
					want = e
					break
				}
			}
			if got := tr.Find(q.Lo, q.Hi); got != want {
				t.Fatalf("step %d: Find(%s) = %v, model's first %v", step, q, got, want)
			}
			if next()%2 == 0 {
				break
			}
			got, added := tr.FindOrInsert(q.Lo, q.Hi)
			if added != (want == nil) || !added && got != want || got.Range() != q {
				t.Fatalf("step %d: FindOrInsert(%s) = %v, %v; model's first %v", step, q, got, added, want)
			}
			if added {
				got.Val = step
				m.entries = append(m.entries, got)
				m.ranges[got] = q
			}
		}
		if _, err := tr.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if tr.Len() != len(m.entries) {
			t.Fatalf("step %d: Len %d, model %d", step, tr.Len(), len(m.entries))
		}
	}
	for _, e := range m.entries {
		tr.Delete(e)
	}
	if _, err := tr.Check(); err != nil || tr.Len() != 0 || tr.buckets.Len() != 0 || len(tr.root) != 0 || tr.first != [256]struct{ entries, points int }{} {
		t.Fatalf("emptied index: Len %d, %d buckets, root %d: %v", tr.Len(), tr.buckets.Len(), len(tr.root), err)
	}
}

// TestRandomizedAgainstBruteForce is the model test: long pseudo-random
// operation streams through runIntervalOps.
func TestRandomizedAgainstBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 12000)
		rand.New(rand.NewSource(seed)).Read(data)
		runIntervalOps(t, data)
	}
}

// FuzzIntervalOps lets the fuzzer write the operation stream.
func FuzzIntervalOps(f *testing.F) {
	seeds := [][]byte{
		nil,
		// Two subscriptions on one range, one dropped, a stab in it.
		{0, 0, 4, 0, 0, 4, 3, 0, 4, 4, 0},
		// A point and the prefix range over it, stabbed, overlapped, found.
		{0, 1, 8, 1, 0, 0, 9, 0, 4, 8, 1, 6, 2, 8, 1, 0, 7, 1, 8, 1},
		// An unbounded range, a cross-table one, and stabs in other tables.
		{0, 3, 5, 1, 5, 8, 1, 5, 13, 2, 4, 2, 4, 14, 0, 3},
	}
	// Long runs in bucket p|u1|: ranges [p|u1|c, p|u1}) for every
	// component c of the alphabet, the whole prefix [p|u1|, p|u1}) (the
	// same Lo as c = ""), the point [p|u1|, p|u1|\x00) (the same Lo, a
	// lower Hi), ranges inside the bucket and live duplicates; then finds,
	// finds-or-inserts, deletes and stabs among them.
	var runs []byte
	for i := byte(0); i < 48; i++ {
		runs = append(runs,
			0, 2, 8, 1, i%10, 1, // [p|u1|c, p|u1})
			0, 0, 8, 1, 0, 1, // [p|u1|, p|u1})
			0, 1, 68, 1, // [p|u1|, p|u1|\x00)
			0, 5, 8, 1, i%10, 8, 1, (i+3)%10, // [p|u1|c, p|u1|c') or empty
			1, 4, i) // a live duplicate
	}
	for i := byte(0); i < 24; i++ {
		runs = append(runs,
			7, 2, 8, 1, i%10, 1, 1, // found, or inserted
			3, 5*i, 1, // a delete
			4, 8, 1, i%10) // a stab inside the bucket
	}
	random := make([]byte, 600)
	rand.New(rand.NewSource(7)).Read(random)
	for _, s := range append(seeds, runs, random) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // Check is O(n) per step
		}
		runIntervalOps(t, data)
	})
}

// twipShaped builds the updater set of a Twip engine whose timelines are
// all read from time 0: a subscription range [s|u|, s|u}) per follower
// and a post range [p|u|0000000000, p|u}) per poster, each alone in its
// bucket. Timelines read from later times add a range per lower bound
// to their posters' buckets (BenchmarkFindDeepBucket), and a stab of a
// post opens all of them.
func twipShaped() *Tree[int] {
	tr := New[int]()
	for u := 0; u < 1918; u++ {
		user := fmt.Sprintf("u%05d", u)
		if u < 1400 {
			tr.Insert("s|"+user+"|", "s|"+user+"}", u)
		}
		tr.Insert("p|"+user+"|0000000000", "p|"+user+"}", u)
	}
	return tr
}

// BenchmarkStab stabs the Twip-shaped set with a post key (a hit, the
// write a poster's followers' timelines depend on) and with a timeline
// key (a miss: no updater reads the t table, as for every row a join
// emits).
func BenchmarkStab(b *testing.B) {
	tr := twipShaped()
	for _, c := range []struct {
		name string
		key  func(i int) string
	}{
		{"hit", func(i int) string { return fmt.Sprintf("p|u%05d|%010d", i%1918, i) }},
		{"miss", func(i int) string { return fmt.Sprintf("t|u%05d|%010d|u%05d", i%2000, i, i%1918) }},
	} {
		ks := make([]string, 4096)
		for i := range ks {
			ks[i] = c.key(i * 7919)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				tr.Stab(ks[i%len(ks)], func(*Entry[int]) bool { hits++; return true })
			}
		})
	}
}

// BenchmarkFindDeepBucket finds ranges in one bucket of 1 000
// [p|u|T, p|u}): the updaters of one poster read by bounded checks from
// 1 000 lower bounds T. It reports the entries each Find examines.
func BenchmarkFindDeepBucket(b *testing.B) {
	const n = 1000
	tr := New[int]()
	los := make([]string, n)
	for i := range los {
		los[i] = fmt.Sprintf("p|u|%010d", i*7919%n)
		tr.Insert(los[i], "p|u}", i)
	}
	ops, examined := tr.Exact()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Find(los[i%n], "p|u}") == nil {
			b.Fatal("a range went missing")
		}
	}
	b.StopTimer()
	o, x := tr.Exact()
	b.ReportMetric(float64(x-examined)/float64(o-ops), "examined/find")
}
