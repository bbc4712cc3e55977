package btree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// model is the sorted-slice reference the tree is compared with.
type model struct {
	keys []string
	vals map[string]int
}

func newModel() *model { return &model{vals: map[string]int{}} }

func (m *model) set(k string, v int) (int, bool) {
	old, ok := m.vals[k]
	if !ok {
		i := sort.SearchStrings(m.keys, k)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = k
	}
	m.vals[k] = v
	return old, ok
}

func (m *model) rng(lo, hi string) (i, j int) {
	i, j = sort.SearchStrings(m.keys, lo), len(m.keys)
	if hi != "" {
		j = max(i, sort.SearchStrings(m.keys, hi))
	}
	return i, j
}

func (m *model) deleteRange(lo, hi string) []string {
	i, j := m.rng(lo, hi)
	gone := append([]string(nil), m.keys[i:j]...)
	for _, k := range gone {
		delete(m.vals, k)
	}
	m.keys = append(m.keys[:i], m.keys[j:]...)
	return gone
}

func mustCheck(t testing.TB, tr *Tree[int], m *model, when string) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if tr.Len() != len(m.keys) {
		t.Fatalf("%s: Len %d, model %d", when, tr.Len(), len(m.keys))
	}
}

func equalScan(t testing.TB, tr *Tree[int], m *model, lo, hi, when string) {
	t.Helper()
	i, j := m.rng(lo, hi)
	want := m.keys[i:j]
	var got, runs []string
	tr.Ascend(lo, hi, func(k string, v int) bool {
		if v != m.vals[k] {
			t.Fatalf("%s: %q holds %d, model %d", when, k, v, m.vals[k])
		}
		got = append(got, k)
		return true
	})
	tr.AscendRuns(lo, hi, 0, nil, func(run Keys, vs []int, rest int) bool {
		ks := run.all()
		if len(ks) == 0 || len(ks) != len(vs) || len(runs)+len(ks)+rest != len(want) {
			t.Fatalf("%s: run of %d keys, %d values, %d to follow %d of %d", when, len(ks), len(vs), rest, len(runs), len(want))
		}
		runs = append(runs, ks...)
		return true
	})
	// AscendFloor is the same scan started at the last key below lo,
	// unless lo is itself a key.
	f, end := i, len(m.keys)
	if f > 0 && (f == len(m.keys) || m.keys[f] != lo) {
		f--
	}
	if hi != "" {
		end = max(f, sort.SearchStrings(m.keys, hi))
	}
	var floor []string
	tr.AscendFloor(lo, hi, func(k string, v int) bool {
		floor = append(floor, k)
		return true
	})
	if fmt.Sprint(floor) != fmt.Sprint(m.keys[f:end]) {
		t.Fatalf("%s: AscendFloor [%q,%q) gave %q, model %q", when, lo, hi, floor, m.keys[f:end])
	}
	for name, g := range map[string][]string{"Ascend": got, "AscendRuns": runs} {
		if len(g) != len(want) {
			t.Fatalf("%s: %s [%q,%q) gave %d keys, model %d", when, name, lo, hi, len(g), len(want))
		}
		for x := range want {
			if g[x] != want[x] {
				t.Fatalf("%s: %s [%q,%q) key %d is %q, model %q", when, name, lo, hi, x, g[x], want[x])
			}
		}
	}
}

func key(i int) string { return fmt.Sprintf("k%06d", i) }

// all returns the keys of a run as a slice.
func (k Keys) all() []string {
	ks := make([]string, k.Len())
	for i := range ks {
		ks[i] = k.At(i)
	}
	return ks
}

// hintUse classifies a hint a scan is handed: which of the ways it can
// be unusable, if any.
type hintUse int

const (
	hintStart   hintUse = iota // a live leaf of the tree covering lo: the scan starts there
	hintDead                   // its leaf was freed
	hintForeign                // a leaf of another tree
	hintAside                  // a live leaf of the tree that does not cover lo
	hintUnset
)

func classify(tr *Tree[int], h *Hint[int], lo string) hintUse {
	switch {
	case h.lf == nil:
		return hintUnset
	case h.lf.dead:
		return hintDead
	case h.t != tr:
		return hintForeign
	case !h.lf.covers(lo):
		return hintAside
	}
	return hintStart
}

// equalHintedScan checks that AscendRuns started from h returns exactly
// the model's rows of [lo, hi), whatever h points at, and says what h was.
func equalHintedScan(t testing.TB, tr *Tree[int], m *model, lo, hi string, h *Hint[int], when string) hintUse {
	t.Helper()
	i, j := m.rng(lo, hi)
	want := m.keys[i:j]
	var got []string
	tr.AscendRuns(lo, hi, 0, h, func(run Keys, vs []int, rest int) bool {
		ks := run.all()
		for x, k := range ks {
			if mv, ok := m.vals[k]; !ok || vs[x] != mv {
				t.Fatalf("%s: hinted scan [%q,%q) gives %q = %d, model %d, %v", when, lo, hi, k, vs[x], mv, ok)
			}
		}
		if len(got)+len(ks)+rest != len(want) {
			t.Fatalf("%s: hinted scan [%q,%q): run of %d with %d to follow after %d, model %d", when, lo, hi, len(ks), rest, len(got), len(want))
		}
		got = append(got, ks...)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: hinted scan [%q,%q) gave %d keys, model %d", when, lo, hi, len(got), len(want))
	}
	return classify(tr, h, lo)
}

func TestEmptyTree(t *testing.T) {
	var tr Tree[int]
	if _, ok := tr.Get("a"); ok || tr.Ref("a") != nil {
		t.Fatal("Get or Ref on an empty tree")
	}
	if _, ok := tr.Delete("a"); ok {
		t.Fatal("Delete on an empty tree")
	}
	if n := tr.DeleteRange("", "", nil); n != 0 {
		t.Fatalf("DeleteRange on an empty tree removed %d", n)
	}
	if !tr.Ascend("", "", func(string, int) bool { return false }) {
		t.Fatal("Ascend over nothing did not run to the end")
	}
	var h *Hint[int]
	if h.Valid() || (&Hint[int]{}).Valid() {
		t.Fatal("unset hint reports valid")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSetGetDelete(t *testing.T) {
	var tr Tree[int]
	m := newModel()
	for _, i := range rand.New(rand.NewSource(1)).Perm(5000) {
		if _, existed := tr.Set(key(i), i, nil); existed {
			t.Fatalf("fresh key %d reported as existing", i)
		}
		m.set(key(i), i)
	}
	mustCheck(t, &tr, m, "after inserts")
	if old, existed := tr.Set(key(7), -7, nil); !existed || old != 7 {
		t.Fatalf("replace returned %d, %v", old, existed)
	}
	m.set(key(7), -7)
	if v, ok := tr.Get(key(7)); !ok || v != -7 {
		t.Fatalf("Get after replace: %d, %v", v, ok)
	}
	if p := tr.Ref(key(8)); p == nil || *p != 8 {
		t.Fatalf("Ref(%s) = %v", key(8), p)
	} else {
		*p = -8 // a replace through the reference
	}
	m.set(key(8), -8)
	if v, ok := tr.Get(key(8)); !ok || v != -8 || tr.Ref("k0000080") != nil {
		t.Fatalf("Get after a replace through Ref: %d, %v; or Ref of an absent key", v, ok)
	}
	if _, ok := tr.Get("k0000070"); ok {
		t.Fatal("Get of an absent key between two present ones")
	}
	if _, ok := tr.Delete("zzz"); ok {
		t.Fatal("Delete of an absent key")
	}
	equalScan(t, &tr, m, "", "", "full")
	equalScan(t, &tr, m, key(100), key(163), "bounded")
	equalScan(t, &tr, m, key(4990), "", "open-ended")
	equalScan(t, &tr, m, "a", "b", "before everything")
	n := 0
	if tr.Ascend("", "", func(string, int) bool { n++; return n < 3 }) || n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
	n = 0
	if tr.AscendRuns("", "", 0, nil, func(Keys, []int, int) bool { n++; return false }) || n != 1 {
		t.Fatalf("early stop visited %d runs", n)
	}
	for _, i := range rand.New(rand.NewSource(2)).Perm(5000) {
		if v, ok := tr.Delete(key(i)); !ok || v != m.vals[key(i)] {
			t.Fatalf("Delete(%d) = %d, %v", i, v, ok)
		}
		m.deleteRange(key(i), key(i)+"\x00")
		if i%97 == 0 {
			mustCheck(t, &tr, m, "while deleting")
		}
	}
	mustCheck(t, &tr, m, "after deleting everything")
	if l, in := tr.Nodes(); l != 0 || in != 0 {
		t.Fatalf("emptied tree still counts %d leaves, %d interior nodes", l, in)
	}
}

// Ascending inserts, hinted or not, must leave full leaves behind: the
// split happens where the new key goes.
func TestAppendsKeepLeavesFull(t *testing.T) {
	for _, hinted := range []bool{false, true} {
		var tr Tree[int]
		var h *Hint[int]
		if hinted {
			h = &Hint[int]{}
		}
		const n = 20 * fanout
		for i := 0; i < n; i++ {
			tr.Set(key(i), i, h)
		}
		if leaves, _ := tr.Nodes(); leaves != n/fanout {
			t.Fatalf("hinted %v: %d sorted keys in %d leaves, want %d", hinted, n, leaves, n/fanout)
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAscendRunsLimit: a run scan with a limit is its range's first
// limit pairs, each run reporting exactly the pairs of them still to
// come, and it reads no leaf past the last of them — its count stops
// there too, so a limited scan of a long range costs O(limit) leaves.
// The leaf chain is cut just past that leaf, onto an empty leaf: a
// bounded scan that reads it panics (end reads slot -1), and an
// unbounded one counting past the limit reports too many to follow.
func TestAscendRunsLimit(t *testing.T) {
	var tr Tree[int]
	const n, from = 40 * fanout, 5
	for i := 0; i < n; i++ {
		tr.Set(key(i), i, nil)
	}
	for _, hi := range []int{-1, n, from + fanout + 3} {
		hk, size := "", n-from
		if hi >= 0 {
			hk, size = key(hi), hi-from
		}
		for _, limit := range []int{1, fanout - 5, fanout, 3*fanout + 7} {
			want := min(limit, size)
			last, _, _ := tr.seek(key(from + want - 1))
			next := last.next
			last.next = &leaf[int]{}
			var got []string
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("[%q, %q) limit %d: read a leaf past its first %d pairs: %v", key(from), hk, limit, want, r)
					}
				}()
				tr.AscendRuns(key(from), hk, limit, nil, func(run Keys, _ []int, rest int) bool {
					got = append(got, run.all()...)
					if len(got)+rest != want {
						t.Errorf("[%q, %q) limit %d: %d delivered, %d to follow, want %d in all", key(from), hk, limit, len(got), rest, want)
					}
					return true
				})
			}()
			last.next = next
			if len(got) != want || got[0] != key(from) || got[want-1] != key(from+want-1) {
				t.Errorf("[%q, %q) limit %d: got %d pairs, want %d from %q", key(from), hk, limit, len(got), want, key(from))
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// Many timelines appended to in turn, each through its own hint: every
// timeline's rows end up in leaves of their own, close to full, however
// the appends interleave.
func TestInterleavedHintedAppendsPack(t *testing.T) {
	var tr Tree[int]
	const users, rows = 50, 4 * fanout
	hints := make([]Hint[int], users)
	for r := 0; r < rows; r++ {
		for u := range hints {
			tr.Set(fmt.Sprintf("t|u%03d|%06d", u, r), r, &hints[u])
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	leaves, _ := tr.Nodes()
	if fill := float64(users*rows) / float64(leaves*fanout); fill < 0.75 {
		t.Fatalf("interleaved appends left leaves %.0f%% full (%d leaves)", 100*fill, leaves)
	}
}

// fill is the share of the tree's leaf slots that hold a pair.
func fill(tr *Tree[int]) float64 {
	leaves, _ := tr.Nodes()
	return float64(tr.Len()) / float64(leaves*fanout)
}

// Inserts that land anywhere in the tree, not only at a leaf's end, keep
// leaves dense: a full leaf spills into a sibling with room before it
// splits. Every shape runs with Check after each insert, through hints
// held across every spill and split.
func TestRandomInsertsStayDense(t *testing.T) {
	// timeline is "t|<user>|<time>|<poster>", the shape of a timeline row.
	timeline := func(u, tm, p int) string { return fmt.Sprintf("t|u%03d|%06d|p%03d", u, tm, p) }
	shapes := []struct {
		name  string
		floor float64
		// rows lists the inserts in order, each with the hint (an index
		// into a shared set, or -1 for none) it goes through.
		rows func(rng *rand.Rand) (keys []string, hint []int)
	}{
		{"shuffled", 0.78, func(rng *rand.Rand) (ks []string, hs []int) {
			for _, i := range rng.Perm(40 * fanout) {
				ks, hs = append(ks, key(i)), append(hs, i%3-1)
			}
			return ks, hs
		}},
		// A first login's join execution emits a timeline followee by
		// followee, each followee's rows ascending: written as emitted,
		// runs that grow at random interior points of the timeline.
		{"join execution", 0.75, func(rng *rand.Rand) (ks []string, hs []int) {
			for u := 0; u < 8; u++ {
				for p := 0; p < 12; p++ {
					times := rng.Perm(1000)[:25]
					sort.Ints(times)
					for _, tm := range times {
						ks, hs = append(ks, timeline(u, tm, p)), append(hs, u)
					}
				}
			}
			return ks, hs
		}},
		// The same executions written as they land, merged into key
		// order; the users log in in no particular order, so each
		// timeline goes in between timelines already there.
		{"join execution, in key order", 0.88, func(rng *rand.Rand) (ks []string, hs []int) {
			for i, u := range rng.Perm(40) {
				var rows []string
				for p := 0; p < 12; p++ {
					for _, tm := range rng.Perm(1000)[:25] {
						rows = append(rows, timeline(u, tm, p))
					}
				}
				sort.Strings(rows)
				for _, k := range rows {
					ks, hs = append(ks, k), append(hs, i%10)
				}
			}
			return ks, hs
		}},
		// A subscribe copies a followee's old posts into the middle of a
		// timeline that already holds rows.
		{"subscribe", 0.75, func(rng *rand.Rand) (ks []string, hs []int) {
			for u := 0; u < 8; u++ {
				for tm := 0; tm < 150; tm++ {
					ks, hs = append(ks, timeline(u, 10*tm, 0)), append(hs, u)
				}
			}
			for sub := 0; sub < 120; sub++ {
				u, p, tm := rng.Intn(8), 1+rng.Intn(999), rng.Intn(1500)
				for r := 0; r < 15; r++ {
					ks, hs = append(ks, timeline(u, tm+7*r, p)), append(hs, 8+sub%2)
				}
			}
			return ks, hs
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var tr Tree[int]
			m := newModel()
			hints := make([]Hint[int], 10)
			ks, hs := sh.rows(rand.New(rand.NewSource(1)))
			for n, k := range ks {
				var h *Hint[int]
				if hs[n] >= 0 {
					h = &hints[hs[n]]
				}
				old, existed := tr.Set(k, n, h)
				mold, mexisted := m.set(k, n)
				if existed != mexisted || old != mold {
					t.Fatalf("Set(%q) = %d, %v; model %d, %v", k, old, existed, mold, mexisted)
				}
				mustCheck(t, &tr, m, "Set "+k)
			}
			equalScan(t, &tr, m, "", "", "after the inserts")
			if f := fill(&tr); f < sh.floor {
				t.Fatalf("%d pairs fill their leaves to %.2f, want >= %.2f", tr.Len(), f, sh.floor)
			} else {
				t.Logf("%d pairs fill their leaves to %.2f", tr.Len(), f)
			}
		})
	}
}

// TestSpillBoundaries inserts into the full middle one of three leaves
// under one parent, with the room each row gives the siblings, and sees
// where the pair lands and how many pairs left the middle leaf. A write
// that descended spills half the difference in free slots towards the
// sibling with more room (the right one on a tie). A write through a
// covering hint moves the pairs behind it right only when they all fit,
// and otherwise spills left. An append at a leaf's end never spills, and
// with no sibling two slots short of full the leaf splits: in the
// middle, or, for an append or a hinted write, at the new pair. Hints
// held on all three leaves keep writing where a descent would.
func TestSpillBoundaries(t *testing.T) {
	const (
		mid   = iota // the full leaf the pair was written to
		left         // its left sibling
		right        // its right sibling
		fresh        // the leaf a split added
	)
	for _, c := range []struct {
		name                string
		hinted              bool
		lroom, rroom, i, to int
		moved               int // pairs the middle leaf gave up; -1 for a split
	}{
		{"right, last slot kept", false, 0, 10, fanout - 5, mid, 5}, // i == cut
		{"right, first slot moved", false, 0, 10, fanout - 4, right, 5},
		{"right, next to last slot", false, 0, 10, fanout - 1, right, 5},
		{"right, smallest spill", false, 0, 2, fanout - 1, mid, 1},
		{"right on a tie", false, 6, 6, fanout - 1, right, 3},
		{"right has more", false, 4, 10, 1, mid, 5},
		{"left, last slot moved", false, 10, 0, 5, left, 5}, // i == k
		{"left, first slot kept", false, 10, 0, 6, mid, 5},
		{"left, at the front", false, 10, 0, 1, left, 5},
		{"left has more", false, 10, 4, fanout - 1, mid, 5},
		{"no room: split in the middle", false, 1, 1, fanout/2 + 1, fresh, -1},
		{"an append splits at the point, room or not", false, 10, 10, fanout, fresh, -1},
		{"run: the pairs behind it fit right", true, 0, 10, fanout - 10, mid, 10},
		{"run: all of them, into a full right", true, 0, 1, fanout - 1, mid, 1},
		{"run: too many, so left", true, 10, 9, fanout - 10, mid, 5},
		{"run: left, last slot moved", true, 10, 0, 5, left, 5},
		{"run: at a leaf's end, split at the point", true, 10, 10, fanout, fresh, -1},
		{"run: no room, split at the point", true, 1, 3, fanout / 2, mid, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Three full leaves of even keys under one root, then room
			// made at the ends of the outer two.
			var tr Tree[int]
			m := newModel()
			for j := 0; j < 3*fanout; j++ {
				tr.Set(key(2*j), j, nil)
				m.set(key(2*j), j)
			}
			for _, j := range append(seq(fanout-c.lroom, fanout), seq(3*fanout-c.rroom, 3*fanout)...) {
				tr.Delete(key(2 * j))
				m.deleteRange(key(2*j), key(2*j+1))
			}
			var hints [3]Hint[int]
			for j := range hints {
				k := key(2 * j * fanout)
				tr.Set(k, m.vals[k], &hints[j])
			}
			l, lf, r := hints[0].lf, hints[1].lf, hints[2].lf
			if tr.height != 2 || lf.n != fanout || lf.prev != l || lf.next != r {
				t.Fatal("set-up is not three leaves under one root")
			}
			mustCheck(t, &tr, m, "set-up")
			leaves, _ := tr.Nodes()

			// The odd key that sorts into slot i of the middle leaf,
			// written through a finger on it or through an unset one.
			k, h := key(2*(fanout+c.i)-1), Hint[int]{}
			if c.hinted {
				h = hints[1]
			}
			tr.Set(k, -1, &h)
			m.set(k, -1)
			mustCheck(t, &tr, m, "after the insert")
			got, ok := map[*leaf[int]]int{lf: mid, l: left, r: right}[h.lf]
			if !ok {
				got = fresh
			}
			now, _ := tr.Nodes()
			if got != c.to || (now > leaves) != (c.moved < 0) {
				t.Fatalf("the pair landed in leaf %d (0 middle, 1 left, 2 right, 3 new), want %d; %d leaves added", got, c.to, now-leaves)
			}
			if c.moved >= 0 && lf.n != fanout-c.moved+btoi(got == mid) {
				t.Fatalf("the middle leaf holds %d pairs, want %d moved out", lf.n, c.moved)
			}
			// Every hint still writes where a descent looks, on both sides
			// of both fences a spill can move.
			for j := range hints {
				for _, x := range append(seq(fanout-12, fanout+12), seq(2*fanout-12, 2*fanout+12)...) {
					k := key(2*x + 1)
					tr.Set(k, j, &hints[j])
					m.set(k, j)
					if v, ok := tr.Get(k); !ok || v != j {
						t.Fatalf("%q written through hint %d is not where a descent looks", k, j)
					}
					mustCheck(t, &tr, m, fmt.Sprintf("%q through hint %d", k, j))
				}
			}
			equalScan(t, &tr, m, "", "", "after the hinted writes")
		})
	}
}

// seq returns lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestHintsSurviveSplitsAndFrees(t *testing.T) {
	var tr Tree[int]
	m := newModel()
	set := func(k string, v int, h *Hint[int]) {
		t.Helper()
		old, existed := tr.Set(k, v, h)
		mold, mexisted := m.set(k, v)
		if existed != mexisted || old != mold {
			t.Fatalf("Set(%q) = %d, %v; model %d, %v", k, old, existed, mold, mexisted)
		}
		if h != nil && !h.Valid() {
			t.Fatalf("hint invalid right after Set(%q)", k)
		}
		mustCheck(t, &tr, m, "Set "+k)
	}
	var h, g Hint[int]
	for i := 0; i < 3*fanout; i += 3 {
		set(key(i), i, &h)
	}
	// g points into the middle; fill around it until its leaf splits
	// under it several times, then keep using it.
	set(key(30), 30, &g)
	for i := 0; i < 3*fanout; i++ {
		set(key(i), -i, nil)
	}
	set(key(31), 31, &g)
	set(key(29), 29, &g)
	set(key(1000), 1000, &g) // far away: the leaf no longer covers it
	set(key(31), 32, &g)     // and back
	// A hint held across the deletion of its leaf.
	set(key(5000), 1, &h)
	if n := tr.DeleteRange("", "", nil); n != len(m.deleteRange("", "")) {
		t.Fatalf("DeleteRange removed %d", n)
	}
	if h.Valid() {
		t.Fatal("hint on a freed leaf still valid")
	}
	set(key(5001), 2, &h)
	// A hint from another tree is ignored, then adopted.
	var other Tree[int]
	other.Set("x", 1, &h)
	if v, ok := other.Get("x"); !ok || v != 1 {
		t.Fatal("Set through a foreign hint lost the pair")
	}
	set(key(5002), 3, &h)
	if err := other.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestHintSlotGoesStale writes runs through a hint whose remembered slot
// other writes have moved: keys inserted before it, after it, and on it,
// and the slot's own key deleted. A write that no longer goes right
// after the slot must search, and every key must land in order.
func TestHintSlotGoesStale(t *testing.T) {
	var tr Tree[int]
	m := newModel()
	set := func(k string, h *Hint[int]) {
		t.Helper()
		tr.Set(k, 1, h)
		m.set(k, 1)
		mustCheck(t, &tr, m, "Set "+k)
	}
	var h Hint[int]
	for i := 100; i < 120; i += 2 {
		set(key(i), &h) // h remembers the slot of key(118)
	}
	set(key(1), nil)   // shifts every slot up by one
	set(key(119), &h)  // right after the old slot's key, which moved
	set(key(119), &h)  // an overwrite through the hint
	set(key(200), nil) // after the run
	set(key(121), &h)  // between the slot and key(200)
	set(key(99), &h)   // before the remembered slot
	if _, ok := tr.Delete(key(99)); !ok {
		t.Fatal("Delete lost key(99)")
	}
	m.deleteRange(key(99), key(99)+"\x00")
	set(key(98), &h) // the remembered slot's key is gone
	set(key(122), &h)
	equalScan(t, &tr, m, "", "", "end")
}

// When a first child goes, the leaf after the gap takes over its fence;
// when any other goes, the leaf before the gap extends over it. Fingers
// on either neighbour must agree with a descent about who owns a key in
// the gap.
func TestFencesAfterFrees(t *testing.T) {
	for _, gap := range [][2]int{{0, 1}, {0, fanout + 3}, {fanout, 2 * fanout}, {5 * fanout, 9 * fanout}, {0, 70 * fanout}} {
		var tr Tree[int]
		m := newModel()
		const n = 80 * fanout // three levels
		for i := 0; i < n; i++ {
			tr.Set(key(2*i), i, nil)
			m.set(key(2*i), i)
		}
		var before, after Hint[int]
		if gap[0] > 0 {
			tr.Set(key(2*gap[0]-2), 0, &before)
			m.set(key(2*gap[0]-2), 0)
		}
		tr.Set(key(2*gap[1]), 0, &after)
		m.set(key(2*gap[1]), 0)
		want := m.deleteRange(key(2*gap[0]), key(2*gap[1]))
		var got []string
		tr.DeleteRange(key(2*gap[0]), key(2*gap[1]), func(k string, _ int) { got = append(got, k) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("gap %v: removed %d keys, model %d", gap, len(got), len(want))
		}
		mustCheck(t, &tr, m, fmt.Sprint("after cutting ", gap))
		// Refill the gap alternately through both fingers and none.
		for i := gap[0]; i < gap[1] && i < gap[0]+3*fanout; i++ {
			k := key(2*i + 1)
			tr.Set(k, i, [...]*Hint[int]{&before, &after, nil}[i%3])
			m.set(k, i)
			if v, ok := tr.Get(k); !ok || v != i {
				t.Fatalf("gap %v: %q written through a finger is not where a descent looks", gap, k)
			}
		}
		mustCheck(t, &tr, m, fmt.Sprint("after refilling ", gap))
		equalScan(t, &tr, m, "", "", "after refilling")
	}
}

// A cut that takes the head of a leaf moves that leaf's fence, and the
// separator routing to it, up to its new first key: the vacated range
// goes to the leaf before, so a hinted run written back into it — a
// timeline computed again after its eviction — stays in the hinted leaf
// from its first key to its last instead of descending at a stale fence.
func TestCutTakesLeafHead(t *testing.T) {
	var tr Tree[int]
	m := newModel()
	row := func(u, i int) string { return fmt.Sprintf("t|u%03d|%06d", u, i) }
	var h Hint[int]
	for u := 0; u < 10; u++ { // sorted: full leaves, which straddle timelines
		for i := 0; i < 200; i++ {
			tr.Set(row(u, i), i, &h)
			m.set(row(u, i), i)
		}
	}
	lo, hi := "t|u005|", "t|u005}"
	head := tr.descend(row(6, 0), nil)
	if head.lo < lo || head.lo >= hi {
		t.Fatalf("set-up: the leaf holding u006's first row starts at %q, not inside u005's rows", head.lo)
	}
	m.deleteRange(lo, hi)
	tr.DeleteRange(lo, hi, nil)
	mustCheck(t, &tr, m, "after the cut")
	if head.dead || head.lo != row(6, 0) {
		t.Fatalf("the leaf whose head went has fence %q, want %q", head.lo, row(6, 0))
	}
	var w Hint[int]
	for i := 0; i < 200; i++ {
		k := row(5, i)
		if i > 0 && !w.lf.covers(k) {
			t.Fatalf("row %d of the rewritten timeline is outside the hinted leaf [%q, %q)", i, w.lf.lo, w.lf.next.lo)
		}
		tr.Set(k, i, &w)
		m.set(k, i)
	}
	mustCheck(t, &tr, m, "after the rewrite")
	equalScan(t, &tr, m, "", "", "after the rewrite")
}

func TestDeleteRangeShapes(t *testing.T) {
	build := func(n int) (*Tree[int], *model) {
		tr, m := &Tree[int]{}, newModel()
		for i := 0; i < n; i++ {
			tr.Set(key(i), i, nil)
			m.set(key(i), i)
		}
		return tr, m
	}
	const n = 70 * fanout
	cases := [][2]string{
		{"", ""}, {"", key(10)}, {key(10), key(10)}, {key(20), key(10)}, {key(5), key(6)},
		{key(fanout), key(2 * fanout)}, {key(fanout - 1), key(2*fanout + 1)},
		{key(3), key(n - 3)}, {key(n - 10), ""}, {"zzz", ""}, {key(n / 2), key(n/2 + 40*fanout)},
	}
	for _, c := range cases {
		tr, m := build(n)
		want := m.deleteRange(c[0], c[1])
		if c[1] != "" && c[1] <= c[0] {
			want = nil
		}
		var got []string
		if r := tr.DeleteRange(c[0], c[1], func(k string, v int) { got = append(got, k) }); r != len(want) || len(got) != len(want) {
			t.Fatalf("DeleteRange(%q, %q) = %d with %d callbacks, model %d", c[0], c[1], r, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DeleteRange(%q, %q) callback %d got %q, model %q", c[0], c[1], i, got[i], want[i])
			}
		}
		mustCheck(t, tr, m, fmt.Sprintf("DeleteRange(%q, %q)", c[0], c[1]))
		equalScan(t, tr, m, "", "", "after DeleteRange")
	}
}

// A scan whose callback writes to the tree it is scanning visits every
// key that was there throughout exactly once, in order.
func TestAscendSurvivesWrites(t *testing.T) {
	var tr Tree[int]
	const n = 10 * fanout
	for i := 0; i < n; i++ {
		tr.Set(key(10*i), i, nil)
	}
	var seen []string
	step := 0
	tr.Ascend("", "", func(k string, _ int) bool {
		seen = append(seen, k)
		switch step++; step % 4 {
		case 0:
			tr.Set(k+"+", 0, nil) // right behind the cursor's key: not below it
		case 1:
			tr.Set("a"+k, 0, nil) // far behind
		case 2:
			tr.Delete(k) // the cursor's own key
		case 3:
			tr.DeleteRange("a", "b", nil)
		}
		return true
	})
	var stable []string
	for _, k := range seen {
		if len(k) == len(key(0)) {
			stable = append(stable, k)
		}
	}
	if len(stable) != n || !sort.StringsAreSorted(seen) {
		t.Fatalf("scan under writes saw %d of the %d stable keys, sorted %v", len(stable), n, sort.StringsAreSorted(seen))
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Emptying the tree from inside the scan ends it.
	calls := 0
	tr.Ascend("", "", func(string, int) bool { calls++; tr.DeleteRange("", "", nil); return true })
	if calls != 1 || tr.Len() != 0 {
		t.Fatalf("scan went on for %d calls after the tree emptied", calls)
	}
}

func sameInt(a, b int) bool { return a == b }

// SetUnless with an equal value is a lookup: the value, the pair count,
// the node counts and the generation a scan re-seeks on all stay put,
// and the hint moves to the leaf holding the key, as a write's would.
// An unequal value, or a nil test, writes as Set does.
func TestSetUnless(t *testing.T) {
	var tr Tree[int]
	const n = 10 * fanout
	for i := 0; i < n; i++ {
		tr.Set(key(i), i, nil)
	}
	leaves, inners := tr.Nodes()
	var h Hint[int]
	tr.Set(key(0), 0, &h)
	gen := tr.gen
	if old, existed, kept := tr.SetUnless(key(n-1), n-1, &h, sameInt); !existed || !kept || old != n-1 {
		t.Fatalf("equal SetUnless = %d, %v, %v", old, existed, kept)
	}
	if l, in := tr.Nodes(); tr.gen != gen || tr.Len() != n || l != leaves || in != inners {
		t.Fatalf("a kept write changed the tree: gen %d → %d, %d pairs, %d/%d nodes", gen, tr.gen, tr.Len(), l, in)
	}
	if _, found := h.lf.search(key(n - 1)); !h.lf.covers(key(n-1)) || !found {
		t.Fatalf("the hint stayed on leaf %q, not the one holding the key", h.lf.lo)
	}
	if _, _, kept := tr.SetUnless(key(3), -3, nil, sameInt); kept {
		t.Fatal("an unequal value was kept")
	}
	if _, _, kept := tr.SetUnless(key(4), 4, nil, nil); kept {
		t.Fatal("a nil test kept a value")
	}
	if v, _ := tr.Get(key(3)); v != -3 {
		t.Fatalf("unequal SetUnless left %d", v)
	}
	if _, existed, kept := tr.SetUnless(key(n), n, nil, sameInt); existed || kept || tr.Len() != n+1 {
		t.Fatalf("a fresh key: existed %v, kept %v, %d pairs", existed, kept, tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}

	// A scan whose callback re-puts each value it is given never sees
	// the generation move, so it never seeks again.
	visited := 0
	tr.Ascend("", "", func(k string, v int) bool {
		before := tr.gen
		tr.SetUnless(k, v, &h, sameInt)
		if tr.gen != before {
			t.Fatalf("re-putting %q moved the generation", k)
		}
		visited++
		return true
	})
	if visited != n+1 {
		t.Fatalf("scan visited %d of %d keys", visited, n+1)
	}
}

// TestRandomOpsAgainstModel drives every operation, hints held across
// whatever happens to their leaves, with Check after every step.
//
// Scans also start from every hint, and from fingers into a second tree
// over the same keys, and must return what a descent finds: the finger
// is honoured only on a live leaf of the tree that covers lo.
func TestRandomOpsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tr, other Tree[int]
		m := newModel()
		hints := make([]Hint[int], 8)
		foreign := make([]Hint[int], 2)
		var uses [hintUnset + 1]int
		space := 400 << (2 * uint(seed-1)) // 400 .. 25 600 keys: one to three levels
		steps := 6000
		for step := 0; step < steps; step++ {
			k := key(rng.Intn(space))
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 9:
				var h *Hint[int]
				if rng.Intn(3) > 0 {
					h = &hints[rng.Intn(len(hints))]
				}
				run := 1
				if rng.Intn(4) == 0 {
					run = 1 + rng.Intn(3*fanout) // an ascending burst
				}
				for i := 0; i < run; i++ {
					kk := k
					if i > 0 {
						kk = fmt.Sprintf("%s.%04d", k, i)
					}
					old, existed := tr.Set(kk, step, h)
					mold, mexisted := m.set(kk, step)
					if existed != mexisted || old != mold {
						t.Fatalf("%s: Set(%q) = %d, %v; model %d, %v", when, kk, old, existed, mold, mexisted)
					}
				}
			case op < 14:
				v, ok := tr.Delete(k)
				mv, mok := m.vals[k]
				if ok != mok || v != mv {
					t.Fatalf("%s: Delete(%q) = %d, %v; model %d, %v", when, k, v, ok, mv, mok)
				}
				m.deleteRange(k, k+"\x00")
			case op < 16:
				lo, hi := k, key(rng.Intn(space))
				if rng.Intn(2) == 0 {
					hi = key(rng.Intn(space/8+1) + rng.Intn(space))
				}
				want := m.deleteRange(lo, hi)
				if hi <= lo {
					want = nil
				}
				i := 0
				got := tr.DeleteRange(lo, hi, func(k string, _ int) {
					if i >= len(want) || want[i] != k {
						t.Fatalf("%s: DeleteRange callback %d got %q", when, i, k)
					}
					i++
				})
				if got != len(want) {
					t.Fatalf("%s: DeleteRange(%q, %q) = %d, model %d", when, lo, hi, got, len(want))
				}
			case op < 18:
				v, ok := tr.Get(k)
				mv, mok := m.vals[k]
				if ok != mok || v != mv {
					t.Fatalf("%s: Get(%q) = %d, %v; model %d, %v", when, k, v, ok, mv, mok)
				}
				if mok && rng.Intn(2) == 0 { // re-put the value it holds
					h := &hints[rng.Intn(len(hints))]
					if old, existed, kept := tr.SetUnless(k, mv, h, sameInt); !existed || !kept || old != mv || !h.lf.covers(k) {
						t.Fatalf("%s: equal SetUnless(%q) = %d, %v, %v; hint covers it %v", when, k, old, existed, kept, h.lf.covers(k))
					}
				}
			case op < 19:
				lo, hi := k, key(rng.Intn(space))
				if hi < lo {
					lo, hi = hi, lo
				}
				equalScan(t, &tr, m, lo, hi, when)
			default:
				// A hinted scan, from every finger, the foreign ones after
				// a write that lands them on a leaf of other covering k.
				for i := range foreign {
					other.Set(key(rng.Intn(space)), -1, &foreign[i])
				}
				other.Set(k, -1, &foreign[0])
				hi := ""
				if rng.Intn(4) > 0 {
					hi = key(rng.Intn(space/8+1) + rng.Intn(space))
				}
				for i := range hints {
					uses[equalHintedScan(t, &tr, m, k, hi, &hints[i], when)]++
				}
				for i := range foreign {
					uses[equalHintedScan(t, &tr, m, k, hi, &foreign[i], when)]++
				}
			}
			mustCheck(t, &tr, m, when)
		}
		for u, n := range uses[:hintUnset] {
			if n == 0 {
				t.Fatalf("seed %d: no hinted scan saw a hint of kind %d", seed, u)
			}
		}
		equalScan(t, &tr, m, "", "", "final")
		tr.DeleteRange("", "", nil)
		m.deleteRange("", "")
		mustCheck(t, &tr, m, "emptied")
	}
}

func TestCheckCatchesDamage(t *testing.T) {
	build := func() *Tree[int] {
		tr := &Tree[int]{}
		for i := 0; i < 70*fanout; i++ {
			tr.Set(key(i), i, nil)
		}
		return tr
	}
	second := func(tr *Tree[int]) *leaf[int] { return tr.first.next }
	damage := map[string]func(tr *Tree[int]){
		"size":        func(tr *Tree[int]) { tr.size++ },
		"leaf count":  func(tr *Tree[int]) { tr.leaves++ },
		"arena count": func(tr *Tree[int]) { tr.arenas++ },
		"order":       func(tr *Tree[int]) { lf := second(tr); lf.offs[1], lf.offs[2] = lf.offs[2], lf.offs[1] },
		"fence":       func(tr *Tree[int]) { second(tr).lo += "x" },
		"key below":   func(tr *Tree[int]) { lf := second(tr); lf.arena[lf.offs[0]+1] = 0 },
		"dead":        func(tr *Tree[int]) { second(tr).dead = true },
		"offsets":     func(tr *Tree[int]) { lf := second(tr); lf.offs[2] = lf.offs[1] },
		"garbage":     func(tr *Tree[int]) { second(tr).garbage++ },
		"back link":   func(tr *Tree[int]) { second(tr).prev = nil },
		"chain skips": func(tr *Tree[int]) { tr.first.next = second(tr).next },
		"chain too far": func(tr *Tree[int]) {
			l := tr.first
			for l.next != nil {
				l = l.next
			}
			l.next = &leaf[int]{}
		},
		"above fence": func(tr *Tree[int]) { lf := tr.first; lf.arena[lf.offs[lf.n-1]+1] = 0xff },
		"lone root":   func(tr *Tree[int]) { tr.root.in.n = 1 },
		"bad child":   func(tr *Tree[int]) { tr.root.in.vals[0].in.vals[0].in = &inner[int]{} },
		"bad inner":   func(tr *Tree[int]) { tr.root.in.vals[0].lf = tr.first },
		"ghost":       func(tr *Tree[int]) { *tr = Tree[int]{size: 1} },
	}
	if err := build().Check(); err != nil {
		t.Fatal(err)
	}
	for name, fn := range damage {
		tr := build()
		fn(tr)
		if tr.Check() == nil {
			t.Errorf("Check missed damage: %s", name)
		}
	}
}

// TestNodeSizeClasses pins what internal/store charges per node: the heap
// spends exactly the allocation size classes named there on a packed
// leaf of pointer values (its arena is charged apart, at its own
// capacity) and on an interior node, and one more pair would push a leaf
// into the next class.
func TestNodeSizeClasses(t *testing.T) {
	const n = 1000
	leaves, inners := make([]*leaf[*int], n), make([]*inner[*int], n)
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range leaves {
		leaves[i] = &leaf[*int]{}
	}
	runtime.ReadMemStats(&m1)
	for i := range inners {
		inners[i] = &inner[*int]{}
	}
	runtime.ReadMemStats(&m2)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / n; got != 768 {
		t.Errorf("the heap spends %d bytes on a leaf, want 768", got)
	}
	if got := (m2.TotalAlloc - m1.TotalAlloc) / n; got != 2048 {
		t.Errorf("the heap spends %d bytes on an interior node, want 2048", got)
	}
	const header, pair = 8, 11 // Go's header on large pointerful objects; pointer, offset, length
	if size := unsafe.Sizeof(leaf[*int]{}); size+header+pair <= 768 {
		t.Errorf("a leaf is %d bytes: its size class has room for a larger fanout", size)
	}
	runtime.KeepAlive(leaves)
	runtime.KeepAlive(inners)
}
