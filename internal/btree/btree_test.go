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
	tr.AscendRuns(lo, hi, nil, func(ks []string, vs []int, rest int) bool {
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
	tr.AscendRuns(lo, hi, h, func(ks []string, vs []int, rest int) bool {
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
	if _, ok := tr.Get("a"); ok {
		t.Fatal("Get on an empty tree")
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
	if tr.AscendRuns("", "", nil, func([]string, []int, int) bool { n++; return false }) || n != 1 {
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
				if mv, mok := m.vals[k]; ok != mok || v != mv {
					t.Fatalf("%s: Get(%q) = %d, %v; model %d, %v", when, k, v, ok, mv, mok)
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
		"order":       func(tr *Tree[int]) { lf := second(tr); lf.keys[1], lf.keys[2] = lf.keys[2], lf.keys[1] },
		"fence":       func(tr *Tree[int]) { second(tr).lo += "x" },
		"key below":   func(tr *Tree[int]) { lf := second(tr); lf.keys[0] = tr.first.keys[3] },
		"dead":        func(tr *Tree[int]) { second(tr).dead = true },
		"stale slot":  func(tr *Tree[int]) { lf := second(tr); lf.n--; lf.keys[lf.n-1] = lf.keys[lf.n]; tr.size-- },
		"back link":   func(tr *Tree[int]) { second(tr).prev = nil },
		"chain skips": func(tr *Tree[int]) { tr.first.next = second(tr).next },
		"chain too far": func(tr *Tree[int]) {
			l := tr.first
			for l.next != nil {
				l = l.next
			}
			l.next = &leaf[int]{}
		},
		"above fence": func(tr *Tree[int]) { lf := tr.first; lf.keys[lf.n-1] = second(tr).keys[0] + "x" },
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
// spends exactly the allocation size classes named there on a leaf of
// pointer values and on an interior node, and one more pair would push a
// leaf into the next class.
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
	if got := (m1.TotalAlloc - m0.TotalAlloc) / n; got != 1536 {
		t.Errorf("the heap spends %d bytes on a leaf, want 1536", got)
	}
	if got := (m2.TotalAlloc - m1.TotalAlloc) / n; got != 2048 {
		t.Errorf("the heap spends %d bytes on an interior node, want 2048", got)
	}
	const header, pair = 8, 24 // Go's header on large pointerful objects; string + pointer
	if size := unsafe.Sizeof(leaf[*int]{}); size+header+pair <= 1536 {
		t.Errorf("a leaf is %d bytes: its size class has room for a larger fanout", size)
	}
	runtime.KeepAlive(leaves)
	runtime.KeepAlive(inners)
}
