package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pequod/internal/keys"
)

// storeModel is the sorted-slice reference a Store is compared with: the
// keys in order, and which *Value each holds.
type storeModel struct {
	keys []string
	vals map[string]*Value
}

func (m *storeModel) put(k string, v *Value) *Value {
	old := m.vals[k]
	if old != nil && old.String() == v.String() {
		return old // equal contents: the store keeps the value it holds
	}
	if old == nil {
		i := sort.SearchStrings(m.keys, k)
		m.keys = append(m.keys, "")
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = k
	}
	m.vals[k] = v
	return old
}

func (m *storeModel) rng(lo, hi string) (i, j int) {
	i, j = sort.SearchStrings(m.keys, lo), len(m.keys)
	if hi != "" {
		j = max(i, sort.SearchStrings(m.keys, hi))
	}
	return i, j
}

func (m *storeModel) removeRange(lo, hi string) []string {
	i, j := m.rng(lo, hi)
	gone := append([]string(nil), m.keys[i:j]...)
	for _, k := range gone {
		delete(m.vals, k)
	}
	m.keys = append(m.keys[:i], m.keys[j:]...)
	return gone
}

// opTables holds "p" and "page": a table name that is a proper prefix of
// another, so the store's order across tables is held to byte order,
// where "page|1" sorts before "p|1".
var opTables = [...]string{"p", "s", "t", "page"}

// runStoreOps interprets data as a stream of store operations, applies
// each to a Store and to the model, and after every one checks the
// store's structure and counters (Store.Check) and its size; reads and
// floor probes compare contents. Four hints are used and reused
// throughout, whatever has happened to the leaves they point at: splits,
// the leaf's deletion, writes and scans in another table.
func runStoreOps(t testing.TB, data []byte) {
	s := New()
	m := &storeModel{vals: map[string]*Value{}}
	var hints [4]Hint
	other, foreign := New(), Hint{}
	shared := [...]*Value{NewValue("a shared tweet"), NewValue("another"), NewValue("")}

	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// An existing key more often than not, so removals and replacements
	// hit; otherwise one of 4 tables × 4 users × 65 536 sequence numbers.
	pick := func() string {
		a, seq := next(), next()<<8|next()
		if a&1 == 1 && len(m.keys) > 0 {
			return m.keys[seq%len(m.keys)]
		}
		return fmt.Sprintf("%s|u%d|%05d", opTables[(a>>1)%4], (a>>3)%4, seq)
	}
	value := func(step int) *Value {
		if b := next(); b%3 > 0 {
			return shared[b%len(shared)]
		}
		return NewValue(fmt.Sprint("v", step))
	}
	put := func(step int, k string, v *Value, h *Hint) {
		t.Helper()
		old, _ := s.PutHint(k, v, h)
		if want := m.put(k, v); old != want {
			t.Fatalf("step %d: put %q replaced %v, model %v", step, k, old, want)
		}
		if h != nil && !h.Valid() {
			t.Fatalf("step %d: hint invalid right after a put through it", step)
		}
	}

	for step := 0; len(data) > 0; step++ {
		switch op := next() % 16; op {
		case 0, 1:
			put(step, pick(), value(step), nil)
		case 2, 3:
			put(step, pick(), value(step), &hints[next()%len(hints)])
		case 4, 5: // an ascending burst through one hint, long enough to split leaves
			k, v, h := pick(), value(step), &hints[next()%len(hints)]
			for i, n := 0, 1+next(); i < n; i++ {
				put(step, fmt.Sprintf("%s+%03d", k, i), v, h)
			}
		case 6, 7, 8:
			k := pick()
			old, ok := s.Remove(k)
			if want := m.vals[k]; old != want || ok != (want != nil) {
				t.Fatalf("step %d: remove %q gave %v, %v; model %v", step, k, old, ok, want)
			}
			m.removeRange(k, k+"\x00")
		case 9, 10:
			lo, hi := pick(), pick()
			if hi < lo {
				lo, hi = hi, lo
			}
			if next()%8 == 0 {
				hi = "" // to the end of the store, across tables
			}
			want, i := m.removeRange(lo, hi), 0
			n := s.RemoveRange(lo, hi, func(k string, v *Value) {
				if i >= len(want) || want[i] != k || v == nil {
					t.Fatalf("step %d: RemoveRange(%q, %q) callback %d got %q", step, lo, hi, i, k)
				}
				i++
			})
			if n != len(want) || i != n {
				t.Fatalf("step %d: RemoveRange(%q, %q) = %d with %d callbacks, model %d", step, lo, hi, n, i, len(want))
			}
		case 11:
			k := pick()
			if v, ok := s.Get(k); v != m.vals[k] || ok != (v != nil) {
				t.Fatalf("step %d: get %q gave %v, %v; model %v", step, k, v, ok, m.vals[k])
			}
		case 12:
			lo, hi := pick(), pick()
			if hi < lo {
				lo, hi = hi, lo
			}
			equalStoreScan(t, s, m, lo, hi, step)
		case 13: // the floor probe: the last key at or below k, else the first above
			k := pick()
			want := ""
			if i := sort.SearchStrings(m.keys, k); i < len(m.keys) && m.keys[i] == k {
				want = k
			} else if i > 0 {
				want = m.keys[i-1]
			} else if len(m.keys) > 0 {
				want = m.keys[0]
			}
			got := ""
			s.tree.AscendFloor(k, "", func(fk string, _ *Value) bool { got = fk; return false })
			if got != want {
				t.Fatalf("step %d: floor probe at %q starts at %q, model %q", step, k, got, want)
			}
		case 14:
			// A scan started from a hint — live or freed, in lo's timeline
			// or a neighbouring one or another table, covering lo or not —
			// or from a finger into another store, to the end of lo's user
			// or to another key: the same rows as a descent.
			lo := pick()
			hi := keys.PrefixEnd(lo[:strings.LastIndexByte(lo, '|')+1])
			if b := next(); b%2 == 0 {
				hi = pick()
			}
			var h *Hint
			switch b := next() % 6; {
			case b < 4:
				h = &hints[b]
			case b == 4:
				h = &foreign
				other.PutHint(lo, NewValue("elsewhere"), h)
			}
			equalHintedScan(t, s, m, lo, hi, h, step)
		case 15:
			// An equal value re-put — the value itself or a copy of it —
			// leaves the stored *Value, its references and Bytes() alone.
			k := pick()
			cur := m.vals[k]
			if cur == nil {
				break
			}
			v := cur
			if next()%2 == 0 {
				v = NewValue(cur.String())
			}
			h := &hints[next()%len(hints)]
			refs, bytes := cur.Refs(), s.Bytes()
			if old, changed := s.PutHint(k, v, h); old != cur || changed || !h.Valid() {
				t.Fatalf("step %d: equal re-put of %q gave %v, changed %v, hint valid %v; model %v", step, k, old, changed, h.Valid(), cur)
			}
			if cur.Refs() != refs || s.Bytes() != bytes || (v != cur && v.Refs() != 0) {
				t.Fatalf("step %d: equal re-put of %q moved refs %d → %d, bytes %d → %d", step, k, refs, cur.Refs(), bytes, s.Bytes())
			}
		}
		if err := s.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.Len() != len(m.keys) {
			t.Fatalf("step %d: Len %d, model %d", step, s.Len(), len(m.keys))
		}
	}
	equalStoreScan(t, s, m, "", "", -1)
	s.RemoveRange("", "", nil)
	if err := s.Check(); err != nil || s.Len() != 0 {
		t.Fatalf("emptied store: %d keys, %v", s.Len(), err)
	}
	for _, v := range shared {
		if v.Refs() != 0 {
			t.Fatalf("shared value %q keeps %d references in an empty store", v, v.Refs())
		}
	}
}

func equalStoreScan(t testing.TB, s *Store, m *storeModel, lo, hi string, step int) {
	t.Helper()
	i, j := m.rng(lo, hi)
	want := m.keys[i:j]
	var got, runs []string
	s.Scan(lo, hi, func(k string, v *Value) bool {
		if v != m.vals[k] {
			t.Fatalf("step %d: scan gives %q the wrong value", step, k)
		}
		got = append(got, k)
		return true
	})
	s.ScanRuns(lo, hi, 0, nil, func(run Keys, vs []*Value, _ int) bool {
		ks := runKeys(run)
		for x, k := range ks {
			if vs[x] != m.vals[k] {
				t.Fatalf("step %d: run gives %q the wrong value", step, k)
			}
		}
		runs = append(runs, ks...)
		return true
	})
	if c := s.CountRange(lo, hi); c != len(want) {
		t.Fatalf("step %d: CountRange(%q, %q) = %d, model %d", step, lo, hi, c, len(want))
	}
	for name, g := range map[string][]string{"Scan": got, "ScanRuns": runs} {
		if len(g) != len(want) {
			t.Fatalf("step %d: %s(%q, %q) gave %d keys, model %d", step, name, lo, hi, len(g), len(want))
		}
		for x := range want {
			if g[x] != want[x] {
				t.Fatalf("step %d: %s(%q, %q) key %d is %q, model %q", step, name, lo, hi, x, g[x], want[x])
			}
		}
	}
}

// runKeys returns the keys of a run as a slice.
func runKeys(run Keys) []string {
	ks := make([]string, run.Len())
	for i := range ks {
		ks[i] = run.At(i)
	}
	return ks
}

// equalHintedScan checks ScanRuns from h against the model.
func equalHintedScan(t testing.TB, s *Store, m *storeModel, lo, hi string, h *Hint, step int) {
	t.Helper()
	i, j := m.rng(lo, hi)
	want := m.keys[i:j]
	var got []string
	s.ScanRuns(lo, hi, 0, h, func(run Keys, vs []*Value, _ int) bool {
		ks := runKeys(run)
		for x, k := range ks {
			if vs[x] != m.vals[k] {
				t.Fatalf("step %d: hinted run gives %q the wrong value", step, k)
			}
		}
		got = append(got, ks...)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("step %d: ScanRuns(%q, %q) from a hint gave %d keys %q, model %d %q", step, lo, hi, len(got), got, len(want), want)
	}
}

// TestStoreOpsAgainstModel is the property test: long pseudo-random
// operation streams, each behind a preamble of bursts into one table so
// that the tree is three levels deep when the removals start to bite.
func TestStoreOpsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var data []byte
		for i := 0; i < 60; i++ {
			data = append(data, 4, 4, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(4)), byte(rng.Intn(256)))
		}
		random := make([]byte, 10000)
		rng.Read(random)
		runStoreOps(t, append(data, random...))
	}
}

// FuzzStoreOps lets the fuzzer write the operation stream.
func FuzzStoreOps(f *testing.F) {
	burst := func(hint, n byte) []byte { return []byte{4, 4, 0, 7, 1, hint, n} } // t|u0|00007+000.. through hint
	seeds := [][]byte{
		nil,
		// A hint held across the splits its own burst causes, then reused.
		append(append(burst(1, 255), burst(1, 255)...), 2, 4, 0, 7, 0, 1),
		// ...across the deletion of its leaf (RemoveRange to the end of the store).
		append(burst(2, 200), 9, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 9, 0, 2),
		// ...across a burst into another table (page|u0|), then a write
		// back into t|u0| and scans from it: in its timeline, and from
		// page|u0| to t|u0|, across tables.
		append(burst(3, 90), 4, 6, 0, 7, 1, 3, 60, 2, 4, 0, 8, 0, 3, 14, 4, 0, 7, 1, 3, 14, 6, 0, 7, 0, 4, 0, 9, 3),
		// Neighbouring tables page|u1| and p|u1|, a range cut across them,
		// a scan, and a scan from a page| hint to t|.
		{4, 14, 0, 1, 0, 0, 40, 4, 8, 0, 1, 1, 1, 40, 0, 4, 0, 3, 0, 10, 8, 0, 20, 14, 0, 30, 1,
			12, 0, 0, 0, 5, 255, 255, 14, 14, 0, 1, 0, 4, 0, 9, 0},
		// Scans from a hint: one on the leaf holding lo, one behind it, a
		// finger into another store, and none.
		append(burst(1, 255), 14, 5, 0, 250, 1, 1, 14, 4, 0, 7, 1, 1, 14, 5, 0, 250, 1, 4, 14, 5, 0, 3, 0, 5, 0, 200, 5),
		// ...from a hint whose leaf was freed.
		append(append(burst(2, 200), 9, 0, 0, 0, 0, 0, 0, 0), 4, 4, 0, 9, 1, 0, 40, 14, 5, 0, 20, 1, 2),
		// ...from a hint in the neighbouring timeline (t|u0| beside t|u1|).
		append(burst(3, 120), 4, 12, 0, 5, 1, 0, 100, 14, 12, 0, 0, 1, 3, 14, 13, 0, 151, 1, 3),
		// ...from a live hint covering lo, over a range that reaches past
		// its table (s|u0| rows, then t|u0| rows).
		append(append([]byte{4, 2, 0, 7, 1, 1, 100}, burst(2, 50)...), 14, 3, 0, 95, 0, 4, 0, 9, 1),
	}
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 600)
	rng.Read(random)
	seeds = append(seeds, random)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // Check is O(n) per step
		}
		runStoreOps(t, data)
	})
}
