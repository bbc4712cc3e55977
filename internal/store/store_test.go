package store

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pequod/internal/keys"
)

func TestPutGetRemove(t *testing.T) {
	s := New()
	if _, ok := s.Get("p|bob|100"); ok {
		t.Fatal("get on empty store")
	}
	s.Put("p|bob|100", NewValue("Hi"))
	v, ok := s.Get("p|bob|100")
	if !ok || v.String() != "Hi" {
		t.Fatal("get after put")
	}
	old, _ := s.Put("p|bob|100", NewValue("Hello"))
	if old == nil || old.String() != "Hi" {
		t.Fatal("replace should return old value")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	rv, ok := s.Remove("p|bob|100")
	if !ok || rv.String() != "Hello" {
		t.Fatal("remove")
	}
	if _, ok := s.Get("p|bob|100"); ok || s.Len() != 0 {
		t.Fatal("get after remove")
	}
	if _, ok := s.Remove("p|bob|100"); ok {
		t.Fatal("double remove")
	}
	if _, ok := s.Remove("zz|nothere"); ok {
		t.Fatal("remove from absent table")
	}
}

func TestScanOrderAcrossTables(t *testing.T) {
	s := New()
	in := []string{"s|ann|bob", "p|bob|100", "t|ann|100|bob", "p|ann|050", "s|ann|liz"}
	for _, k := range in {
		s.Put(k, NewValue(""))
	}
	var got []string
	s.Scan("", "", func(k string, v *Value) bool {
		got = append(got, k)
		return true
	})
	want := append([]string(nil), in...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestScanBounds(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("t|ann|%03d", i), NewValue(""))
		s.Put(fmt.Sprintf("t|bob|%03d", i), NewValue(""))
	}
	var got []string
	s.Scan("t|ann|003", "t|ann|007", func(k string, v *Value) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 4 || got[0] != "t|ann|003" || got[3] != "t|ann|006" {
		t.Fatalf("bounded scan = %v", got)
	}
	// Cross-boundary scan touches both users.
	if c := s.CountRange("t|ann|008", "t|bob|002"); c != 4 {
		t.Fatalf("cross-user count = %d", c)
	}
	// Early stop.
	calls := 0
	s.Scan("t|", "", func(k string, v *Value) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop: %d", calls)
	}
}

func TestValueSharingAccounting(t *testing.T) {
	s := New()
	v := NewValue("a-tweet-of-some-length")
	base := s.Bytes()
	s.Put("t|ann|100|bob", v)
	afterOne := s.Bytes() - base
	s.Put("t|liz|100|bob", v)
	s.Put("t|pat|100|bob", v)
	afterThree := s.Bytes() - base
	if v.Refs() != 3 {
		t.Fatalf("refs = %d", v.Refs())
	}
	// Sharing: the payload is counted once; the growth from one to three
	// entries must be less than 3x the single-entry cost.
	perEntryShared := (afterThree - afterOne) / 2
	if perEntryShared >= afterOne {
		t.Fatalf("sharing saved nothing: first=%d, later=%d", afterOne, perEntryShared)
	}
	// Removing two keys keeps the payload accounted (one ref left).
	s.Remove("t|ann|100|bob")
	s.Remove("t|liz|100|bob")
	if v.Refs() != 1 {
		t.Fatalf("refs after removes = %d", v.Refs())
	}
	s.Remove("t|pat|100|bob")
	if v.Refs() != 0 {
		t.Fatalf("refs after all removes = %d", v.Refs())
	}
	if s.Bytes() != base {
		t.Fatalf("bytes leaked: %d != %d", s.Bytes(), base)
	}
}

// A put of the contents a key already holds — the same *Value or a copy
// — keeps the stored value: its references and the store's bytes stay,
// the offered value is not retained, and the hint lands where the write
// would have put it. Other contents, or a new key, write.
func TestReplaceSameValueKeepsRefs(t *testing.T) {
	s := New()
	v := NewValue("a tweet")
	s.Put("t|ann|100|bob", v)
	s.Put("t|liz|100|bob", v)
	for i := 0; i < 200; i++ {
		s.Put(fmt.Sprintf("t|ann|%03d|cat", i), NewValue("other"))
	}
	var h Hint
	s.PutHint("t|ann|000|cat", NewValue("other"), &h) // a finger on the first leaf
	bytes := s.Bytes()
	copyOf := NewValue("a tweet")
	for _, offered := range []*Value{v, copyOf} {
		if old, changed := s.PutHint("t|liz|100|bob", offered, &h); changed || old != v {
			t.Fatalf("equal put: old %v, changed %v", old, changed)
		}
	}
	if got, _ := s.Get("t|liz|100|bob"); got != v || v.Refs() != 2 || copyOf.Refs() != 0 || s.Bytes() != bytes {
		t.Fatalf("equal put stored %p (want %p), refs %d and %d, bytes %d → %d", got, v, v.Refs(), copyOf.Refs(), bytes, s.Bytes())
	}
	var probe Hint
	s.PutHint("t|liz|100|bob", v, &probe)
	if h != probe {
		t.Fatal("the hint is not on the leaf holding the key")
	}
	if old, changed := s.Put("t|liz|100|bob", NewValue("edited")); !changed || old != v || v.Refs() != 1 {
		t.Fatalf("unequal put: old %v, changed %v, refs %d", old, changed, v.Refs())
	}
	if old, changed := s.Put("t|pat|100|bob", v); !changed || old != nil || v.Refs() != 2 {
		t.Fatalf("fresh put: old %v, changed %v, refs %d", old, changed, v.Refs())
	}
}

func TestPutHint(t *testing.T) {
	s := New()
	h := &Hint{}
	// Monotone inserts through a hint (the timeline-append pattern).
	for i := 0; i < 1000; i++ {
		s.PutHint(fmt.Sprintf("t|ann|%04d", i), NewValue("v"), h)
	}
	if !h.Valid() {
		t.Fatal("hint should be valid")
	}
	if c := s.CountRange("t|ann|", "t|ann}"); c != 1000 {
		t.Fatalf("count = %d", c)
	}
	// Hint survives interleaved unrelated writes.
	s.Put("zz|other", NewValue(""))
	s.PutHint("t|ann|9999", NewValue("v"), h)
	if _, ok := s.Get("t|ann|9999"); !ok {
		t.Fatal("hinted put after unrelated write")
	}
	// A hint on a p| leaf used for t| writes: each write lands where a
	// descent puts it, and the hint follows it across the tables.
	s2 := New()
	h2 := &Hint{}
	for i := 0; i < 200; i++ {
		s2.PutHint(fmt.Sprintf("p|bob|%03d", i), NewValue("v"), h2)
	}
	for _, u := range []string{"ann", "bob", "cat"} {
		for i := 0; i < 100; i++ {
			s2.PutHint(fmt.Sprintf("t|%s|%03d", u, i), NewValue("v"), h2)
		}
	}
	if c, p := s2.CountRange("t|", "t}"), s2.CountRange("p|", "p}"); c != 300 || p != 200 {
		t.Fatalf("hinted counts: %d t| rows, %d p| rows", c, p)
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
	// Removal kills the hint; next hinted put falls back cleanly.
	s2.RemoveRange("t|cat|", "t|cat}", nil)
	s2.PutHint("t|cat|500", NewValue("v"), h2)
	if _, ok := s2.Get("t|cat|500"); !ok {
		t.Fatal("hinted put after range removal")
	}
}

func TestRemoveRange(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("a|%02d", i), NewValue("v"))
	}
	var removed []string
	n := s.RemoveRange("a|05", "a|15", func(k string, v *Value) {
		removed = append(removed, k)
	})
	if n != 10 || len(removed) != 10 || removed[0] != "a|05" {
		t.Fatalf("RemoveRange = %d, %v", n, removed)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestScanAllocations pins what a read of packed leaves allocates:
// nothing. A count builds no key, and a run scan hands out keys that
// are views of the leaves' arenas, so a range of 4 leaves and one of
// about 50 cost the same zero allocations.
func TestScanAllocations(t *testing.T) {
	s := New()
	v := NewValue("tweet")
	var h Hint
	for i := 0; i < 3000; i++ {
		s.PutHint(fmt.Sprintf("t|%s|%010d|%s", uid(7), i, uid(i%40)), v, &h)
		s.Put(fmt.Sprintf("s|%s|%s", uid(i), uid(7)), v)
	}
	if leaves, _ := s.Nodes(); leaves < 90 {
		t.Fatalf("%d leaves hold the rows", leaves)
	}
	lo, hi := "t|"+uid(7)+"|", "t|"+uid(7)+"}"
	rows := 0
	count := func() { rows = s.CountRange("p|", "t}") }
	scan := func(lo, hi string) func() {
		return func() {
			rows = 0
			s.ScanRuns(lo, hi, 0, nil, func(ks Keys, _ []*Value, _ int) bool { rows += ks.Len(); return true })
		}
	}
	for _, c := range []struct {
		name string
		read func()
		rows int
	}{
		{"count", count, 6000},
		{"scan of 200 rows in 4 leaves", scan(lo+fmt.Sprintf("%010d", 1000), lo+fmt.Sprintf("%010d", 1200)), 200},
		{"scan of 3000 rows in about 50 leaves", scan(lo, hi), 3000},
	} {
		if n := testing.AllocsPerRun(100, c.read); n != 0 || rows != c.rows {
			t.Errorf("%s: %d rows, %v allocations per read, want %d and none", c.name, rows, n, c.rows)
		}
	}
}

func TestTablesIteration(t *testing.T) {
	s := New()
	s.Put("b|1", NewValue(""))
	s.Put("a|1", NewValue(""))
	s.Put("c|1", NewValue(""))
	// A whole-store scan visits the tables in name order.
	var names []string
	s.Scan("", "", func(k string, _ *Value) bool {
		names = append(names, keys.Table(k))
		return true
	})
	if !slices.Equal(names, []string{"a", "b", "c"}) {
		t.Fatalf("tables scanned = %v", names)
	}
}

func BenchmarkPutFlat(b *testing.B) {
	s := New()
	ks := make([]string, b.N)
	for i := range ks {
		ks[i] = fmt.Sprintf("t|u%05d|%09d", i%1000, i)
	}
	v := NewValue("value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(ks[i], v)
	}
}
