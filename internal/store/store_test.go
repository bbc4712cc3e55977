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
	old := s.Put("p|bob|100", NewValue("Hello"))
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

func TestSubtables(t *testing.T) {
	s := New()
	s.SetSubtableDepth("t", 2) // shard timelines per user
	users := []string{"ann", "bob", "liz"}
	for _, u := range users {
		for i := 0; i < 20; i++ {
			s.Put(fmt.Sprintf("t|%s|%03d", u, i), NewValue("x"))
		}
	}
	if got := s.SubtableCount("t"); got != 3 {
		t.Fatalf("SubtableCount = %d", got)
	}
	// Point ops work through the hash index.
	if v, ok := s.Get("t|bob|007"); !ok || v.String() != "x" {
		t.Fatal("get in subtable")
	}
	// In-subtable scan.
	if c := s.CountRange("t|bob|", "t|bob}"); c != 20 {
		t.Fatalf("subtable scan count = %d", c)
	}
	// Cross-subtable scan preserves global order.
	var got []string
	s.Scan("t|ann|018", "t|liz|002", func(k string, v *Value) bool {
		got = append(got, k)
		return true
	})
	want := []string{"t|ann|018", "t|ann|019"}
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("t|bob|%03d", i))
	}
	want = append(want, "t|liz|000", "t|liz|001")
	if len(got) != len(want) {
		t.Fatalf("cross-subtable scan: %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cross-subtable order at %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestSubtableResharding(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("t|u%02d|%03d", i%5, i), NewValue("v"))
	}
	before := s.Len()
	s.SetSubtableDepth("t", 2)
	if s.Len() != before {
		t.Fatal("reshard changed length")
	}
	if s.SubtableCount("t") != 5 {
		t.Fatalf("SubtableCount = %d", s.SubtableCount("t"))
	}
	if c := s.CountRange("t|", "t}"); c != before {
		t.Fatalf("count after reshard = %d", c)
	}
	// Reshard back to flat.
	s.SetSubtableDepth("t", 0)
	if c := s.CountRange("t|", "t}"); c != before {
		t.Fatalf("count after unshard = %d", c)
	}
	// Setting the same depth is a no-op.
	s.SetSubtableDepth("t", 0)
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

func TestReplaceSameValueKeepsRefs(t *testing.T) {
	s := New()
	v := NewValue("x")
	s.Put("k|1", v)
	old := s.Put("k|1", v) // re-put same value object
	if old != v || v.Refs() != 1 {
		t.Fatalf("re-put: old=%v refs=%d", old, v.Refs())
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
	// Hint crossing subtables must not corrupt the trees.
	s2 := New()
	s2.SetSubtableDepth("t", 2)
	h2 := &Hint{}
	for _, u := range []string{"ann", "bob", "cat"} {
		for i := 0; i < 100; i++ {
			s2.PutHint(fmt.Sprintf("t|%s|%03d", u, i), NewValue("v"), h2)
		}
	}
	if c := s2.CountRange("t|", "t}"); c != 300 {
		t.Fatalf("subtable hinted count = %d", c)
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
	if tb := s.Table("b"); tb == nil || tb.Len() != 1 {
		t.Fatal("Table lookup")
	}
	if s.Table("zzz") != nil {
		t.Fatal("absent table")
	}
}

func BenchmarkPutFlat(b *testing.B) {
	s := New()
	ks := make([]string, b.N)
	for i := range ks {
		ks[i] = fmt.Sprintf("t|u%05d|%09d", i%1000, i)
	}
	v := NewValue("value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(ks[i], v)
	}
}

func BenchmarkPutSubtables(b *testing.B) {
	s := New()
	s.SetSubtableDepth("t", 2)
	ks := make([]string, b.N)
	for i := range ks {
		ks[i] = fmt.Sprintf("t|u%05d|%09d", i%1000, i)
	}
	v := NewValue("value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(ks[i], v)
	}
}

func BenchmarkGetSubtables(b *testing.B) {
	s := New()
	s.SetSubtableDepth("t", 2)
	const n = 1 << 16
	ks := make([]string, n)
	for i := 0; i < n; i++ {
		ks[i] = fmt.Sprintf("t|u%05d|%09d", i%1000, i)
		s.Put(ks[i], NewValue("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(ks[i&(n-1)])
	}
}
