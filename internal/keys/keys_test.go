package keys

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestPrefixEnd(t *testing.T) {
	cases := []struct{ in, want string }{
		{"t|ann|", "t|ann}"},
		{"p|", "p}"},
		{"a", "b"},
		{"", ""},
		{"a\xff", "b"},
		{"\xff\xff", ""},
		{"t|ann", "t|ano"},
	}
	for _, c := range cases {
		if got := PrefixEnd(c.in); got != c.want {
			t.Errorf("PrefixEnd(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPrefixEndIsLeastUpperBound(t *testing.T) {
	// PrefixEnd(p) must be > every string with prefix p, and no string with
	// prefix p may be >= PrefixEnd(p).
	f := func(p string, suffix string) bool {
		end := PrefixEnd(p)
		if end == "" {
			return true // +inf is trivially an upper bound
		}
		k := p + suffix
		return k < end && end > p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeEnd(t *testing.T) {
	if got := RangeEnd("t", "ann"); got != "t|ann}" {
		t.Errorf("RangeEnd(t, ann) = %q, want t|ann}", got)
	}
}

func TestJoinSplit(t *testing.T) {
	k := Join("t", "ann", "100")
	if k != "t|ann|100" {
		t.Fatalf("Join = %q", k)
	}
	parts := Split(k)
	if len(parts) != 3 || parts[0] != "t" || parts[1] != "ann" || parts[2] != "100" {
		t.Fatalf("Split = %v", parts)
	}
}

func TestTable(t *testing.T) {
	if Table("p|bob|100") != "p" {
		t.Error("Table(p|bob|100)")
	}
	if Table("plain") != "plain" {
		t.Error("Table(plain)")
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{"t|ann|", "t|ann}"}
	for _, k := range []string{"t|ann|", "t|ann|100", "t|ann|zzz"} {
		if !r.Contains(k) {
			t.Errorf("%v should contain %q", r, k)
		}
	}
	for _, k := range []string{"t|anm|zzz", "t|ann}", "t|bob|1"} {
		if r.Contains(k) {
			t.Errorf("%v should not contain %q", r, k)
		}
	}
	unbounded := Range{"t|", ""}
	if !unbounded.Contains("zzzz") {
		t.Error("unbounded range should contain zzzz")
	}
}

func TestRangeIsPoint(t *testing.T) {
	for r, want := range map[Range]bool{
		{"t|ann", "t|ann\x00"}:  true,
		{"", "\x00"}:            true,
		{"t|ann", "t|ann\x01"}:  false,
		{"t|ann", "t|anm\x00"}:  false,
		{"t|ann", "t|ann"}:      false,
		{"t|ann", ""}:           false,
		{"t|ann|", "t|ann}"}:    false,
		{"t|ann", "t|ann\x00x"}: false,
	} {
		if r.IsPoint() != want {
			t.Errorf("%q.IsPoint() = %v", r, !want)
		}
	}
}

func TestRangeOf(t *testing.T) {
	r := RangeOf("t", "ann")
	if r.Lo != "t|ann|" || r.Hi != "t|ann}" {
		t.Errorf("RangeOf = %v", r)
	}
}

func TestRangeOverlapsIntersect(t *testing.T) {
	a := Range{"b", "f"}
	b := Range{"d", "h"}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("expected overlap")
	}
	got := a.Intersect(b)
	if got.Lo != "d" || got.Hi != "f" {
		t.Errorf("Intersect = %v", got)
	}
	c := Range{"f", "g"}
	if a.Overlaps(c) {
		t.Error("[b,f) should not overlap [f,g)")
	}
	unb := Range{"a", ""}
	if !unb.Overlaps(c) {
		t.Error("unbounded should overlap")
	}
	if got := unb.Intersect(c); got != c {
		t.Errorf("unbounded intersect = %v", got)
	}
	if (Range{"x", "x"}).Overlaps(unb) {
		t.Error("empty range overlaps nothing")
	}
}

func TestRangeContainsRange(t *testing.T) {
	outer := Range{"b", "z"}
	if !outer.ContainsRange(Range{"c", "d"}) {
		t.Error("expected containment")
	}
	if outer.ContainsRange(Range{"a", "d"}) {
		t.Error("should not contain range starting before")
	}
	if outer.ContainsRange(Range{"c", ""}) {
		t.Error("bounded cannot contain unbounded")
	}
	if !(Range{"b", ""}).ContainsRange(Range{"c", ""}) {
		t.Error("unbounded contains unbounded suffix")
	}
	if !outer.ContainsRange(Range{"q", "q"}) {
		t.Error("everything contains the empty range")
	}
}

// UnderPrefix agrees with containment in the built prefix range, and
// allocates nothing.
func TestRangeUnderPrefix(t *testing.T) {
	parts := []string{"", "a", "b", "t|", "t}", "t|ann|", "t|ann}", "t|ann|1", "t|ano", "t|ann",
		"\xff", "a\xff", "a\xff\xff", "b\x00", "\x00", "t|ann|\xff", "t|ann}\x00"}
	for _, p := range parts {
		want := Range{Lo: p, Hi: PrefixEnd(p)}
		for _, lo := range parts {
			for _, hi := range parts {
				r := Range{Lo: lo, Hi: hi}
				if got := r.UnderPrefix(p); got != want.ContainsRange(r) {
					t.Errorf("%v.UnderPrefix(%q) = %v, want %v", r, p, got, !got)
				}
			}
		}
	}
	r := Range{Lo: "t|ann|0000000100", Hi: "t|ann}"}
	if n := testing.AllocsPerRun(100, func() { r.UnderPrefix(r.Lo[:6]) }); n != 0 {
		t.Errorf("UnderPrefix allocates %v times", n)
	}
}

func TestOverlapsIsSymmetricAndConsistent(t *testing.T) {
	// Property: Overlaps(a,b) iff some generated point is in both.
	pts := []string{"", "a", "b", "c", "d", "e", "f", "zz"}
	bounds := []string{"", "a", "b", "c", "d", "e", "f"}
	for _, alo := range bounds {
		for _, ahi := range bounds {
			for _, blo := range bounds {
				for _, bhi := range bounds {
					a := Range{alo, ahi}
					b := Range{blo, bhi}
					if a.Overlaps(b) != b.Overlaps(a) {
						t.Fatalf("asymmetric overlap %v %v", a, b)
					}
					// brute force over sample points
					brute := false
					for _, p := range pts {
						if a.Contains(p) && b.Contains(p) {
							brute = true
							break
						}
					}
					// brute true implies Overlaps true (sample may miss
					// witnesses so only one direction is checked)
					if brute && !a.Overlaps(b) {
						t.Fatalf("ranges %v %v share %v but Overlaps=false", a, b, pts)
					}
				}
			}
		}
	}
}

func TestHiHelpers(t *testing.T) {
	if MinHi("a", "b") != "a" || MinHi("", "b") != "b" || MinHi("a", "") != "a" || MinHi("", "") != "" {
		t.Error("MinHi")
	}
	if MaxHi("a", "b") != "b" || MaxHi("", "b") != "" || MaxHi("a", "") != "" {
		t.Error("MaxHi")
	}
	if !HiLess("a", "b") || HiLess("b", "a") || HiLess("", "a") || !HiLess("a", "") || HiLess("", "") {
		t.Error("HiLess")
	}
}

func TestSortednessOfComposedKeys(t *testing.T) {
	// The semantic ordering the Twip timeline relies on: for a single user,
	// keys sort by time then poster.
	ks := []string{
		Join("t", "ann", "100", "bob"),
		Join("t", "ann", "100", "liz"),
		Join("t", "ann", "120", "bob"),
		Join("t", "ann", "099", "zed"),
	}
	sorted := append([]string(nil), ks...)
	sort.Strings(sorted)
	want := []string{"t|ann|099|zed", "t|ann|100|bob", "t|ann|100|liz", "t|ann|120|bob"}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("sorted[%d] = %q, want %q", i, sorted[i], want[i])
		}
	}
}
