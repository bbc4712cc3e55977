package pattern

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pequod/internal/keys"
)

func mustParse(t *testing.T, raw string, st *SlotTable) *Pattern {
	t.Helper()
	p, err := Parse(raw, st)
	if err != nil {
		t.Fatalf("Parse(%q): %v", raw, err)
	}
	return p
}

func TestParseBasics(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "t|<user>|<time>|<poster>", &st)
	if p.Table() != "t" || len(p.Segs()) != 4 {
		t.Fatalf("table=%q segs=%d", p.Table(), len(p.Segs()))
	}
	if len(st.Names) != 3 || st.Names[0] != "user" || st.Names[1] != "time" || st.Names[2] != "poster" {
		t.Fatalf("slots = %v", st.Names)
	}
	// Second pattern shares slot indices.
	q := mustParse(t, "s|<user>|<poster>", &st)
	if len(st.Names) != 3 {
		t.Fatalf("slot table grew: %v", st.Names)
	}
	if q.Slots() != (1<<0)|(1<<2) {
		t.Fatalf("slot mask = %b", q.Slots())
	}
}

func TestParseWidths(t *testing.T) {
	var st SlotTable
	mustParse(t, "p|<poster>|<time:8>", &st)
	if st.Widths[st.Lookup("time")] != 8 {
		t.Fatal("width not recorded")
	}
	// Conflicting widths rejected.
	if _, err := Parse("x|<time:4>", &st); err == nil {
		t.Fatal("conflicting width accepted")
	}
	// Consistent widths fine.
	if _, err := Parse("x|<time:8>", &st); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, raw := range []string{
		"",
		"<user>|x",                              // slot table name
		"t|<user",                               // malformed slot
		"t|us<er>",                              // stray bracket
		"t|<>",                                  // empty slot name
		"t|<a:x>",                               // bad width
		"t|<a:0>",                               // zero width
		"t|<a>|<a>",                             // repeated slot in one pattern
		"|x",                                    // empty table
		"t|<a>|<b>|<c>|<d>|<e>|<f>|<g>|<h>|<i>", // too many slots
	} {
		var st SlotTable
		if _, err := Parse(raw, &st); err == nil {
			t.Errorf("Parse(%q) should fail", raw)
		}
	}
}

func TestMatch(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "t|<user>|<time>|<poster>", &st)
	b, ok := p.Match("t|ann|100|bob", Binding{})
	if !ok {
		t.Fatal("match failed")
	}
	if v, _ := b.Get(0); v != "ann" {
		t.Fatal("user binding")
	}
	if v, _ := b.Get(1); v != "100" {
		t.Fatal("time binding")
	}
	if v, _ := b.Get(2); v != "bob" {
		t.Fatal("poster binding")
	}
	// Existing binding must agree.
	if _, ok := p.Match("t|ann|100|bob", Binding{}.With(0, "liz")); ok {
		t.Fatal("conflicting binding matched")
	}
	if b2, ok := p.Match("t|ann|100|bob", Binding{}.With(0, "ann")); !ok || !b2.Has(2) {
		t.Fatal("consistent binding should match and extend")
	}
	// Wrong arity.
	if _, ok := p.Match("t|ann|100", Binding{}); ok {
		t.Fatal("short key matched")
	}
	if _, ok := p.Match("t|ann|100|bob|x", Binding{}); ok {
		t.Fatal("long key matched")
	}
	// Wrong literal.
	if _, ok := p.Match("s|ann|100|bob", Binding{}); ok {
		t.Fatal("wrong table matched")
	}
}

func TestMatchInterleavedTag(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "page|<author>|<id>|k|<cid>|<commenter>", &st)
	if _, ok := p.Match("page|bob|101|k|c1|liz", Binding{}); !ok {
		t.Fatal("tagged key should match")
	}
	if _, ok := p.Match("page|bob|101|a|c1|liz", Binding{}); ok {
		t.Fatal("wrong tag matched")
	}
}

func TestMatchFixedWidth(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "p|<poster>|<time:4>", &st)
	if _, ok := p.Match("p|bob|0100", Binding{}); !ok {
		t.Fatal("width-4 component should match")
	}
	if _, ok := p.Match("p|bob|100", Binding{}); ok {
		t.Fatal("width-3 component matched a width-4 slot")
	}
}

func TestBuildKeyAndPrefix(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "t|<user>|<time>|<poster>", &st)
	b := Binding{}.With(0, "ann").With(1, "100").With(2, "bob")
	k, ok := p.BuildKey(b)
	if !ok || k != "t|ann|100|bob" {
		t.Fatalf("BuildKey = %q, %v", k, ok)
	}
	if _, ok := p.BuildKey(Binding{}.With(0, "ann")); ok {
		t.Fatal("partial BuildKey should fail")
	}
	pfx, next := p.BuildPrefix(Binding{}.With(0, "ann"))
	if pfx != "t|ann|" || next != 2 {
		t.Fatalf("BuildPrefix = %q, %d", pfx, next)
	}
	pfx, next = p.BuildPrefix(b)
	if pfx != "t|ann|100|bob" || next != 4 {
		t.Fatalf("complete BuildPrefix = %q, %d", pfx, next)
	}
	pfx, next = p.BuildPrefix(Binding{})
	if pfx != "t|" || next != 1 {
		t.Fatalf("empty BuildPrefix = %q, %d", pfx, next)
	}
}

// TestBuildKeyAllocatesOnce: a built key is one allocation of exactly
// its own size, not a builder grown three or four times.
func TestBuildKeyAllocatesOnce(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "t|<user>|<time>|<poster>", &st)
	b := Binding{}.With(0, "ann").With(1, "0000000100").With(2, "bob")
	var k string
	if n := testing.AllocsPerRun(100, func() { k, _ = p.BuildKey(b) }); n != 1 {
		t.Fatalf("BuildKey made %v allocations, want 1", n)
	}
	if k != "t|ann|0000000100|bob" {
		t.Fatalf("BuildKey = %q", k)
	}
}

func TestScanBinding(t *testing.T) {
	var st SlotTable
	p := mustParse(t, "t|<user>|<time>|<poster>", &st)

	// Full-timeline scan binds user.
	b, clip := p.ScanBinding(keys.Range{Lo: "t|ann|100", Hi: "t|ann}"})
	if v, ok := b.Get(0); !ok || v != "ann" {
		t.Fatalf("user not bound: %v", b)
	}
	if b.Has(1) {
		t.Fatal("time must not be exactly bound")
	}
	if clip.Lo != "t|ann|100" {
		t.Fatalf("clip = %v", clip)
	}

	// Bounded-time scan still binds only user (time is a range).
	b, _ = p.ScanBinding(keys.Range{Lo: "t|ann|100|", Hi: "t|ann|200|"})
	if v, ok := b.Get(0); !ok || v != "ann" || b.Has(1) {
		t.Fatalf("bindings = %v", b)
	}

	// Cross-timeline scan binds nothing.
	b, _ = p.ScanBinding(keys.Range{Lo: "t|a", Hi: "t|b"})
	if b.Mask() != 0 {
		t.Fatalf("cross-timeline bound %v", b)
	}

	// Scan of a different table clips to empty.
	_, clip = p.ScanBinding(keys.Range{Lo: "s|a", Hi: "s|z"})
	if !clip.Empty() {
		t.Fatalf("foreign-table clip = %v", clip)
	}

	// Point-ish scan binds everything it can.
	b, _ = p.ScanBinding(keys.Range{Lo: "t|ann|100|bob", Hi: "t|ann|100|bob\x00"})
	if v, ok := b.Get(0); !ok || v != "ann" {
		t.Fatal("user")
	}
	if v, ok := b.Get(1); !ok || v != "100" {
		t.Fatal("time should be bound for point scans")
	}
	// ...the last component included: a point holds one whole key. So a
	// count join's group over a point reads one source prefix, not a
	// range that starts mid-component and reaches past it.
	if v, ok := b.Get(2); !ok || v != "bob" {
		t.Fatal("poster should be bound for point scans")
	}
	rank := mustParse(t, "rank|<author>|<id>", &st)
	votes := mustParse(t, "vote|<author>|<id>|<voter>", &st)
	point := keys.Range{Lo: "rank|bob|101", Hi: "rank|bob|101\x00"}
	b, _ = rank.ScanBinding(point)
	if cr := ContainingRange(votes, rank, b, point); cr != keys.RangeOf("vote", "bob", "101") {
		t.Fatalf("votes for one rank read %v, want %v", cr, keys.RangeOf("vote", "bob", "101"))
	}
	// A point on a key with the wrong last literal matches nothing, and a
	// range ending mid-component binds nothing there.
	if _, clip := mustParse(t, "page|<author>|a", &st).ScanBinding(keys.Range{Lo: "page|bob|r", Hi: "page|bob|r\x00"}); !clip.Empty() {
		t.Fatalf("clip = %v, want empty", clip)
	}
	if b, _ := p.ScanBinding(keys.Range{Lo: "t|ann|100|bob", Hi: "t|ann|100|bob}"}); b.Has(2) {
		t.Fatal("poster bound by a range that holds other posters")
	}
}

// scanBindingModel is ScanBinding as it was before it stopped building
// strings: every pinned prefix concatenated and its PrefixEnd built to
// test containment. ScanBinding must agree with it on every range.
func scanBindingModel(p *Pattern, scan keys.Range) (Binding, keys.Range) {
	var b Binding
	tr := keys.Range{Lo: p.table + keys.SepString, Hi: keys.PrefixEnd(p.table + keys.SepString)}
	clip := scan.Intersect(tr)
	if clip.Empty() {
		return b, clip
	}
	pfx := ""
	for i, seg := range p.segs {
		if !strings.HasPrefix(clip.Lo, pfx) {
			break
		}
		c, _, more := strings.Cut(clip.Lo[len(pfx):], keys.SepString)
		switch {
		case more:
			next := pfx + c + keys.SepString
			if !(keys.Range{Lo: next, Hi: keys.PrefixEnd(next)}).ContainsRange(clip) {
				return b, clip
			}
			pfx = next
		case i < len(p.segs)-1 || !clip.IsPoint():
			return b, clip
		}
		if seg.Slot < 0 {
			if c != seg.Literal {
				return b, keys.Range{Lo: clip.Lo, Hi: clip.Lo}
			}
		} else {
			if w := p.widths[seg.Slot]; w != 0 && len(c) != w {
				return b, keys.Range{Lo: clip.Lo, Hi: clip.Lo}
			}
			b = b.With(seg.Slot, c)
		}
	}
	return b, clip
}

// scanBindingPatterns are the output shapes FuzzScanBinding draws from:
// all slots, a fixed width, a trailing and a middle literal, a bare table.
var scanBindingPatterns = []string{
	"t|<user>|<time>|<poster>",
	"t|<user>|<time:4>|<poster>",
	"page|<author>|<id>|a",
	"page|<author>|k|<cid>",
	"x",
}

func checkScanBinding(t *testing.T, raw string, r keys.Range) {
	t.Helper()
	var st SlotTable
	p := mustParse(t, raw, &st)
	b, clip := p.ScanBinding(r)
	wb, wclip := scanBindingModel(p, r)
	if b != wb || clip != wclip {
		t.Fatalf("%s over %q: binding %s clip %q, model %s clip %q", raw, r, b.String(&st), clip, wb.String(&st), wclip)
	}
}

// scanBindingCases: points, ranges ending exactly at a separator,
// unbounded ranges, width and literal mismatches, and keys holding '}',
// NUL and 0xff bytes.
var scanBindingCases = []struct {
	pat    int
	lo, hi string
}{
	{0, "t|ann|100|bob", "t|ann|100|bob\x00"},
	{0, "t|ann|", "t|ann}"},
	{0, "t|ann|100|", "t|ann|100}"},
	{0, "t|ann|100", "t|ann|"},
	{0, "t|ann|100", "t|ann|100|"},
	{0, "t|ann|100|", ""},
	{0, "t|ann|", ""},
	{0, "t|a}n|1|b", "t|a}n|1|b\x00"},
	{0, "t|a\x00|", "t|a\x00}"},
	{0, "t|\xff|", "t|\xff}"},
	{0, "t|\xff\xff|1|", "t}"},
	{0, "t|ann|\xff|", "t|ann|\xff}"},
	{0, "s|ann|", "u|"},
	{1, "t|ann|0100|bob", "t|ann|0100|bob\x00"},
	{1, "t|ann|100|bob", "t|ann|100|bob\x00"},
	{1, "t|ann|01000|", "t|ann|01000}"},
	{2, "page|bob|101|a", "page|bob|101|a\x00"},
	{2, "page|bob|101|r", "page|bob|101|r\x00"},
	{2, "page|bob|101|a", "page|bob|101|b"},
	{3, "page|bob|k|", "page|bob|k}"},
	{3, "page|bob|j|", "page|bob|j}"},
	{3, "page|bob|k|c1", "page|bob|k|c1\x00"},
	{4, "x", "x\x00"},
	{4, "x|", "x}"},
	{4, "x|y|", ""},
}

// TestScanBindingMatchesModel holds the string-free ScanBinding to the
// string-building one over the shapes that decide a binding, and to
// allocating nothing.
func TestScanBindingMatchesModel(t *testing.T) {
	for _, c := range scanBindingCases {
		checkScanBinding(t, scanBindingPatterns[c.pat], keys.Range{Lo: c.lo, Hi: c.hi})
	}
	var st SlotTable
	p := mustParse(t, "t|<user>|<time:10>|<poster>", &st)
	point := keys.Range{Lo: "t|u0000007|0000000203|u0000003", Hi: "t|u0000007|0000000203|u0000003\x00"}
	check := keys.Range{Lo: "t|u0000007|0000000203", Hi: "t|u0000007}"}
	if n := testing.AllocsPerRun(100, func() { p.ScanBinding(point); p.ScanBinding(check) }); n != 0 {
		t.Fatalf("ScanBinding allocates %v times", n)
	}
}

// FuzzScanBinding lets the fuzzer pick the pattern and the range.
func FuzzScanBinding(f *testing.F) {
	for _, c := range scanBindingCases {
		f.Add(uint8(c.pat), c.lo, c.hi)
	}
	f.Fuzz(func(t *testing.T, pat uint8, lo, hi string) {
		checkScanBinding(t, scanBindingPatterns[int(pat)%len(scanBindingPatterns)], keys.Range{Lo: lo, Hi: hi})
	})
}

func TestContainingRangePaperExamples(t *testing.T) {
	var st SlotTable
	out := mustParse(t, "t|<user>|<time>|<poster>", &st)
	subs := mustParse(t, "s|<user>|<poster>", &st)
	posts := mustParse(t, "p|<poster>|<time>", &st)

	scan := keys.Range{Lo: "t|ann|100|", Hi: keys.PrefixEnd("t|ann|")}
	b, _ := out.ScanBinding(scan)

	// §3.1: "Pequod can limit its examination of subscriptions to the
	// range [s|ann|, s|ann|+)".
	sr := ContainingRange(subs, out, b, scan)
	if sr.Lo != "s|ann|" || sr.Hi != "s|ann}" {
		t.Fatalf("subscription containing range = %v", sr)
	}

	// "...the minimal containing range for the p source would be
	// [p|bob|100, p|bob|+)" — after binding poster=bob. (The paper's
	// scan lower bound t|ann|100 and ours t|ann|100| differ only in the
	// trailing separator; both map onto the post range the same way.)
	b2, ok := subs.Match("s|ann|bob", b)
	if !ok {
		t.Fatal("subscription match")
	}
	pr := ContainingRange(posts, out, b2, scan)
	if pr.Lo != "p|bob|100" || pr.Hi != "p|bob}" {
		t.Fatalf("post containing range = %v", pr)
	}

	// Time-bounded scan clips both ends: [t|ann|100, t|ann|200) →
	// [p|bob|100, p|bob|200).
	scan2 := keys.Range{Lo: "t|ann|100", Hi: "t|ann|200"}
	b3, _ := out.ScanBinding(scan2)
	b3, _ = subs.Match("s|ann|bob", b3)
	pr2 := ContainingRange(posts, out, b3, scan2)
	if pr2.Lo != "p|bob|100" || pr2.Hi != "p|bob|200" {
		t.Fatalf("bounded post containing range = %v", pr2)
	}
}

func TestContainingRangeCrossTimeline(t *testing.T) {
	// "we correctly implement queries like [t|ann|100,t|bob|200) and
	// [t|a,t|b) that cross multiple timelines."
	var st SlotTable
	out := mustParse(t, "t|<user>|<time>|<poster>", &st)
	subs := mustParse(t, "s|<user>|<poster>", &st)

	scan := keys.Range{Lo: "t|a", Hi: "t|b"}
	b, _ := out.ScanBinding(scan)
	sr := ContainingRange(subs, out, b, scan)
	// user is range-constrained [a, b): subscriptions clip to [s|a, s|b).
	if sr.Lo != "s|a" || sr.Hi != "s|b" {
		t.Fatalf("cross-timeline subscription range = %v", sr)
	}
}

func TestContainingRangeFullyBound(t *testing.T) {
	var st SlotTable
	out := mustParse(t, "page|<author>|<id>|k|<cid>|<commenter>", &st)
	karma := mustParse(t, "karma|<commenter>", &st)
	b := Binding{}.With(st.Lookup("commenter"), "liz")
	r := ContainingRange(karma, out, b, keys.Range{Lo: "page|", Hi: "page}"})
	if r.Lo != "karma|liz" || r.Hi != "karma|liz\x00" {
		t.Fatalf("point containing range = %v", r)
	}
}

func TestContainingRangeDisjointScan(t *testing.T) {
	var st SlotTable
	out := mustParse(t, "t|<user>|<time>", &st)
	posts := mustParse(t, "p|<user>|<time>", &st)
	// Scan is entirely below the binding's output prefix.
	b := Binding{}.With(0, "zed")
	r := ContainingRange(posts, out, b, keys.Range{Lo: "t|ann|", Hi: "t|ann}"})
	if !r.Empty() {
		t.Fatalf("scan below binding should be empty, got %v", r)
	}
	// Entirely above.
	b = Binding{}.With(0, "ann")
	r = ContainingRange(posts, out, b, keys.Range{Lo: "t|bob|", Hi: "t|bob}"})
	if !r.Empty() {
		t.Fatalf("scan above binding should be empty, got %v", r)
	}
}

// TestContainingRangeIsContaining is the package's central property test:
// for random universes of fixed-width component values, every source key
// that produces an output key inside the scan range must lie inside the
// computed containing range.
func TestContainingRangeIsContaining(t *testing.T) {
	var st SlotTable
	out := mustParse(t, "t|<user:2>|<time:3>|<poster:2>", &st)
	subs := mustParse(t, "s|<user:2>|<poster:2>", &st)
	posts := mustParse(t, "p|<poster:2>|<time:3>", &st)

	rng := rand.New(rand.NewSource(99))
	users := []string{"aa", "ab", "ba", "zz"}
	times := []string{"100", "150", "200", "999"}

	randKeyish := func() string {
		u := users[rng.Intn(len(users))]
		tm := times[rng.Intn(len(times))]
		p := users[rng.Intn(len(users))]
		forms := []string{
			"t|" + u + "|" + tm + "|" + p,
			"t|" + u + "|" + tm,
			"t|" + u + "|",
			"t|" + u,
			keys.PrefixEnd("t|" + u + "|"),
			"t|",
			"t}",
		}
		return forms[rng.Intn(len(forms))]
	}

	for trial := 0; trial < 5000; trial++ {
		lo, hi := randKeyish(), randKeyish()
		if hi < lo {
			lo, hi = hi, lo
		}
		scan := keys.Range{Lo: lo, Hi: hi}
		b, _ := out.ScanBinding(scan)

		// Enumerate the full cross product and verify containment.
		for _, su := range users {
			for _, sp := range users {
				skey := "s|" + su + "|" + sp
				sb, ok := subs.Match(skey, b)
				if !ok {
					continue
				}
				for _, tm := range times {
					pkey := "p|" + sp + "|" + tm
					pb, ok := posts.Match(pkey, sb)
					if !ok {
						continue
					}
					okey, ok := out.BuildKey(pb)
					if !ok || !scan.Contains(okey) {
						continue
					}
					// This (skey, pkey) pair contributes; both must be
					// inside their containing ranges.
					srange := ContainingRange(subs, out, b, scan)
					if !srange.Contains(skey) {
						t.Fatalf("scan %v: source %q escapes subs containing range %v", scan, skey, srange)
					}
					prange := ContainingRange(posts, out, sb, scan)
					if !prange.Contains(pkey) {
						t.Fatalf("scan %v: source %q escapes posts containing range %v (binding after %q)",
							scan, pkey, prange, skey)
					}
				}
			}
		}
	}
}

// TestContainingRangeMinimality spot-checks that bound transfer actually
// narrows ranges (the optimization §3.1 exists for).
func TestContainingRangeMinimality(t *testing.T) {
	var st SlotTable
	out := mustParse(t, "t|<user>|<time:3>|<poster>", &st)
	posts := mustParse(t, "p|<poster>|<time:3>", &st)
	scan := keys.Range{Lo: "t|ann|150|", Hi: "t|ann|300|"}
	b := Binding{}.With(st.Lookup("user"), "ann").With(st.Lookup("poster"), "bob")
	r := ContainingRange(posts, out, b, scan)
	if !strings.HasPrefix(r.Lo, "p|bob|150") || r.Hi >= "p|bob|301" {
		t.Fatalf("bound transfer failed: %v", r)
	}
	for _, tm := range []string{"100", "149"} {
		if r.Contains("p|bob|" + tm) {
			t.Fatalf("range %v should exclude time %s", r, tm)
		}
	}
	for _, tm := range []string{"150", "299"} {
		if !r.Contains("p|bob|" + tm) {
			t.Fatalf("range %v should include time %s", r, tm)
		}
	}
}

func TestBindingString(t *testing.T) {
	var st SlotTable
	mustParse(t, "t|<user>|<time>", &st)
	b := Binding{}.With(0, "ann")
	if got := b.String(&st); got != `{user="ann"}` {
		t.Fatalf("String = %s", got)
	}
}

func TestTruncComps(t *testing.T) {
	cases := []struct {
		s    string
		n    int
		want string
	}{
		{"100|zed|x", 1, "100"},
		{"100|zed|x", 2, "100|zed"},
		{"100|zed|x", 3, "100|zed|x"},
		{"100", 2, "100"},
	}
	for _, c := range cases {
		if got := truncComps(c.s, c.n); got != c.want {
			t.Errorf("truncComps(%q,%d) = %q want %q", c.s, c.n, got, c.want)
		}
	}
}

func TestPointRange(t *testing.T) {
	r := PointRange("k")
	if !r.Contains("k") || r.Contains("k\x00x") || r.Contains("j") {
		t.Fatalf("PointRange = %v", r)
	}
}

func BenchmarkMatch(b *testing.B) {
	var st SlotTable
	p, _ := Parse("t|<user>|<time>|<poster>", &st)
	key := "t|u00012345|0000001234|u00099999"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Match(key, Binding{})
	}
}

func BenchmarkContainingRange(b *testing.B) {
	var st SlotTable
	out, _ := Parse("t|<user>|<time>|<poster>", &st)
	posts, _ := Parse("p|<poster>|<time>", &st)
	scan := keys.Range{Lo: "t|ann|100|", Hi: keys.PrefixEnd("t|ann|")}
	bind := Binding{}.With(0, "ann").With(2, "bob")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ContainingRange(posts, out, bind, scan)
	}
}

func ExampleContainingRange() {
	var st SlotTable
	out, _ := Parse("t|<user>|<time>|<poster>", &st)
	subs, _ := Parse("s|<user>|<poster>", &st)
	posts, _ := Parse("p|<poster>|<time>", &st)
	scan := keys.Range{Lo: "t|ann|100|", Hi: keys.PrefixEnd("t|ann|")}
	b, _ := out.ScanBinding(scan)     // {user=ann}
	b, _ = subs.Match("s|ann|bob", b) // {user=ann, poster=bob}
	fmt.Println(ContainingRange(posts, out, b, scan))
	// Output: [p|bob|100, p|bob})
}
