// Package pattern implements Pequod's key patterns and slot machinery
// (§3.1 of the paper): the building blocks of cache joins.
//
// A pattern like t|<user>|<time>|<poster> describes a family of keys. Its
// components are either literals ("t", or interleaving tags like "a" in
// page|<author>|<id>|a) or slots (<user>), named variables bound by
// matching keys. A slot set — here Binding — is a set of slot
// assignments; a containing range is "effectively the inverse of a slot
// set": given a slot set, a source pattern, and the requested output key
// range, the minimal range of source keys that might affect the scan's
// results.
//
// Slot definitions: a slot may declare a fixed byte width, written
// <time:8>. Fixed-width slots are validated on match and guarantee the
// prefix-freedom that makes bound transfer between output and source
// ranges exact ("Slot definitions tell Pequod how to unpack a key into
// its component slots — for example, by looking for vertical bars, or by
// taking fixed numbers of bytes", §3). Variable-width slots assume the
// application never uses two values where one is a proper prefix of the
// other in the same slot; the execution engine additionally clips every
// emitted output to the requested range, so a violated assumption can
// cost minimality, never correctness of returned data.
package pattern

import (
	"fmt"
	"strconv"
	"strings"

	"pequod/internal/keys"
)

// MaxSlots bounds the number of distinct slots in one cache join. Eight is
// generous: the paper's most complex join (Newp page karma) uses four.
const MaxSlots = 8

// SlotTable assigns slot indices join-wide, by first appearance across the
// output and source patterns, and records per-slot fixed widths (0 =
// variable width).
type SlotTable struct {
	Names  []string
	Widths []int
}

// Index returns the slot index for name, creating it if needed.
func (st *SlotTable) Index(name string, width int) (int, error) {
	for i, n := range st.Names {
		if n == name {
			if width != 0 && st.Widths[i] != 0 && st.Widths[i] != width {
				return 0, fmt.Errorf("slot <%s> declared with widths %d and %d", name, st.Widths[i], width)
			}
			if width != 0 {
				st.Widths[i] = width
			}
			return i, nil
		}
	}
	if len(st.Names) >= MaxSlots {
		return 0, fmt.Errorf("too many slots (max %d)", MaxSlots)
	}
	st.Names = append(st.Names, name)
	st.Widths = append(st.Widths, width)
	return len(st.Names) - 1, nil
}

// Lookup returns the index of an existing slot, or -1.
func (st *SlotTable) Lookup(name string) int {
	for i, n := range st.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Seg is one '|'-separated component of a pattern: a literal (Slot < 0) or
// a slot reference.
type Seg struct {
	Literal string
	Slot    int
}

// Pattern is a compiled key pattern.
type Pattern struct {
	raw    string
	table  string
	tr     keys.Range // the table's key range, built once: patterns are read concurrently
	segs   []Seg
	slotof uint16 // bitmask of slots referenced
	widths []int  // shared with the join's SlotTable
}

// Parse compiles a textual pattern such as "t|<user>|<time:8>|<poster>".
// The first component must be a literal (the table name). Slot indices are
// assigned through st so that patterns within one join share slots.
func Parse(raw string, st *SlotTable) (*Pattern, error) {
	if raw == "" {
		return nil, fmt.Errorf("empty pattern")
	}
	comps := strings.Split(raw, keys.SepString)
	p := &Pattern{raw: raw}
	for i, c := range comps {
		if strings.HasPrefix(c, "<") {
			if !strings.HasSuffix(c, ">") {
				return nil, fmt.Errorf("pattern %q: malformed slot %q", raw, c)
			}
			body := c[1 : len(c)-1]
			name := body
			width := 0
			if j := strings.IndexByte(body, ':'); j >= 0 {
				name = body[:j]
				w, err := strconv.Atoi(body[j+1:])
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("pattern %q: bad slot width in %q", raw, c)
				}
				width = w
			}
			if name == "" {
				return nil, fmt.Errorf("pattern %q: empty slot name", raw)
			}
			if i == 0 {
				return nil, fmt.Errorf("pattern %q: first component must be a literal table name", raw)
			}
			idx, err := st.Index(name, width)
			if err != nil {
				return nil, fmt.Errorf("pattern %q: %v", raw, err)
			}
			if p.slotof&(1<<idx) != 0 {
				return nil, fmt.Errorf("pattern %q: slot <%s> repeated", raw, name)
			}
			p.slotof |= 1 << idx
			p.segs = append(p.segs, Seg{Slot: idx})
		} else {
			if strings.ContainsAny(c, "<>") {
				return nil, fmt.Errorf("pattern %q: stray angle bracket in %q", raw, c)
			}
			if i == 0 {
				if c == "" {
					return nil, fmt.Errorf("pattern %q: empty table name", raw)
				}
				p.table = c
			}
			p.segs = append(p.segs, Seg{Literal: c, Slot: -1})
		}
	}
	p.widths = st.Widths
	p.tr = keys.RangeOf(p.table)
	return p, nil
}

// String returns the original pattern text.
func (p *Pattern) String() string { return p.raw }

// Table returns the pattern's table (first literal component).
func (p *Pattern) Table() string { return p.table }

// Segs exposes the compiled segments.
func (p *Pattern) Segs() []Seg { return p.segs }

// Slots returns the bitmask of slots referenced by the pattern.
func (p *Pattern) Slots() uint16 { return p.slotof }

// TableRange returns the key range spanned by the pattern's table.
func (p *Pattern) TableRange() keys.Range { return p.tr }

// Binding is a slot set: an immutable-by-convention set of slot
// assignments. It has value semantics; With returns an extended copy, so
// the nested-loop executor can branch without copying explicitly.
type Binding struct {
	vals [MaxSlots]string
	mask uint16
}

// Get returns the value bound to slot i.
func (b Binding) Get(i int) (string, bool) {
	if b.mask&(1<<i) == 0 {
		return "", false
	}
	return b.vals[i], true
}

// Has reports whether slot i is bound.
func (b Binding) Has(i int) bool { return b.mask&(1<<i) != 0 }

// With returns a copy of b with slot i bound to v.
func (b Binding) With(i int, v string) Binding {
	b.vals[i] = v
	b.mask |= 1 << i
	return b
}

// Mask returns the bitmask of bound slots.
func (b Binding) Mask() uint16 { return b.mask }

// Covers reports whether b binds every slot in mask.
func (b Binding) Covers(mask uint16) bool { return b.mask&mask == mask }

// String renders the binding for debugging, given the join's slot names.
func (b Binding) String(st *SlotTable) string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i, n := range st.Names {
		if v, ok := b.Get(i); ok {
			if !first {
				sb.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&sb, "%s=%q", n, v)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Match tests key against the pattern under binding b. On success it
// returns b extended with the slots bound by key. Literals must match
// exactly; slots already bound in b must agree; fixed-width slots must
// have exactly their declared width. The slots are bound in place, in
// the copy of b Match was handed: a join's nested loop matches every
// key it scans, and a Binding is too large to copy once per slot.
func (p *Pattern) Match(key string, b Binding) (Binding, bool) {
	ok := p.match(key, &b)
	return b, ok
}

// Matches reports whether key has the pattern's shape — its literals,
// its number of components and its slots' fixed widths — binding
// nothing: Match under an empty binding, for callers that only need the
// answer.
func (p *Pattern) Matches(key string) bool { return p.match(key, nil) }

// match is Match binding into *b, or only testing the shape when b is
// nil. It leaves *b partly bound when the key does not match.
func (p *Pattern) match(key string, b *Binding) bool {
	rest := key
	for i, seg := range p.segs {
		var comp string
		if i == len(p.segs)-1 {
			// Final segment consumes the remainder; a separator in it
			// means the key has too many components.
			if strings.IndexByte(rest, keys.Sep) >= 0 {
				return false
			}
			comp = rest
			rest = ""
		} else {
			j := strings.IndexByte(rest, keys.Sep)
			if j < 0 {
				return false
			}
			comp = rest[:j]
			rest = rest[j+1:]
		}
		if seg.Slot < 0 {
			if comp != seg.Literal {
				return false
			}
			continue
		}
		if w := p.widths[seg.Slot]; w != 0 && len(comp) != w {
			return false
		}
		switch {
		case b == nil:
		case b.mask&(1<<seg.Slot) != 0:
			if b.vals[seg.Slot] != comp {
				return false
			}
		default:
			b.vals[seg.Slot] = comp
			b.mask |= 1 << seg.Slot
		}
	}
	return true
}

// BuildKey constructs the concrete key for b; ok is false if any slot in
// the pattern is unbound. It makes one allocation of exactly the key's
// size: a stored key pins no slack bytes.
func (p *Pattern) BuildKey(b Binding) (string, bool) {
	if !b.Covers(p.slotof) {
		return "", false
	}
	n := len(p.segs) - 1 // separators
	for _, seg := range p.segs {
		if seg.Slot < 0 {
			n += len(seg.Literal)
		} else {
			n += len(b.vals[seg.Slot])
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, seg := range p.segs {
		if i > 0 {
			sb.WriteByte(keys.Sep)
		}
		if seg.Slot < 0 {
			sb.WriteString(seg.Literal)
		} else {
			sb.WriteString(b.vals[seg.Slot])
		}
	}
	return sb.String(), true
}

// BuildPrefix builds the longest key prefix determined by b: literals and
// bound slots up to the first unbound slot. It returns the prefix (with a
// trailing separator unless the pattern completed) and the index of the
// first unbuilt segment (len(segs) when the whole key was built, in which
// case the prefix is the complete key with no trailing separator).
func (p *Pattern) BuildPrefix(b Binding) (string, int) {
	var sb strings.Builder
	for i, seg := range p.segs {
		var v string
		if seg.Slot < 0 {
			v = seg.Literal
		} else {
			var ok bool
			v, ok = b.Get(seg.Slot)
			if !ok {
				return sb.String(), i
			}
		}
		sb.WriteString(v)
		if i < len(p.segs)-1 {
			sb.WriteByte(keys.Sep)
		}
	}
	return sb.String(), len(p.segs)
}

// PointRange returns the smallest range containing exactly key.
func PointRange(key string) keys.Range {
	return keys.Range{Lo: key, Hi: key + "\x00"}
}

// ScanBinding derives a slot set from a requested scan range over the
// output pattern (Fig 3's "ss := join.slotset(t, first, last)"): every
// output slot whose value is completely pinned by the range is bound —
// all of them for a point on a whole key.
// The second return value is the portion of the scan range that can
// possibly contain keys matching the pattern. Every bound value and
// prefix is a substring of the scan's lower bound, so it allocates
// nothing.
func (p *Pattern) ScanBinding(scan keys.Range) (Binding, keys.Range) {
	var b Binding
	clip := scan.Intersect(p.tr)
	if clip.Empty() {
		return b, clip
	}
	n := 0 // clip.Lo[:n] is the prefix pinned so far, up to a separator
	for i, seg := range p.segs {
		// The scan must lie entirely inside the keyspace of a single
		// component value c at this position for the binding to be exact,
		// or be a point on a key whose last component c is.
		c, _, more := strings.Cut(clip.Lo[n:], keys.SepString)
		switch {
		case more:
			n += len(c) + 1
			if !clip.UnderPrefix(clip.Lo[:n]) {
				return b, clip
			}
		case i < len(p.segs)-1 || !clip.IsPoint():
			return b, clip // component incomplete in the lower bound
		}
		if seg.Slot < 0 {
			if c != seg.Literal {
				// Scan pinned to a different literal: nothing matches.
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

// truncComps cuts s after at most n '|'-separated components, without a
// trailing separator.
func truncComps(s string, n int) string {
	idx := 0
	for i := 0; i < n; i++ {
		j := strings.IndexByte(s[idx:], keys.Sep)
		if j < 0 {
			return s
		}
		if i == n-1 {
			return s[:idx+j]
		}
		idx += j + 1
	}
	return s
}

// countComps counts '|'-separated components of s (empty string = 0).
func countComps(s string) int {
	if s == "" {
		return 0
	}
	return strings.Count(s, keys.SepString) + 1
}

// ContainingRange computes the minimal range of src keys that can affect a
// scan of the out pattern over the given range, under slot set b (§3.1).
// It is always *containing* (over-approximate at worst): every source key
// that could contribute an output key inside scan lies inside the result.
func ContainingRange(src, out *Pattern, b Binding, scan keys.Range) keys.Range {
	srcPfx, next := src.BuildPrefix(b)
	if next == len(src.segs) {
		return PointRange(srcPfx)
	}
	wide := keys.Range{Lo: srcPfx, Hi: keys.PrefixEnd(srcPfx)}

	// Bound transfer: where the source's unbuilt tail mirrors the
	// output's unbuilt tail (same slots in the same order), raw
	// scan-bound remainders carry over component by component — this is
	// what turns scan [t|ann|100, t|ann|200) into post range
	// [p|bob|100, p|bob|200). m is the aligned prefix length; transfer
	// is limited to m components. When the source pattern continues past
	// the aligned region (k > m), upper bounds get the conservative
	// separator-successor terminator so continuing source keys at the
	// boundary stay included.
	outPfx, outNext := out.BuildPrefix(b)
	if outNext >= len(out.segs) {
		return wide
	}
	srcTail := src.segs[next:]
	outTail := out.segs[outNext:]
	m := 0
	for m < len(srcTail) && m < len(outTail) {
		s, o := srcTail[m], outTail[m]
		if s.Slot != o.Slot || (s.Slot < 0 && s.Literal != o.Literal) {
			break
		}
		m++
	}
	if m == 0 {
		return wide
	}
	full := m == len(srcTail) // source keys end where alignment ends

	lo := srcPfx
	switch {
	case scan.Lo <= outPfx:
		// no extra lower constraint
	case scan.Lo < keys.PrefixEnd(outPfx):
		rem := scan.Lo[len(outPfx):]
		if countComps(rem) > m {
			rem = truncComps(rem, m)
		}
		lo = srcPfx + rem
	default:
		return keys.Range{Lo: srcPfx, Hi: srcPfx} // scan entirely above this binding
	}

	hi := wide.Hi
	pe := keys.PrefixEnd(outPfx)
	switch {
	case scan.Hi == "" || (pe != "" && scan.Hi >= pe):
		// no extra upper constraint
	case scan.Hi > outPfx:
		rem := scan.Hi[len(outPfx):]
		// sealed: rem was cut at a component boundary (or came from a
		// point range's \x00 terminator), so its final component is a
		// complete value rather than a raw prefix of the bound.
		sealed := false
		if strings.HasSuffix(rem, "\x00") {
			rem = rem[:len(rem)-1]
			sealed = true
		}
		if countComps(rem) > m {
			rem = truncComps(rem, m)
			sealed = true
		}
		switch {
		case full && !sealed:
			// Source keys end inside the aligned region and the raw bound
			// lies there too: exact transfer.
			hi = srcPfx + rem
		case full:
			// Source keys end at the seal boundary; \x00 keeps the
			// boundary key itself inside.
			hi = srcPfx + rem + "\x00"
		case !sealed && len(outTail) > m:
			// Both source and output keys continue with '|'-separated
			// components past rem's extent: exact transfer.
			hi = srcPfx + rem
		default:
			// Source keys continue past the boundary with '|'-separated
			// components; Sep+1 keeps all their continuations inside.
			hi = srcPfx + rem + string(keys.Sep+1)
		}
	default:
		return keys.Range{Lo: srcPfx, Hi: srcPfx} // scan entirely below this binding
	}
	return keys.Range{Lo: lo, Hi: hi}
}
