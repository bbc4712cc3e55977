// Package keys provides lexicographic key utilities shared by the Pequod
// store, pattern matcher, and wire protocol.
//
// Pequod keys are strings composed of components separated by the byte '|'
// (Sep). The paper writes the upper bound of the range of keys beginning
// with "t|ann|" as "t|ann|+", and notes that the implementation spells it
// "t|ann}" — the prefix with its final byte incremented. PrefixEnd computes
// exactly that bound.
package keys

import "strings"

// Sep separates key components. Its successor byte, '}' in ASCII, is what
// makes prefix upper bounds printable in the paper's examples.
const Sep = '|'

// SepString is Sep as a string, for building keys with strings.Join.
const SepString = "|"

// PrefixEnd returns the smallest string greater than every string that has
// p as a prefix: p with its last byte incremented (trailing 0xff bytes are
// dropped first). The empty return value means "no upper bound"; Range and
// the store's scan treat an empty high bound as +infinity. PrefixEnd("")
// returns "", i.e. the whole keyspace.
func PrefixEnd(p string) string {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// RangeEnd returns the scan upper bound for all keys with the component
// prefix comps: PrefixEnd(Join(comps) + "|"). For example,
// RangeEnd("t", "ann") == "t|ann}".
func RangeEnd(comps ...string) string {
	return PrefixEnd(Join(comps...) + SepString)
}

// Join joins key components with Sep: Join("t", "ann", "100") == "t|ann|100".
func Join(comps ...string) string {
	return strings.Join(comps, SepString)
}

// Split splits a key into its components: Split("t|ann|100") ==
// ["t", "ann", "100"]. Split("") == [""].
func Split(key string) []string {
	return strings.Split(key, SepString)
}

// Table returns the first component of key — the logical table name
// joins, presence ranges and replication go by. Table("p|bob|100") == "p".
func Table(key string) string {
	if i := strings.IndexByte(key, Sep); i >= 0 {
		return key[:i]
	}
	return key
}

// Range is a half-open lexicographic key interval [Lo, Hi). An empty Hi
// means "no upper bound" (scan to the end of the keyspace).
type Range struct {
	Lo, Hi string
}

// RangeOf builds the Range covering exactly the keys that begin with the
// given component prefix, e.g. RangeOf("t", "ann") = [t|ann|, t|ann}).
func RangeOf(comps ...string) Range {
	lo := Join(comps...) + SepString
	return Range{Lo: lo, Hi: PrefixEnd(lo)}
}

// Contains reports whether key lies inside r.
func (r Range) Contains(key string) bool {
	return key >= r.Lo && (r.Hi == "" || key < r.Hi)
}

// Empty reports whether r contains no keys.
func (r Range) Empty() bool {
	return r.Hi != "" && r.Lo >= r.Hi
}

// IsPoint reports whether r holds exactly one key, its Lo: r is
// [k, k+"\x00").
func (r Range) IsPoint() bool {
	return len(r.Hi) == len(r.Lo)+1 && r.Hi[len(r.Lo)] == 0 && r.Hi[:len(r.Lo)] == r.Lo
}

// Overlaps reports whether r and s share at least one key.
func (r Range) Overlaps(s Range) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	loOK := s.Hi == "" || r.Lo < s.Hi
	hiOK := r.Hi == "" || s.Lo < r.Hi
	return loOK && hiOK
}

// Intersect returns the overlap of r and s (possibly empty).
func (r Range) Intersect(s Range) Range {
	lo := r.Lo
	if s.Lo > lo {
		lo = s.Lo
	}
	hi := r.Hi
	if hi == "" || (s.Hi != "" && s.Hi < hi) {
		hi = s.Hi
	}
	return Range{Lo: lo, Hi: hi}
}

// ContainsRange reports whether r fully contains s.
func (r Range) ContainsRange(s Range) bool {
	if s.Empty() {
		return true
	}
	if s.Lo < r.Lo {
		return false
	}
	if r.Hi == "" {
		return true
	}
	return s.Hi != "" && s.Hi <= r.Hi
}

// UnderPrefix reports whether every key of r begins with p: whether
// [p, PrefixEnd(p)) contains r. It decides that by comparing in place,
// without building PrefixEnd(p), so a read path can ask it for free.
func (r Range) UnderPrefix(p string) bool {
	if r.Empty() {
		return true
	}
	if r.Lo < p {
		return false
	}
	q := strings.TrimRight(p, "\xff")
	if q == "" {
		return true // PrefixEnd(p) is +infinity
	}
	if r.Hi == "" {
		return false
	}
	// PrefixEnd(p) is q's head followed by q's last byte plus one.
	hi, n := r.Hi, len(q)-1
	if len(hi) <= n {
		return hi <= q[:len(hi)]
	}
	if hi[:n] != q[:n] {
		return hi[:n] < q[:n]
	}
	if c := q[n] + 1; hi[n] != c {
		return hi[n] < c
	}
	return len(hi) == n+1
}

// String renders the range in the paper's half-open notation.
func (r Range) String() string {
	hi := r.Hi
	if hi == "" {
		hi = "+inf"
	}
	return "[" + r.Lo + ", " + hi + ")"
}

// MinHi returns the smaller of two upper bounds, where "" is +infinity.
func MinHi(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if a < b {
		return a
	}
	return b
}

// MaxHi returns the larger of two upper bounds, where "" is +infinity.
func MaxHi(a, b string) string {
	if a == "" || b == "" {
		return ""
	}
	if a > b {
		return a
	}
	return b
}

// HiLess reports whether upper bound a is strictly smaller than b, with ""
// meaning +infinity.
func HiLess(a, b string) bool {
	if a == "" {
		return false
	}
	if b == "" {
		return true
	}
	return a < b
}
