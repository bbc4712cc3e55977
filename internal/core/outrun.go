package core

import (
	"slices"

	"pequod/internal/store"
)

// outRun collects the rows of one forward execution in the order the
// nested loop emits them, so they can land in key order (exec.land). The
// loop emits one ascending stretch per scan of the value source — a
// timeline's rows followee by followee — so key order is a merge of
// those stretches, not a sort.
type outRun struct {
	keys   []string
	vals   []*store.Value
	starts []int // where each ascending stretch of keys begins

	// The merge's output and its loser tree: pos and end bound each
	// stretch's unmerged rows, lt[0] is the stretch whose head comes
	// first and lt[1:] the losers of the tree's matches.
	mk         []string
	mv         []*store.Value
	pos, end   []int
	lt, winner []int
}

// add appends one emitted row.
func (o *outRun) add(k string, v *store.Value) {
	if n := len(o.keys); n == 0 || k < o.keys[n-1] {
		o.starts = append(o.starts, n)
	}
	o.keys = append(o.keys, k)
	o.vals = append(o.vals, v)
}

// sorted returns the rows in key order, rows with equal keys in the
// order they were emitted.
func (o *outRun) sorted() ([]string, []*store.Value) {
	if len(o.starts) <= 1 {
		return o.keys, o.vals
	}
	o.merge()
	return o.mk, o.mv
}

// before reports whether stretch a's next row comes before stretch b's:
// the smaller key, the earlier stretch on a tie, and an exhausted
// stretch after every other.
func (o *outRun) before(a, b int) bool {
	switch {
	case o.pos[a] == o.end[a]:
		return false
	case o.pos[b] == o.end[b]:
		return true
	}
	ka, kb := o.keys[o.pos[a]], o.keys[o.pos[b]]
	return ka < kb || (ka == kb && a < b)
}

// merge merges the k stretches into mk and mv through a loser tree: one
// comparison per level of the tree for every row, about log2(k).
// Stretch s is the tree's leaf k+s, and node n's children are 2n and
// 2n+1, which for any k ≥ 2 is a complete binary tree.
func (o *outRun) merge() {
	k := len(o.starts)
	o.pos = append(o.pos[:0], o.starts...)
	o.end = append(append(o.end[:0], o.starts[1:]...), len(o.keys))
	o.lt = slices.Grow(o.lt[:0], k)[:k]
	o.winner = slices.Grow(o.winner[:0], 2*k)[:2*k]
	for s := 0; s < k; s++ {
		o.winner[k+s] = s
	}
	for n := k - 1; n >= 1; n-- {
		a, b := o.winner[2*n], o.winner[2*n+1]
		if o.before(b, a) {
			a, b = b, a
		}
		o.winner[n], o.lt[n] = a, b
	}
	o.lt[0] = o.winner[1]
	o.mk, o.mv = o.mk[:0], o.mv[:0]
	for range o.keys {
		w := o.lt[0]
		o.mk = append(o.mk, o.keys[o.pos[w]])
		o.mv = append(o.mv, o.vals[o.pos[w]])
		o.pos[w]++
		for n := (k + w) / 2; n >= 1; n /= 2 {
			if o.before(o.lt[n], w) {
				o.lt[n], w = w, o.lt[n]
			}
		}
		o.lt[0] = w
	}
}

// reset empties o for the next execution, keeping its capacity but no
// key or value.
func (o *outRun) reset() {
	clear(o.keys)
	clear(o.vals)
	clear(o.mk)
	clear(o.mv)
	o.keys, o.vals, o.mk, o.mv, o.starts = o.keys[:0], o.vals[:0], o.mk[:0], o.mv[:0], o.starts[:0]
}
