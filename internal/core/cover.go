package core

import (
	"pequod/internal/btree"
	"pequod/internal/keys"
)

// ranged is a record of a cover: a join status or a presence record.
type ranged interface {
	comparable
	span() keys.Range
}

// cover indexes disjoint key ranges — a join's status ranges (§3.2), a
// loader-backed table's presence records (§3.3) — by where they start.
// Disjointness is what makes a plain ordered map enough: the only record
// that can reach a key from before it is the last one starting at or
// below it, one floor probe away.
type cover[T ranged] struct {
	t btree.Tree[T]
}

// add indexes rec, whose range must be disjoint from every record's.
func (c *cover[T]) add(rec T) { c.t.Set(rec.span().Lo, rec, nil) }

// drop removes rec, reporting whether it was still indexed. A record
// that left earlier stays out, and whatever took its place stays in.
func (c *cover[T]) drop(rec T) bool {
	lo := rec.span().Lo
	if cur, ok := c.t.Get(lo); !ok || cur != rec {
		return false
	}
	c.t.Delete(lo)
	return true
}

// at returns the record whose range holds key.
func (c *cover[T]) at(key string) (rec T, ok bool) {
	c.t.AscendFloor(key, "", func(_ string, r T) bool {
		if r.span().Contains(key) {
			rec, ok = r, true
		}
		return false
	})
	return rec, ok
}

// all visits every record in range order.
func (c *cover[T]) all(each func(T)) {
	c.t.Ascend("", "", func(_ string, r T) bool { each(r); return true })
}

// walk is the one pass a read makes over a cover (§3.1, §3.3): each sees
// the records overlapping r in range order and says whether the record
// still covers its range afterwards; gap, if non-nil, is then handed
// every maximal piece of r that no covering record holds, in order,
// interleaved with each. Both may add and drop records as they go.
func (c *cover[T]) walk(r keys.Range, each func(T) bool, gap func(keys.Range)) {
	next, open := r.Lo, true // r is covered below next; open until coverage reaches r.Hi
	c.t.AscendFloor(r.Lo, r.Hi, func(_ string, rec T) bool {
		s := rec.span()
		if !s.Overlaps(r) || !each(rec) {
			return true
		}
		if gap != nil && next < s.Lo {
			gap(keys.Range{Lo: next, Hi: s.Lo})
		}
		next, open = s.Hi, s.Hi != "" && (r.Hi == "" || s.Hi < r.Hi)
		return open
	})
	if gap != nil && open {
		gap(keys.Range{Lo: next, Hi: r.Hi})
	}
}
