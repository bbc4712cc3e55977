package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Check validates the tree's structure: keys ascend within and across
// leaves, every separator equals the lower fence of the leftmost leaf
// beneath it and bounds its subtree, no leaf in the tree is empty or
// dead, the leaf chain is the in-order sequence of leaves, and the pair,
// leaf, interior-node and arena counts match. Of every leaf it checks
// the packing too: every key's entry lies whole in the arena, no two
// overlap, their bytes and the garbage add up to the arena's, and a leaf
// of two keys or more stays within maxKeyBytes. It is exported for
// tests (including property tests in dependent packages) and is O(n).
func (t *Tree[V]) Check() error {
	if t.height == 0 {
		if t.size != 0 || t.leaves != 0 || t.inners != 0 || t.arenas != 0 || t.first != nil || t.root != (kid[V]{}) {
			return fmt.Errorf("empty tree holds size %d, %d leaves, %d interior nodes, %d arena bytes, first %p",
				t.size, t.leaves, t.inners, t.arenas, t.first)
		}
		return nil
	}
	if t.height > 1 && t.root.in.n < 2 {
		return fmt.Errorf("interior root with %d children", t.root.in.n)
	}
	c := checker[V]{}
	if err := c.walk(t.root, t.height, ""); err != nil {
		return err
	}
	if c.size != t.size || len(c.order) != t.leaves || c.inners != t.inners {
		return fmt.Errorf("counted %d pairs, %d leaves, %d interior nodes; tree says %d, %d, %d",
			c.size, len(c.order), c.inners, t.size, t.leaves, t.inners)
	}
	var prev *leaf[V]
	lf, arenas := t.first, 0
	for i, want := range c.order {
		if lf != want {
			return fmt.Errorf("chain diverges from the tree at leaf %d", i)
		}
		if lf.prev != prev {
			return fmt.Errorf("leaf %d (fence %q) has a wrong back link", i, lf.lo)
		}
		if prev != nil && prev.key(prev.n-1) >= lf.lo {
			return fmt.Errorf("key %q is not below the next leaf's fence %q", prev.key(prev.n-1), lf.lo)
		}
		arenas += cap(lf.arena)
		prev, lf = lf, lf.next
	}
	if lf != nil {
		return fmt.Errorf("chain continues past the tree's last leaf")
	}
	if arenas != t.arenas {
		return fmt.Errorf("leaf arenas hold %d bytes; tree says %d", arenas, t.arenas)
	}
	return nil
}

type checker[V any] struct {
	order        []*leaf[V]
	size, inners int
}

// walk checks the subtree k of height h, whose lower fence must be fence.
func (c *checker[V]) walk(k kid[V], h int, fence string) error {
	if h == 1 {
		lf := k.lf
		switch {
		case lf == nil || k.in != nil:
			return fmt.Errorf("malformed child at the leaf level under fence %q", fence)
		case lf.dead || lf.n < 1 || lf.n > fanout:
			return fmt.Errorf("leaf %q in the tree: dead %v, %d pairs", lf.lo, lf.dead, lf.n)
		case lf.lo != fence:
			return fmt.Errorf("leaf fence %q, its separator says %q", lf.lo, fence)
		}
		if err := checkArena(lf); err != nil {
			return err
		}
		if lf.key(0) < lf.lo {
			return fmt.Errorf("key %q below its leaf's fence %q", lf.key(0), lf.lo)
		}
		for i := 1; i < lf.n; i++ {
			if lf.key(i-1) >= lf.key(i) {
				return fmt.Errorf("leaf %q: key %q before %q", lf.lo, lf.key(i-1), lf.key(i))
			}
		}
		c.order = append(c.order, lf)
		c.size += lf.n
		return nil
	}
	in := k.in
	if in == nil || k.lf != nil || in.n < 1 || in.n > fanout {
		return fmt.Errorf("malformed interior node under fence %q", fence)
	}
	c.inners++
	for i := 0; i < in.n; i++ {
		f := fence
		if i > 0 {
			f = in.keys[i]
		}
		if err := c.walk(in.vals[i], h-1, f); err != nil {
			return err
		}
	}
	return nil
}

// checkArena checks lf's entries against its arena.
func checkArena[V any](lf *leaf[V]) error {
	type span struct{ at, end int }
	spans := make([]span, lf.n)
	live := 0
	for i := range spans {
		at, n, h := int(lf.offs[i]), int(lf.lens[i]), 0
		if n == longLen && at+longHead <= len(lf.arena) {
			n, h = int(binary.LittleEndian.Uint32(lf.arena[at:])), longHead
		}
		if at >= len(lf.arena) && n > 0 || at+h+n > len(lf.arena) {
			return fmt.Errorf("leaf %q: the entry of slot %d at %d runs past the arena's %d bytes", lf.lo, i, at, len(lf.arena))
		}
		spans[i] = span{at, at + h + n}
		live += h + n
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Or(a.at-b.at, a.end-b.end) }) // an empty key's entry is empty
	for i := 1; i < len(spans); i++ {
		if spans[i].at < spans[i-1].end {
			return fmt.Errorf("leaf %q: the entries at %d and %d overlap", lf.lo, spans[i-1].at, spans[i].at)
		}
	}
	switch {
	case live+lf.garbage != len(lf.arena):
		return fmt.Errorf("leaf %q: entries of %d bytes and %d of garbage in an arena of %d", lf.lo, live, lf.garbage, len(lf.arena))
	case lf.n > 1 && live > maxKeyBytes:
		return fmt.Errorf("leaf %q: %d keys take %d bytes", lf.lo, lf.n, live)
	}
	return nil
}
