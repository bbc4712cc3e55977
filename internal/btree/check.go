package btree

import "fmt"

// Check validates the tree's structure: keys ascend within and across
// leaves, every separator equals the lower fence of the leftmost leaf
// beneath it and bounds its subtree, no leaf in the tree is empty or
// dead, the leaf chain is the in-order sequence of leaves, and the pair,
// leaf and interior-node counts match. It is exported for tests
// (including property tests in dependent packages) and is O(n).
func (t *Tree[V]) Check() error {
	if t.height == 0 {
		if t.size != 0 || t.leaves != 0 || t.inners != 0 || t.first != nil || t.root != (kid[V]{}) {
			return fmt.Errorf("empty tree holds size %d, %d leaves, %d interior nodes, first %p",
				t.size, t.leaves, t.inners, t.first)
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
	lf := t.first
	for i, want := range c.order {
		if lf != want {
			return fmt.Errorf("chain diverges from the tree at leaf %d", i)
		}
		if lf.prev != prev {
			return fmt.Errorf("leaf %d (fence %q) has a wrong back link", i, lf.lo)
		}
		if prev != nil && prev.keys[prev.n-1] >= lf.lo {
			return fmt.Errorf("key %q is not below the next leaf's fence %q", prev.keys[prev.n-1], lf.lo)
		}
		prev, lf = lf, lf.next
	}
	if lf != nil {
		return fmt.Errorf("chain continues past the tree's last leaf")
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
		case lf.keys[0] < lf.lo:
			return fmt.Errorf("key %q below its leaf's fence %q", lf.keys[0], lf.lo)
		}
		for i := 1; i < lf.n; i++ {
			if lf.keys[i-1] >= lf.keys[i] {
				return fmt.Errorf("leaf %q: key %q before %q", lf.lo, lf.keys[i-1], lf.keys[i])
			}
		}
		for i := lf.n; i < fanout; i++ {
			if lf.keys[i] != "" {
				return fmt.Errorf("leaf %q: slot %d past the end still holds %q", lf.lo, i, lf.keys[i])
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
