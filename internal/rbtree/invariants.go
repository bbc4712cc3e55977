package rbtree

import "fmt"

// CheckInvariants validates the red-black and BST invariants plus parent
// pointers, and returns the number of nodes. It is O(n).
func (t *Tree[V]) CheckInvariants() (nodes int, err error) {
	switch {
	case t.root == nil:
		return 0, nil
	case t.root.parent != nil:
		return 0, fmt.Errorf("root has a parent")
	case t.root.red:
		return 0, fmt.Errorf("root is red")
	}
	_, err = checkNode(t.root, "", "", &nodes)
	return nodes, err
}

// checkNode verifies the subtree at n and returns its black height.
// lo/hi bound the permitted key range ("" = unbounded on that side).
func checkNode[V any](n *Node[V], lo, hi string, count *int) (int, error) {
	if n == nil {
		return 1, nil
	}
	*count++
	if lo != "" && n.key <= lo {
		return 0, fmt.Errorf("key %q violates lower bound %q", n.key, lo)
	}
	if hi != "" && n.key >= hi {
		return 0, fmt.Errorf("key %q violates upper bound %q", n.key, hi)
	}
	if n.left != nil && n.left.parent != n {
		return 0, fmt.Errorf("bad parent pointer at left child of %q", n.key)
	}
	if n.right != nil && n.right.parent != n {
		return 0, fmt.Errorf("bad parent pointer at right child of %q", n.key)
	}
	if n.red && (isRed(n.left) || isRed(n.right)) {
		return 0, fmt.Errorf("red node %q has a red child", n.key)
	}
	lh, err := checkNode(n.left, lo, n.key, count)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(n.right, n.key, hi, count)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("black height mismatch at %q: %d vs %d", n.key, lh, rh)
	}
	if !n.red {
		lh++
	}
	return lh, nil
}
