// Package rbtree implements the red-black tree under package interval's
// trees of overlapping ranges: updaters, subscriptions, the backing
// database's (§3.2). Everything else ordered — rows, join status ranges,
// presence ranges, a store's tables and subtables — lives in the B+tree
// of package btree.
//
// Two properties distinguish it from a textbook tree and are load-bearing
// for Pequod:
//
//   - Pointer-stable deletion. Deleting a node never moves another node's
//     key or value between node objects (the CLRS transplant is done with
//     pointers, not payload copies), so the node pointer an interval
//     entry holds stays meaningful until that entry is deleted.
//
//   - Augmentation. A tree may carry a user aggregate (e.g. the interval
//     tree's max-high-endpoint) maintained through rotations and
//     structural changes via the Augment callback.
package rbtree

import "strings"

// Node is a tree node. Key is immutable for the node's lifetime; Val may
// be replaced by the caller at any time.
type Node[V any] struct {
	key                 string
	Val                 V
	left, right, parent *Node[V]
	red                 bool
	dead                bool
}

// Next returns the in-order successor, or nil. It must not be called on a
// deleted node.
func (n *Node[V]) Next() *Node[V] {
	if n.right != nil {
		return minimum(n.right)
	}
	p := n.parent
	c := n
	for p != nil && c == p.right {
		c = p
		p = p.parent
	}
	return p
}

// Left and Right expose children for augmented searches (interval tree
// descent); they are nil at leaves. Parent exposes the parent link so
// augmented trees can refresh aggregates along an upward path.
func (n *Node[V]) Left() *Node[V]   { return n.left }
func (n *Node[V]) Right() *Node[V]  { return n.right }
func (n *Node[V]) Parent() *Node[V] { return n.parent }

// Tree is an ordered map from string keys to values of type V.
// The zero value is an empty tree.
type Tree[V any] struct {
	root *Node[V]
	size int

	// Augment, if set, is called to recompute a node's aggregate value
	// from the node itself and its (possibly nil) children. It is invoked
	// bottom-up after every structural change along the affected path.
	// It must be set before the first insertion and not changed after.
	Augment func(n *Node[V])
}

// Len returns the number of live nodes.
func (t *Tree[V]) Len() int { return t.size }

// Root returns the root node (for augmented descents), or nil.
func (t *Tree[V]) Root() *Node[V] { return t.root }

func minimum[V any](n *Node[V]) *Node[V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

// Find returns the node with exactly the given key, or nil.
func (t *Tree[V]) Find(key string) *Node[V] {
	n := t.root
	for n != nil {
		switch c := strings.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Seek returns the first node with key >= the argument (lower bound), or
// nil if every key is smaller.
func (t *Tree[V]) Seek(key string) *Node[V] {
	var best *Node[V]
	n := t.root
	for n != nil {
		if n.key >= key {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	return best
}

func isRed[V any](n *Node[V]) bool { return n != nil && n.red }

func (t *Tree[V]) aug(n *Node[V]) {
	if t.Augment != nil && n != nil {
		t.Augment(n)
	}
}

// augPath recomputes aggregates from n up to the root.
func (t *Tree[V]) augPath(n *Node[V]) {
	if t.Augment == nil {
		return
	}
	for ; n != nil; n = n.parent {
		t.Augment(n)
	}
}

func (t *Tree[V]) rotateLeft(x *Node[V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	t.aug(x)
	t.aug(y)
}

func (t *Tree[V]) rotateRight(x *Node[V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	t.aug(x)
	t.aug(y)
}

// Insert adds key with value v. If the key is already present, the
// existing node is returned with existed == true and its value left
// unchanged — callers that want replacement semantics read the old value
// from n.Val, assign the new one, and re-augment if needed. This lets the
// store recover replaced values for reference counting and updater
// notifications.
func (t *Tree[V]) Insert(key string, v V) (n *Node[V], existed bool) {
	var parent *Node[V]
	cur := t.root
	for cur != nil {
		parent = cur
		switch c := strings.Compare(key, cur.key); {
		case c < 0:
			cur = cur.left
		case c > 0:
			cur = cur.right
		default:
			return cur, true
		}
	}
	n = &Node[V]{key: key, Val: v, parent: parent, red: true}
	switch {
	case parent == nil:
		t.root = n
	case key < parent.key:
		parent.left = n
	default:
		parent.right = n
	}
	t.size++
	t.augPath(n)
	t.insertFixup(n)
	return n, false
}

func (t *Tree[V]) insertFixup(z *Node[V]) {
	for isRed(z.parent) {
		gp := z.parent.parent // non-nil: a red parent is never the root
		if z.parent == gp.left {
			u := gp.right
			if isRed(u) {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.red = false
				gp.red = true
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if isRed(u) {
				z.parent.red = false
				u.red = false
				gp.red = true
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.red = false
				gp.red = true
				t.rotateLeft(gp)
			}
		}
	}
	t.root.red = false
}

// transplant replaces the subtree rooted at u with the subtree rooted at v.
func (t *Tree[V]) transplant(u, v *Node[V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

// Delete removes node z from the tree and marks it dead. Other nodes'
// pointers, keys, and values are unaffected (no payload swapping), so
// hints to surviving nodes stay valid. Deleting an already-dead node is a
// no-op.
func (t *Tree[V]) Delete(z *Node[V]) {
	if z == nil || z.dead {
		return
	}
	var x, xParent *Node[V]
	y := z
	yWasRed := y.red
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = minimum(z.right)
		yWasRed = y.red
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.red = z.red
	}
	t.size--
	z.left, z.right, z.parent = nil, nil, nil
	z.dead = true
	t.augPath(xParent)
	if !yWasRed {
		t.deleteFixup(x, xParent)
	}
}

func (t *Tree[V]) deleteFixup(x, parent *Node[V]) {
	for x != t.root && !isRed(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if isRed(w) {
				w.red = false
				parent.red = true
				t.rotateLeft(parent)
				w = parent.right
			}
			if !isRed(w.left) && !isRed(w.right) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if !isRed(w.right) {
					if w.left != nil {
						w.left.red = false
					}
					w.red = true
					t.rotateRight(w)
					w = parent.right
				}
				w.red = parent.red
				parent.red = false
				if w.right != nil {
					w.right.red = false
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if isRed(w) {
				w.red = false
				parent.red = true
				t.rotateRight(parent)
				w = parent.left
			}
			if !isRed(w.right) && !isRed(w.left) {
				w.red = true
				x = parent
				parent = x.parent
			} else {
				if !isRed(w.left) {
					if w.right != nil {
						w.right.red = false
					}
					w.red = true
					t.rotateLeft(w)
					w = parent.left
				}
				w.red = parent.red
				parent.red = false
				if w.left != nil {
					w.left.red = false
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.red = false
	}
}

// Ascend calls fn for each node with lo <= key < hi in ascending order
// (hi == "" means unbounded), stopping early if fn returns false.
func (t *Tree[V]) Ascend(lo, hi string, fn func(n *Node[V]) bool) {
	for n := t.Seek(lo); n != nil && (hi == "" || n.key < hi); n = n.Next() {
		if !fn(n) {
			return
		}
	}
}
