// Package rbtree is the red-black tree the benchmark's rbtree.* rungs
// time (benchmark/layers.go). Nothing in the running system uses it: rows,
// table and subtable order, join statuses and presence ranges live in
// internal/btree, and overlapping ranges in internal/interval's buckets
// over it. It keeps insertion, lookup and the invariant check its test
// runs, and goes with the rungs.
//
// Deprecated: benchmark rung only.
package rbtree

import "strings"

// Node is a tree node. Key is immutable for the node's lifetime; Val may
// be replaced by the caller at any time.
type Node[V any] struct {
	key                 string
	Val                 V
	left, right, parent *Node[V]
	red                 bool
}

// Tree is an ordered map from string keys to values of type V.
// The zero value is an empty tree.
type Tree[V any] struct {
	root *Node[V]
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

func isRed[V any](n *Node[V]) bool { return n != nil && n.red }

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
}

// Insert adds key with value v. If the key is already present, the
// existing node is returned with existed == true and its value left
// unchanged.
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
