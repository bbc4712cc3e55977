// Package store implements Pequod's ordered key-value store (§4): one
// B+tree (internal/btree) holds every row of every table in byte order,
// so a scan of a materialised timeline walks arrays, and a scan that
// crosses tables, or a partition map's range cut, sees the keys in the
// same order a sorted slice of them has. A table is nothing but its
// key prefix.
//
// The paper splits a table at developer-marked key boundaries into
// pieces a hash index finds in O(1) (§4.1). This store does not: measured
// here, the split bought no speed for more memory (DESIGN.md "Row
// storage").
//
// Values are reference-counted (§4.3): the copy operator can install the
// same *Value under many output keys, and the store's memory accounting
// counts each shared payload once. The engine decides whether to share;
// the store only tracks references.
package store

import "pequod/internal/btree"

// Memory accounting charges what the Go heap holds for the rows: every
// B+tree node at its allocation size class whether full or not, each
// leaf's key arena at its capacity, which is its size class (keys are
// not objects of their own: a leaf packs them), and each distinct value
// once. TestAccountingMatchesHeap holds Bytes() to within 15 % of
// measured heap growth for Twip-shaped rows, and
// btree.TestNodeSizeClasses pins the two node constants to what the
// allocator hands out.
const (
	leafBytes     = 768  // packed btree leaf: 62 × (*Value + 16-bit offset + 8-bit length) + fence, arena header, links, counts
	innerBytes    = 2048 // btree interior node: 62 × (separator + child) + count
	valueOverhead = 24   // Value struct: string header + refcount
)

// allocSize is what the heap spends on an n-byte value payload:
// Go's size classes step by 8 up to 32 bytes and by 16 up to 256. Beyond
// that they step wider and this under-counts by a few percent.
func allocSize(n int) int64 {
	if n <= 32 {
		return int64(n+7) &^ 7
	}
	return int64(n+15) &^ 15
}

// Value is a reference-counted string value (§4.3). A Value may be
// installed under many keys; the store counts its payload bytes once.
// Values are not safe for concurrent mutation — Pequod engines are
// single-writer, as in the paper.
type Value struct {
	s    string
	refs int32
}

// NewValue returns a fresh, unshared value.
func NewValue(s string) *Value { return &Value{s: s} }

// String returns the value's contents.
func (v *Value) String() string { return v.s }

// Len returns the payload length in bytes.
func (v *Value) Len() int { return len(v.s) }

// Refs returns the current reference count (for tests and stats).
func (v *Value) Refs() int { return int(v.refs) }

// Keys is one run of a ScanRuns scan's keys (btree.Keys).
type Keys = btree.Keys

// Hint is an output hint (§4.2): a finger on the leaf a join status
// range last wrote to, enabling O(1) amortized inserts of the common
// "immediately after the previous update" case. Hints stay usable across
// splits, spills and deletions because a leaf keeps its identity until it
// empties; a freed leaf, or one that no longer covers the key, simply
// downgrades the hinted insert to a normal one.
type Hint = btree.Hint[*Value]

// Store is the whole store: one B+tree of rows. It is not safe for
// concurrent use; the engine (like the paper's single-threaded server)
// serializes access.
type Store struct {
	tree  btree.Tree[*Value]
	bytes int64
}

// New returns an empty store.
func New() *Store { return &Store{} }

// nodeBytes is the heap the tree's nodes and key arenas occupy.
func (s *Store) nodeBytes() int64 {
	leaves, inners := s.tree.Nodes()
	return int64(leaves)*leafBytes + int64(inners)*innerBytes + int64(s.tree.ArenaBytes())
}

// retain/release maintain shared-value accounting (§4.3).
func (s *Store) retain(v *Value) {
	if v.refs == 0 {
		s.bytes += allocSize(v.Len()) + valueOverhead
	}
	v.refs++
}

func (s *Store) release(v *Value) {
	v.refs--
	if v.refs == 0 {
		s.bytes -= allocSize(v.Len()) + valueOverhead
	}
}

// Get returns the value stored under key.
func (s *Store) Get(key string) (*Value, bool) { return s.tree.Get(key) }

// Put installs v under key, replacing and returning any previous value.
// The store takes a reference on v and drops one on the replaced value.
// A key that already holds a value with v's contents keeps it: the store
// stays exactly as it was — the stored *Value, its references, Bytes() —
// v is not retained, and changed is false.
func (s *Store) Put(key string, v *Value) (old *Value, changed bool) {
	return s.PutHint(key, v, nil)
}

// PutHint is Put through an output hint (§4.2). The hint is left on the
// leaf holding key, whether or not the value changed; pass the same Hint
// on consecutive calls to get O(1) amortized appends. A nil hint behaves
// like Put, and a hint that points into another store or at a freed
// leaf is ignored. Telling an unchanged value apart costs nothing beyond
// the descent the write makes anyway.
func (s *Store) PutHint(key string, v *Value, h *Hint) (old *Value, changed bool) {
	nodes := s.nodeBytes()
	old, existed, kept := s.tree.SetUnless(key, v, h, sameValue)
	if kept {
		return old, false
	}
	if !existed {
		s.bytes += s.nodeBytes() - nodes
	}
	s.retain(v)
	if existed {
		s.release(old)
	}
	return old, true
}

// sameValue reports whether two values have the same contents.
func sameValue(a, b *Value) bool { return a == b || a.s == b.s }

// Remove deletes key, returning the removed value.
func (s *Store) Remove(key string) (*Value, bool) {
	nodes := s.nodeBytes()
	v, ok := s.tree.Delete(key)
	if !ok {
		return nil, false
	}
	s.bytes -= nodes - s.nodeBytes()
	s.release(v)
	return v, true
}

// Scan calls fn for every key in [lo, hi) in ascending order (hi == ""
// means unbounded), stopping early if fn returns false. fn may write to
// the store; keys it adds behind the scan's position are not visited.
// Keys are views of the packed leaves' arenas (btree.Tree.Ascend): fn
// may keep them, and a key kept holds its leaf's arena alive.
func (s *Store) Scan(lo, hi string, fn func(k string, v *Value) bool) {
	s.tree.Ascend(lo, hi, fn)
}

// ScanRuns is Scan a leaf at a time: fn receives consecutive runs of
// [lo, hi) as their keys and a parallel value slice, and how many pairs
// of the range follow the run, so a caller copying the range out can
// make room once. A limit > 0 stops the scan, and its count, after the
// first limit pairs. The value slice and the Keys value alias the store: fn
// must neither keep nor modify them, nor write to the store. The keys
// Keys.At returns are views of the leaves' arenas, which fn may keep.
//
// h, if non-nil, is an output hint to start the scan from (§4.2): a join
// status's hint sits on the leaf its newest rows went to, which is where
// a timeline check starts. It is used only when its leaf is a live leaf
// of this store covering lo; otherwise the scan descends as it would
// without one.
func (s *Store) ScanRuns(lo, hi string, limit int, h *Hint, fn func(keys Keys, vals []*Value, rest int) bool) {
	s.tree.AscendRuns(lo, hi, limit, h, fn)
}

// CountRange returns the number of keys in [lo, hi): the first run and
// the pairs that follow it.
func (s *Store) CountRange(lo, hi string) int {
	c := 0
	s.ScanRuns(lo, hi, 0, nil, func(ks Keys, _ []*Value, rest int) bool { c = ks.Len() + rest; return false })
	return c
}

// RemoveRange deletes every key in [lo, hi), invoking fn (if non-nil) for
// each removed pair in key order, and returns the number removed. It is
// one cut through the tree, whole leaves at a time: the eviction and
// invalidation path. fn must not use the store; the keys it is given are
// views, as Scan's are.
func (s *Store) RemoveRange(lo, hi string, fn func(k string, v *Value)) int {
	nodes := s.nodeBytes()
	n := s.tree.DeleteRange(lo, hi, func(k string, v *Value) {
		s.release(v)
		if fn != nil {
			fn(k, v)
		}
	})
	s.bytes -= nodes - s.nodeBytes()
	return n
}

// Len returns the total number of keys.
func (s *Store) Len() int { return s.tree.Len() }

// Bytes returns the store's memory footprint, counting shared value
// payloads once (§4.3).
func (s *Store) Bytes() int64 { return s.bytes }

// Nodes returns how many B+tree leaves and interior nodes hold the
// store's rows.
func (s *Store) Nodes() (leaves, inners int) { return s.tree.Nodes() }
