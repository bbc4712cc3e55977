// Package store implements Pequod's ordered key-value store (§4): a
// layered arrangement of ordered containers visible to clients as a
// single ordered keyspace.
//
// The first layer separates logical tables (the prefix before the first
// '|'), "separating concerns for different ranges" as Fig 6 shows. Tables
// may be subdivided into subtables at developer-marked component
// boundaries; a hash index lets operations that lie entirely within a
// subtable jump to it in O(1) instead of O(log N), while cross-boundary
// scans still execute in full key order (§4.1). Under a table or subtable
// the rows themselves live in the leaves of one B+tree (internal/btree),
// so a scan of a materialised timeline walks arrays.
//
// Values are reference-counted (§4.3): the copy operator can install the
// same *Value under many output keys, and the store's memory accounting
// counts each shared payload once. The engine decides whether to share;
// the store only tracks references.
//
// Ordering caveat: the single-ordered-keyspace guarantee assumes table
// names are prefix-free (no table name is a proper prefix of another),
// which every Pequod application in the paper satisfies. Subtable
// boundary prefixes are prefix-free by construction.
package store

import (
	"pequod/internal/btree"
	"pequod/internal/keys"
)

// Memory accounting charges what the Go heap holds for the rows: every
// B+tree node at its allocation size class whether full or not, each
// leaf's key arena at its capacity, which is its size class (keys are
// not objects of their own: a leaf packs them), and each distinct value
// once. TestAccountingMatchesHeap holds Bytes() to within 15 % of
// measured heap growth for Twip-shaped rows, and
// btree.TestNodeSizeClasses pins the two node constants to what the
// allocator hands out.
const (
	leafBytes        = 768  // packed btree leaf: 62 × (*Value + 16-bit offset + 8-bit length) + fence, arena header, links, counts
	innerBytes       = 2048 // btree interior node: 62 × (separator + child) + count
	valueOverhead    = 24   // Value struct: string header + refcount
	subtableOverhead = 168  // subtable struct (80) + its slot in the order tree (24 in a full leaf, ~40 typical) + hash index slot (~48)
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

// tree is the row container under a table or subtable.
type tree = btree.Tree[*Value]

// Keys is one run of a ScanRuns scan's keys (btree.Keys).
type Keys = btree.Keys

// Hint is an output hint (§4.2): a finger on the leaf a join status
// range last wrote to, enabling O(1) amortized inserts of the common
// "immediately after the previous update" case. Hints stay usable across
// splits, spills and deletions because a leaf keeps its identity until it
// empties; a freed leaf, or one that no longer covers the key, simply
// downgrades the hinted insert to a normal one.
type Hint = btree.Hint[*Value]

// subtable is one hash-indexed shard of a table.
type subtable struct {
	prefix string
	tree   tree
}

// Table is one logical table: a named subtree of the store.
type Table struct {
	depth int // subtable boundary depth in components; 0 = no subtables

	tree     tree                 // used when depth == 0
	subs     map[string]*subtable // hash index over subtables (§4.1)
	subOrder btree.Tree[*subtable]
}

// Len returns the number of keys in the table.
func (t *Table) Len() int {
	n := 0
	t.trees("", "", func(tr *tree) bool {
		n += tr.Len()
		return true
	})
	return n
}

// treeFor returns the tree holding key, creating the subtable if asked.
func (t *Table) treeFor(key string, create bool) *tree {
	if t.depth == 0 {
		return &t.tree
	}
	pfx := keys.Prefix(key, t.depth)
	sub := t.subs[pfx]
	if sub == nil {
		if !create {
			return nil
		}
		sub = &subtable{prefix: pfx}
		t.subs[pfx] = sub
		t.subOrder.Set(pfx, sub, nil)
	}
	return &sub.tree
}

// trees calls fn for each of the table's trees that can hold keys of
// [lo, hi), in key order, until fn returns false.
func (t *Table) trees(lo, hi string, fn func(tr *tree) bool) bool {
	if t.depth == 0 {
		return fn(&t.tree)
	}
	return t.subOrder.Ascend(keys.Prefix(lo, t.depth), hi, func(_ string, sub *subtable) bool {
		return fn(&sub.tree)
	})
}

// footprint is what the table's containers occupy beyond keys and values.
func (t *Table) footprint() int64 {
	b := int64(len(t.subs)) * subtableOverhead
	t.trees("", "", func(tr *tree) bool {
		b += nodeBytes(tr)
		return true
	})
	return b
}

// nodeBytes is the heap a tree's nodes and key arenas occupy.
func nodeBytes(tr *tree) int64 {
	leaves, inners := tr.Nodes()
	return int64(leaves)*leafBytes + int64(inners)*innerBytes + int64(tr.ArenaBytes())
}

// Store is the full layered store. It is not safe for concurrent use; the
// engine (like the paper's single-threaded server) serializes access.
type Store struct {
	tables map[string]*Table
	order  btree.Tree[*Table]

	bytes   int64
	entries int

	// SubtableDepths configures tables to be created with subtable
	// boundaries; see SetSubtableDepth.
	depths map[string]int
}

// New returns an empty store.
func New() *Store {
	return &Store{
		tables: make(map[string]*Table),
		depths: make(map[string]int),
	}
}

// SetSubtableDepth marks a natural key boundary for a table (§4.1): keys
// are sharded into hash-indexed subtables on their first depth
// components. Existing table contents are re-sharded, so the call is
// valid at any time, though it is cheapest before data arrives.
func (s *Store) SetSubtableDepth(table string, depth int) {
	if depth < 0 {
		depth = 0
	}
	s.depths[table] = depth
	t := s.tables[table]
	if t == nil || t.depth == depth {
		return
	}
	// Re-shard: cut every row out of the old trees — which also kills
	// their leaves for any hint still pointing there — and reinsert.
	// Keys and values are accounted as before; the containers change.
	type kv struct {
		k string
		v *Value
	}
	var all []kv
	s.bytes -= t.footprint()
	t.trees("", "", func(tr *tree) bool {
		tr.DeleteRange("", "", func(k string, v *Value) { all = append(all, kv{k, v}) })
		return true
	})
	t.depth = depth
	t.subs = nil
	t.subOrder = btree.Tree[*subtable]{}
	if depth > 0 {
		t.subs = make(map[string]*subtable)
	}
	var h Hint // rows arrive in key order
	for _, e := range all {
		t.treeFor(e.k, true).Set(e.k, e.v, &h)
	}
	s.bytes += t.footprint()
}

// table returns the Table for key, creating it if asked.
func (s *Store) table(key string, create bool) *Table {
	name := keys.Table(key)
	t := s.tables[name]
	if t == nil && create {
		t = &Table{depth: s.depths[name]}
		if t.depth > 0 {
			t.subs = make(map[string]*subtable)
		}
		s.tables[name] = t
		s.order.Set(name, t, nil)
	}
	return t
}

// lookup returns the tree that holds key if it exists, or nil.
func (s *Store) lookup(key string) *tree {
	t := s.table(key, false)
	if t == nil {
		return nil
	}
	return t.treeFor(key, false)
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) *Table { return s.tables[name] }

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
func (s *Store) Get(key string) (*Value, bool) {
	tr := s.lookup(key)
	if tr == nil {
		return nil, false
	}
	return tr.Get(key)
}

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
// like Put, and a hint that points into another subtable or at a freed
// leaf is ignored. Telling an unchanged value apart costs nothing beyond
// the descent the write makes anyway.
func (s *Store) PutHint(key string, v *Value, h *Hint) (old *Value, changed bool) {
	t := s.table(key, true)
	subs := len(t.subs)
	tr := t.treeFor(key, true)
	s.bytes += int64(len(t.subs)-subs) * subtableOverhead
	nodes := nodeBytes(tr)
	old, existed, kept := tr.SetUnless(key, v, h, sameValue)
	if kept {
		return old, false
	}
	if !existed {
		s.entries++
		s.bytes += nodeBytes(tr) - nodes
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
	tr := s.lookup(key)
	if tr == nil {
		return nil, false
	}
	nodes := nodeBytes(tr)
	v, ok := tr.Delete(key)
	if !ok {
		return nil, false
	}
	s.entries--
	s.bytes -= nodes - nodeBytes(tr)
	s.release(v)
	return v, true
}

// trees calls fn for each tree that can hold keys of [lo, hi), in key
// order, until fn returns false.
func (s *Store) trees(lo, hi string, fn func(tr *tree) bool) {
	s.order.Ascend(keys.Table(lo), hi, func(_ string, t *Table) bool { return t.trees(lo, hi, fn) })
}

// Scan calls fn for every key in [lo, hi) in ascending order (hi == ""
// means unbounded), stopping early if fn returns false. fn may write to
// the store; keys it adds behind the scan's position are not visited.
// Keys are views of the packed leaves' arenas (btree.Tree.Ascend): fn
// may keep them, and a key kept holds its leaf's arena alive.
func (s *Store) Scan(lo, hi string, fn func(k string, v *Value) bool) {
	s.trees(lo, hi, func(tr *tree) bool { return tr.Ascend(lo, hi, fn) })
}

// ScanRuns is Scan a leaf at a time: fn receives consecutive runs of
// [lo, hi) as their keys and a parallel value slice, and how many pairs
// of the range follow the run in the same table or subtable, so a
// caller copying the range out can make room once. The value slice and
// the Keys value alias the store: fn must neither keep nor modify them,
// nor write to the store. The keys Keys.At returns are views of the
// leaves' arenas, which fn may keep.
//
// h, if non-nil, is an output hint to start the scan from (§4.2): a join
// status's hint sits on the leaf its newest rows went to, which is where
// a timeline check starts. It is used only when one tree holds all of
// [lo, hi) — a table without subtables, or a range inside one subtable —
// and its leaf is a live leaf of that tree covering lo; otherwise the
// scan descends as it would without one.
func (s *Store) ScanRuns(lo, hi string, h *Hint, fn func(keys Keys, vals []*Value, rest int) bool) {
	if h != nil {
		if tr := s.holder(lo, hi); tr != nil {
			tr.AscendRuns(lo, hi, h, fn)
			return
		}
	}
	s.trees(lo, hi, func(tr *tree) bool { return tr.AscendRuns(lo, hi, nil, fn) })
}

// holder returns the one tree that holds every key of [lo, hi), or nil
// when the range may reach past one table or subtable. It builds no
// strings: the table's or subtable's prefix is a prefix of lo.
func (s *Store) holder(lo, hi string) *tree {
	t := s.tables[keys.Table(lo)]
	if t == nil {
		return nil
	}
	pfx := keys.Prefix(lo, max(t.depth, 1))
	if pfx == "" || pfx[len(pfx)-1] != keys.Sep || !(keys.Range{Lo: lo, Hi: hi}).UnderPrefix(pfx) {
		return nil
	}
	return t.treeFor(pfx, false)
}

// CountRange returns the number of keys in [lo, hi).
func (s *Store) CountRange(lo, hi string) int {
	c := 0
	s.ScanRuns(lo, hi, nil, func(ks Keys, _ []*Value, _ int) bool { c += ks.Len(); return true })
	return c
}

// RemoveRange deletes every key in [lo, hi), invoking fn (if non-nil) for
// each removed pair in key order, and returns the number removed. It is
// one cut through each tree the range touches, whole leaves at a time:
// the eviction and invalidation path. fn must not use the store; the
// keys it is given are views, as Scan's are.
func (s *Store) RemoveRange(lo, hi string, fn func(k string, v *Value)) int {
	n := 0
	s.trees(lo, hi, func(tr *tree) bool {
		nodes := nodeBytes(tr)
		n += tr.DeleteRange(lo, hi, func(k string, v *Value) {
			s.release(v)
			if fn != nil {
				fn(k, v)
			}
		})
		s.bytes -= nodes - nodeBytes(tr)
		return true
	})
	s.entries -= n
	return n
}

// Len returns the total number of keys.
func (s *Store) Len() int { return s.entries }

// Bytes returns the store's memory footprint, counting shared value
// payloads once (§4.3).
func (s *Store) Bytes() int64 { return s.bytes }

// Nodes returns how many B+tree leaves and interior nodes hold the
// store's rows.
func (s *Store) Nodes() (leaves, inners int) {
	for _, t := range s.tables {
		t.trees("", "", func(tr *tree) bool {
			l, in := tr.Nodes()
			leaves, inners = leaves+l, inners+in
			return true
		})
	}
	return leaves, inners
}

// SubtableCount reports the number of subtables in a table (0 if the
// table has no boundary configured or doesn't exist); used by the §4.1
// ablation to report bookkeeping overhead.
func (s *Store) SubtableCount(table string) int {
	t := s.tables[table]
	if t == nil {
		return 0
	}
	return len(t.subs)
}
