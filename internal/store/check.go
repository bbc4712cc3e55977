package store

import (
	"fmt"

	"pequod/internal/keys"
)

// Check validates the store's structure — every B+tree's own invariants,
// every key filed under its table and subtable, the subtable index and
// order agreeing — and recomputes Len, Bytes and every value's reference
// count from the contents. It is exported for tests (including property
// tests in dependent packages) and is O(n).
func (s *Store) Check() error {
	entries, bytes := 0, int64(0)
	refs := map[*Value]int32{}
	if err := s.order.Check(); err != nil || s.order.Len() != len(s.tables) {
		return fmt.Errorf("table order: %d of %d tables ordered, %v", s.order.Len(), len(s.tables), err)
	}
	for name, t := range s.tables {
		if err := t.subOrder.Check(); err != nil || t.subOrder.Len() != len(t.subs) {
			return fmt.Errorf("table %q: %d subtables indexed, %d ordered, %v", name, len(t.subs), t.subOrder.Len(), err)
		}
		bytes += t.footprint()
		var err error
		t.trees("", "", func(tr *tree) bool {
			if err = tr.Check(); err != nil {
				return false
			}
			tr.Ascend("", "", func(k string, v *Value) bool {
				if keys.Table(k) != name || t.treeFor(k, false) != tr {
					err = fmt.Errorf("key %q is filed in the wrong tree", k)
				}
				entries++
				bytes += allocSize(len(k))
				refs[v]++
				return err == nil
			})
			return err == nil
		})
		if err != nil {
			return fmt.Errorf("table %q: %w", name, err)
		}
	}
	for v, n := range refs {
		if v.refs != n {
			return fmt.Errorf("value %q is stored %d times with %d references", v.s, n, v.refs)
		}
		bytes += allocSize(v.Len()) + valueOverhead
	}
	if entries != s.entries || bytes != s.bytes {
		return fmt.Errorf("store holds %d keys in %d bytes, its counters say %d in %d", entries, bytes, s.entries, s.bytes)
	}
	return nil
}
