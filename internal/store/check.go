package store

import "fmt"

// Check validates the store's structure — the B+tree's own invariants,
// which include Len — and recomputes Bytes and every value's reference
// count from the contents. It is exported for tests (including property
// tests in dependent packages) and is O(n).
func (s *Store) Check() error {
	if err := s.tree.Check(); err != nil {
		return err
	}
	bytes, refs := s.nodeBytes(), map[*Value]int32{}
	s.tree.Ascend("", "", func(_ string, v *Value) bool {
		refs[v]++
		return true
	})
	for v, n := range refs {
		if v.refs != n {
			return fmt.Errorf("value %q is stored %d times with %d references", v.s, n, v.refs)
		}
		bytes += allocSize(v.Len()) + valueOverhead
	}
	if bytes != s.bytes {
		return fmt.Errorf("store holds %d bytes, its counter says %d", bytes, s.bytes)
	}
	return nil
}
