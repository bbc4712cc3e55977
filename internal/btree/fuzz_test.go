package btree

import (
	"fmt"
	"strings"
	"testing"
)

// runTreeOps interprets data as a stream of tree operations, applies
// each to a Tree and to the sorted-slice model, and runs Check after
// every one. Keys come from a small alphabet that holds 0x00, 0xff and
// the separator, so keys that are prefixes of each other and the empty
// key are common; timeline-shaped keys and their prefixes, the shared
// head of a leaf's keys among them, fill leaves the way rows do; keys of
// about 255 bytes straddle the length a slot's byte holds, past which a
// key's entry carries its own; and keys of 20 to 80 KiB overflow what a
// leaf's 16-bit offsets address, which the tree must split around. Four
// hints are held across every op.
func runTreeOps(t *testing.T, data []byte) {
	var tr, other Tree[int]
	m := newModel()
	hints := make([]Hint[int], 4)
	foreign := Hint[int]{}
	pos, long := 0, 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	key := func() string {
		switch b := next(); b % 8 {
		case 0:
			return ""
		case 6: // a timeline row, or a prefix of one
			k := fmt.Sprintf("t|u%d|%06d", next()%4, next()*next())
			if b&0x80 != 0 {
				k = k[:len(k)-next()%8]
			}
			return k
		case 5: // around the length a slot's byte cannot hold
			return strings.Repeat("b", longLen-3+next()%6) + string(rune('a'+next()%3))
		case 7: // longer than an offset can address, within a budget
			if long > 1<<20 {
				return "\xff"
			}
			n := (next()%4 + 1) * 20000
			long += n
			return strings.Repeat("a", n) + string(rune('a'+next()%3))
		default: // short, over six bytes
			k := make([]byte, next()%10)
			for i := range k {
				k[i] = "\x00ab|c\xff"[next()%6]
			}
			return string(k)
		}
	}
	hint := func() *Hint[int] {
		if i := next() % 5; i < len(hints) {
			return &hints[i]
		}
		return nil
	}
	set := func(k string, v int, h *Hint[int], same bool, when string) {
		var old int
		var existed, kept bool
		if same {
			old, existed, kept = tr.SetUnless(k, v, h, sameInt)
		} else {
			old, existed = tr.Set(k, v, h)
		}
		mold, mexisted := m.vals[k]
		if existed != mexisted || (existed && old != mold) || kept != (same && mexisted && mold == v) {
			t.Fatalf("%s: set(%q) = %d, %v, kept %v; model %d, %v", when, k, old, existed, kept, mold, mexisted)
		}
		m.set(k, v)
		if got, ok := tr.Get(k); !ok || got != v || (h != nil && !h.lf.covers(k)) {
			t.Fatalf("%s: %q reads back %d, %v after a set of %d", when, k, got, ok, v)
		}
	}
	for step := 0; pos < len(data); step++ {
		when := fmt.Sprintf("step %d", step)
		switch op := next() % 10; op {
		case 0, 1, 2:
			set(key(), step, hint(), false, when)
		case 3: // an equal or a new value
			k := key()
			v := step
			if mv, ok := m.vals[k]; ok && next()%2 == 0 {
				v = mv
			}
			set(k, v, hint(), true, when)
		case 4: // an ascending run through one hint
			k, h, n := key(), hint(), next()
			if len(k) > 1<<10 {
				n %= 4 // each key of the run is as long as k
			}
			for i := 0; i < n; i++ {
				set(fmt.Sprintf("%s\x01%03d", k, i), i, h, false, when)
			}
		case 5:
			k := key()
			v, ok := tr.Delete(k)
			mv, mok := m.vals[k]
			if ok != mok || v != mv {
				t.Fatalf("%s: Delete(%q) = %d, %v; model %d, %v", when, k, v, ok, mv, mok)
			}
			m.deleteRange(k, k+"\x00")
		case 6:
			lo, hi := key(), key()
			want := m.deleteRange(lo, hi)
			if hi != "" && hi <= lo {
				want = nil
			}
			var got []string
			n := tr.DeleteRange(lo, hi, func(k string, _ int) { got = append(got, k) })
			if n != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: DeleteRange(%q, %q) removed %d, model %d", when, lo, hi, n, len(want))
			}
		case 7:
			k := key()
			v, ok := tr.Get(k)
			if mv, mok := m.vals[k]; ok != mok || v != mv {
				t.Fatalf("%s: Get(%q) = %d, %v; model %d, %v", when, k, v, ok, mv, mok)
			}
		case 8: // a run scan from a hint, or from a finger into another tree
			lo, hi := key(), key()
			h := hint()
			if h == nil {
				other.Set(lo, 0, &foreign)
				h = &foreign
			}
			equalHintedScan(t, &tr, m, lo, hi, h, when)
		case 9:
			equalScan(t, &tr, m, key(), key(), when)
		}
		mustCheck(t, &tr, m, when)
	}
	equalScan(t, &tr, m, "", "", "at the end")
}

// FuzzTreeOps lets the fuzzer write the operation stream.
func FuzzTreeOps(f *testing.F) {
	const (
		set, setUnless, run, del, cut, get, runScan, scan = 0, 3, 4, 5, 6, 7, 8, 9
		empty, short, row, rowPrefix, huge                = 0, 1, 6, 6 | 0x80, 7
		hint0, noHint                                     = 0, 4
	)
	seeds := [][]byte{
		nil,
		// The empty key: written, read, scanned from, cut from, deleted.
		{set, empty, hint0, set, short, 3, 1, 2, 3, hint0, get, empty, scan, empty, short, 0,
			runScan, empty, empty, hint0, del, empty, set, empty, noHint, cut, empty, empty},
		// A run of rows fills a leaf whose keys share "t|u1|00", then
		// that prefix and its own prefixes are written, read and cut at.
		{run, row, 1, 0, 0, hint0, 200, set, rowPrefix, 1, 0, 0, 2, hint0, get, rowPrefix, 1, 0, 0, 2,
			set, rowPrefix, 1, 0, 0, 7, noHint, cut, rowPrefix, 1, 0, 0, 4, row, 1, 3, 3, scan, empty, empty},
		// Keys that are prefixes of each other, with 0x00 and 0xff bytes.
		{set, short, 1, 1, hint0, set, short, 2, 1, 1, hint0, set, short, 3, 1, 1, 1, hint0,
			set, short, 2, 1, 0, noHint, set, short, 2, 1, 5, noHint, set, short, 1, 0, 1,
			set, short, 4, 5, 5, 5, 5, hint0, setUnless, short, 2, 1, 1, 0, hint0,
			runScan, short, 1, 1, short, 1, 5, hint0, scan, short, 1, 0, short, 0, del, short, 2, 1, 1},
		// Keys past 64 KiB, alone and beside short keys and each other,
		// then read, scanned and cut.
		{set, huge, 3, 0, hint0, set, short, 2, 1, 1, hint0, set, huge, 0, 1, hint0, set, huge, 2, 2, noHint,
			run, short, 1, 2, hint0, 70, set, huge, 1, 0, hint0, get, huge, 3, 0, scan, empty, empty,
			runScan, short, 1, 1, empty, hint0, cut, short, 1, 1, huge, 1, 0, del, huge, 0, 1},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048] // Check is O(n) per step
		}
		runTreeOps(t, data)
	})
}
