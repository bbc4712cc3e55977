package rbtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func collect(t *Tree[int]) []string {
	var out []string
	t.Ascend("", "", func(n *Node[int]) bool {
		out = append(out, n.key)
		return true
	})
	return out
}

// deleteKey removes key if present, returning its node.
func deleteKey[V any](t *Tree[V], key string) *Node[V] {
	n := t.Find(key)
	t.Delete(n)
	return n
}

func TestBasicInsertFind(t *testing.T) {
	tr := &Tree[int]{}
	keysIn := []string{"m", "c", "t", "a", "e", "p", "z", "b"}
	for i, k := range keysIn {
		n, existed := tr.Insert(k, i)
		if existed {
			t.Fatalf("unexpected existing key %q", k)
		}
		if n.key != k || n.Val != i {
			t.Fatalf("bad node for %q", k)
		}
	}
	if tr.Len() != len(keysIn) {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i, k := range keysIn {
		n := tr.Find(k)
		if n == nil || n.Val != i {
			t.Fatalf("Find(%q) failed", k)
		}
	}
	if tr.Find("nope") != nil {
		t.Fatal("Find of absent key")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := collect(tr)
	want := append([]string(nil), keysIn...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestInsertExisting(t *testing.T) {
	tr := &Tree[int]{}
	tr.Insert("k", 1)
	n, existed := tr.Insert("k", 2)
	if !existed || tr.Len() != 1 {
		t.Fatal("existing key not detected")
	}
	if n.Val != 1 {
		t.Fatal("Insert must not overwrite an existing value")
	}
	n.Val = 2 // caller-controlled replacement
	if got := tr.Find("k"); got.Val != 2 {
		t.Fatal("replacement via node failed")
	}
}

func TestSeek(t *testing.T) {
	tr := &Tree[int]{}
	for _, k := range []string{"b", "d", "f", "h"} {
		tr.Insert(k, 0)
	}
	cases := []struct{ in, want string }{
		{"a", "b"}, {"b", "b"}, {"c", "d"}, {"h", "h"}, {"i", ""},
	}
	for _, c := range cases {
		n := tr.Seek(c.in)
		got := ""
		if n != nil {
			got = n.key
		}
		if got != c.want {
			t.Errorf("Seek(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDeletePointerStability(t *testing.T) {
	tr := &Tree[int]{}
	var nodes []*Node[int]
	for i := 0; i < 100; i++ {
		n, _ := tr.Insert(fmt.Sprintf("k%03d", i), i)
		nodes = append(nodes, n)
	}
	// Delete every other node; surviving node objects must keep their
	// key/value bindings (pointer-stable deletion for output hints).
	for i := 0; i < 100; i += 2 {
		tr.Delete(nodes[i])
		if !nodes[i].dead {
			t.Fatalf("node %d not marked dead", i)
		}
	}
	for i := 1; i < 100; i += 2 {
		if nodes[i].dead {
			t.Fatalf("live node %d marked dead", i)
		}
		if nodes[i].key != fmt.Sprintf("k%03d", i) || nodes[i].Val != i {
			t.Fatalf("node %d payload moved: %q=%d", i, nodes[i].key, nodes[i].Val)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Deleting a dead node is a no-op.
	tr.Delete(nodes[0])
	if tr.Len() != 50 {
		t.Fatal("double delete changed size")
	}
}

func TestAscend(t *testing.T) {
	tr := &Tree[int]{}
	for i := 0; i < 20; i++ {
		tr.Insert(fmt.Sprintf("%02d", i), i)
	}
	var got []string
	tr.Ascend("05", "10", func(n *Node[int]) bool {
		got = append(got, n.key)
		return true
	})
	if len(got) != 5 || got[0] != "05" || got[4] != "09" {
		t.Fatalf("Ascend = %v", got)
	}
	// Unbounded hi.
	tail := 0
	tr.Ascend("15", "", func(*Node[int]) bool { tail++; return true })
	if tail != 5 {
		t.Fatalf("unbounded Ascend visited %d", tail)
	}
	// Early stop.
	calls := 0
	tr.Ascend("", "", func(n *Node[int]) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("early stop: %d calls", calls)
	}
}

// TestRandomizedAgainstModel is the package's main property test: a long
// random op sequence compared against a map + sorted-slice reference model,
// with RB invariants checked throughout.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := &Tree[int]{}
	model := map[string]int{}
	keyOf := func() string { return fmt.Sprintf("k%04d", rng.Intn(3000)) }
	for step := 0; step < 30000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // insert (caller-side replacement on existing keys)
			k := keyOf()
			v := rng.Int()
			n, _ := tr.Insert(k, v)
			n.Val = v
			model[k] = v
		case op < 8: // delete
			k := keyOf()
			n := deleteKey(tr, k)
			if _, ok := model[k]; ok != (n != nil) {
				t.Fatalf("delete mismatch for %q at step %d", k, step)
			}
			delete(model, k)
		case op < 9: // find
			k := keyOf()
			n := tr.Find(k)
			v, ok := model[k]
			if ok != (n != nil) || (ok && n.Val != v) {
				t.Fatalf("find mismatch for %q at step %d", k, step)
			}
		default: // seek
			k := keyOf()
			n := tr.Seek(k)
			var want string
			for mk := range model {
				if mk >= k && (want == "" || mk < want) {
					want = mk
				}
			}
			got := ""
			if n != nil {
				got = n.key
			}
			if got != want {
				t.Fatalf("seek mismatch for %q: got %q want %q", k, got, want)
			}
		}
		if step%997 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("size mismatch: tree %d model %d", tr.Len(), len(model))
	}
	var want []string
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	got := collect(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final order mismatch at %d", i)
		}
	}
}

func TestAugmentMaintained(t *testing.T) {
	// Aggregate: subtree size stored in Val; verified after heavy churn.
	type agg struct{ sub int }
	tr := &Tree[*agg]{}
	tr.Augment = func(n *Node[*agg]) {
		s := 1
		if n.Left() != nil {
			s += n.Left().Val.sub
		}
		if n.Right() != nil {
			s += n.Right().Val.sub
		}
		n.Val.sub = s
	}
	rng := rand.New(rand.NewSource(7))
	live := map[string]bool{}
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("%04d", rng.Intn(2000))
		if rng.Intn(3) == 0 {
			deleteKey(tr, k)
			delete(live, k)
		} else {
			if !live[k] {
				tr.Insert(k, &agg{})
				live[k] = true
			}
		}
	}
	var check func(n *Node[*agg]) int
	check = func(n *Node[*agg]) int {
		if n == nil {
			return 0
		}
		s := 1 + check(n.Left()) + check(n.Right())
		if n.Val.sub != s {
			t.Fatalf("augment stale at %q: have %d want %d", n.key, n.Val.sub, s)
		}
		return s
	}
	if got := check(tr.Root()); got != tr.Len() {
		t.Fatalf("total %d != len %d", got, tr.Len())
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := &Tree[int]{}
	ks := make([]string, b.N)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%09d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(ks[i], i)
	}
}

func BenchmarkFind(b *testing.B) {
	tr := &Tree[int]{}
	const n = 1 << 16
	ks := make([]string, n)
	for i := 0; i < n; i++ {
		ks[i] = fmt.Sprintf("k%09d", i)
		tr.Insert(ks[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(ks[i&(n-1)])
	}
}
