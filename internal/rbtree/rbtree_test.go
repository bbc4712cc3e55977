package rbtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// collect returns the keys in order.
func collect(t *Tree[int]) []string {
	var out []string
	var walk func(n *Node[int])
	walk = func(n *Node[int]) {
		if n != nil {
			walk(n.left)
			out = append(out, n.key)
			walk(n.right)
		}
	}
	walk(t.root)
	return out
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
	for i, k := range keysIn {
		n := tr.Find(k)
		if n == nil || n.Val != i {
			t.Fatalf("Find(%q) failed", k)
		}
	}
	if tr.Find("nope") != nil {
		t.Fatal("Find of absent key")
	}
	if n, err := tr.CheckInvariants(); err != nil || n != len(keysIn) {
		t.Fatalf("%d nodes: %v", n, err)
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
	if n2, _ := tr.CheckInvariants(); !existed || n2 != 1 {
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

// TestRandomizedAgainstModel is the package's property test: a long
// random insert and lookup sequence compared against a map, with the
// red-black invariants checked throughout.
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := &Tree[int]{}
	model := map[string]int{}
	keyOf := func() string { return fmt.Sprintf("k%04d", rng.Intn(3000)) }
	for step := 0; step < 30000; step++ {
		if step%997 == 0 {
			if _, err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		k := keyOf()
		if rng.Intn(2) == 0 { // insert, replacing through the node
			v := rng.Int()
			n, _ := tr.Insert(k, v)
			n.Val = v
			model[k] = v
			continue
		}
		n := tr.Find(k)
		if v, ok := model[k]; ok != (n != nil) || ok && n.Val != v {
			t.Fatalf("find mismatch for %q at step %d", k, step)
		}
	}
	if n, err := tr.CheckInvariants(); err != nil || n != len(model) {
		t.Fatalf("%d nodes, model %d: %v", n, len(model), err)
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

// TestCheckInvariantsCatchesDamage breaks a sound tree one way at a time.
func TestCheckInvariantsCatchesDamage(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(tr *Tree[int])
	}{
		{"red root", func(tr *Tree[int]) { tr.root.red = true }},
		{"root with a parent", func(tr *Tree[int]) { tr.root.parent = tr.root.left }},
		{"key out of order", func(tr *Tree[int]) { tr.root.left.key = "zz" }},
		{"key below its bound", func(tr *Tree[int]) { tr.root.right.key = "" }},
		{"bad parent link", func(tr *Tree[int]) { tr.root.left.parent = nil }},
		{"bad right parent link", func(tr *Tree[int]) { tr.root.right.parent = nil }},
		{"red under red", func(tr *Tree[int]) { tr.root.left.red, tr.root.left.left.red = true, true }},
		{"black heights differ", func(tr *Tree[int]) { tr.root.left.left.red = true }},
	} {
		tr := &Tree[int]{}
		for i := 0; i < 15; i++ {
			tr.Insert(fmt.Sprintf("k%02d", i), i)
		}
		if _, err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		c.damage(tr)
		if _, err := tr.CheckInvariants(); err == nil {
			t.Errorf("%s: not detected", c.name)
		}
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
