package partition

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pequod/internal/keys"
	"pequod/internal/perrs"
)

// at builds a view over bounds and addrs at (epoch, version).
func at(t *testing.T, epoch, version int64, bounds, addrs []string, self ...int) *View {
	t.Helper()
	v, err := Wire{Epoch: epoch, Version: version, Bounds: bounds, Peers: addrs, Self: self}.View()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestViewConstructorRejections(t *testing.T) {
	for name, w := range map[string]Wire{
		"too few peers":     {Bounds: []string{"g", "p"}, Peers: []string{"a", "b"}},
		"too many peers":    {Bounds: []string{"g"}, Peers: []string{"a", "b", "c"}},
		"no peers at all":   {},
		"self out of range": {Bounds: []string{"g"}, Peers: []string{"a", "b"}, Self: []int{2}},
		"negative self":     {Bounds: []string{"g"}, Peers: []string{"a", "b"}, Self: []int{-1}},
		"unsorted bounds":   {Bounds: []string{"p", "g"}, Peers: []string{"a", "b", "c"}},
	} {
		if v, err := w.View(); err == nil {
			t.Errorf("%s: accepted as %+v", name, v.Wire())
		}
	}
	if _, err := NewView(MustNew("g"), []string{"a"}); err == nil {
		t.Error("NewView accepted one address for two owners")
	}
}

func TestViewWireRoundTrip(t *testing.T) {
	w := Wire{Epoch: 5<<31 | 7, Version: 3, Bounds: []string{"g", "p"}, Peers: []string{"a", "b", "a"}, Self: []int{0, 2}}
	v, err := w.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Wire(); !reflect.DeepEqual(got, w) {
		t.Fatalf("round trip: %+v, want %+v", got, w)
	}
	if !v.Owns("a") || v.Owns("h") || !v.Owns("z") || !v.OwnsRange(keys.Range{Lo: "q", Hi: ""}) ||
		v.OwnsRange(keys.Range{Lo: "a", Hi: "h"}) || !v.OwnsRange(keys.Range{Lo: "x", Hi: "x"}) {
		t.Fatalf("ownership under self %v is wrong", v.Self())
	}
	if v.OwnerAddr("h") != "b" || !v.SelfAddr("a") || v.SelfAddr("b") || v.SelfAddr("nobody") {
		t.Fatal("addresses under the view are wrong")
	}
	// A tuple without a self field (a reply) owns nothing; For gives the
	// per-member form back.
	w.Self = nil
	bare, _ := w.View()
	if bare.Self() != nil || bare.Owns("a") || !reflect.DeepEqual(bare.For("a").Self(), []int{0, 2}) ||
		bare.For("nobody").Self() != nil {
		t.Fatal("self-less view / For is wrong")
	}
	noe := &NotOwnerError{View: v}
	if !errors.Is(noe, perrs.ErrNotOwner) || noe.Error() == "" {
		t.Fatal("NotOwnerError does not match the sentinel")
	}
}

// TestViewMembership follows members, OwnersOf and replica placement
// across a join split and a drain merge.
func TestViewMembership(t *testing.T) {
	v := at(t, 0, 0, []string{"g", "p"}, []string{"a", "b", "a"}, 1)
	want := []Member{{Addr: "a", Owners: []int{0, 2}}, {Addr: "b", Owners: []int{1}}}
	if !reflect.DeepEqual(v.Members(), want) {
		t.Fatalf("members = %+v", v.Members())
	}
	// Join: owner 1 (b) splits at k, c takes [k, p); indexes above shift.
	grownM, _ := v.Map().InsertBound(1, "k")
	grown, err := v.Successor(9, 0, grownM.Bounds(), []string{"a", "b", "c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !grown.Newer(v) || grown.Map().Epoch() != 9 || grown.Map().Version() != 1 {
		t.Fatalf("successor at e%d v%d", grown.Map().Epoch(), grown.Map().Version())
	}
	if !reflect.DeepEqual(grown.OwnersOf("a"), []int{0, 3}) || !reflect.DeepEqual(grown.OwnersOf("c"), []int{2}) ||
		grown.OwnersOf("d") != nil || len(grown.Members()) != 3 {
		t.Fatalf("grown members = %+v", grown.Members())
	}
	if d := DiffAddrs(v, grown); len(d) != 1 || d[0] != (keys.Range{Lo: "k", Hi: "p"}) {
		t.Fatalf("join DiffAddrs = %v", d)
	}
	// Ring a, b, c: b's range is copied at c, c's at a, a's at b.
	if got := grown.ReplicaAddrs(1, 2); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("replicas of owner 1 = %v", got)
	}
	if got := grown.ReplicaAddrs(3, 9); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("full-ring replicas of owner 3 = %v", got)
	}
	if grown.ReplicaAddrs(0, 1) != nil {
		t.Fatal("one copy still replicates")
	}
	if got := grown.For("b").ReplicaHolds(2); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("b holds replicas of %v", got)
	}
	if grown.ReplicaHolds(2) != nil {
		t.Fatal("a view naming no self holds replicas")
	}
	// Drain: b leaves, its range merges into c's; a's second range shifts
	// back down.
	shrunkM, _ := grown.Map().RemoveBound(1)
	shrunk, _ := grown.Successor(9, 1, shrunkM.Bounds(), []string{"a", "c", "a"})
	if shrunk.Map().Version() != 3 || shrunk.OwnersOf("b") != nil || !reflect.DeepEqual(shrunk.OwnersOf("a"), []int{0, 2}) {
		t.Fatalf("shrunk v%d members = %+v", shrunk.Map().Version(), shrunk.Members())
	}
	if d := DiffAddrs(grown, shrunk); len(d) != 1 || d[0] != (keys.Range{Lo: "g", Hi: "k"}) {
		t.Fatalf("drain DiffAddrs = %v", d)
	}
	if d := DiffAddrs(shrunk, shrunk); len(d) != 0 {
		t.Fatalf("identical DiffAddrs = %v", d)
	}
	// Adjacent segments changing to different destinations stay separate
	// ranges (consumers inspect only Lo).
	two := at(t, 0, 0, []string{"g", "p"}, []string{"x", "y", "a"})
	if d := DiffAddrs(v, two); len(d) != 2 {
		t.Fatalf("two-destination DiffAddrs = %v", d)
	}
	if err := v.SameShape(two); err == nil {
		t.Fatal("different addresses are the same shape")
	}
	if err := v.SameShape(at(t, 4, 4, []string{"g", "p"}, []string{"a", "b", "a"})); err != nil {
		t.Fatalf("same shape at another position: %v", err)
	}
	if !v.Same(two) || v.Same(grown) {
		t.Fatal("Same is position + bounds")
	}
}

func TestAdvance(t *testing.T) {
	bounds, addrs := []string{"g"}, []string{"a", "b"}
	for _, tc := range []struct {
		name           string
		epoch, version int64
		adopted        bool
	}{
		{"older version", 5, 1, false},
		{"older epoch, higher version", 4, 9, false},
		{"equal", 5, 2, false},
		{"newer version", 5, 3, true},
		{"epoch tie-break at the same version", 6, 2, true},
	} {
		var p atomic.Pointer[View]
		cur := at(t, 5, 2, bounds, addrs)
		if !Advance(&p, cur) {
			t.Fatalf("%s: an empty holder refused its first view", tc.name)
		}
		next := at(t, tc.epoch, tc.version, bounds, addrs)
		if got := Advance(&p, next); got != tc.adopted {
			t.Errorf("%s: Advance = %v", tc.name, got)
		}
		if want := map[bool]*View{true: next, false: cur}[tc.adopted]; p.Load() != want {
			t.Errorf("%s: holder has e%d v%d", tc.name, p.Load().Map().Epoch(), p.Load().Map().Version())
		}
	}
}

// TestAdvanceConcurrent: callers racing Advance with distinct positions
// leave the newest installed, and each position wins at most once.
func TestAdvanceConcurrent(t *testing.T) {
	var p atomic.Pointer[View]
	const n = 64
	views := make([]*View, n)
	for i := range views {
		views[i] = at(t, int64(i%4), int64(i/4), []string{"g"}, []string{"a", "b"})
	}
	var wins atomic.Int64
	var wg sync.WaitGroup
	for _, v := range views {
		for dup := 0; dup < 2; dup++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if Advance(&p, v) {
					wins.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	if got := p.Load().Map(); got.Epoch() != 3 || got.Version() != n/4-1 {
		t.Fatalf("holder ended at e%d v%d", got.Epoch(), got.Version())
	}
	if w := wins.Load(); w < 1 || w > n {
		t.Fatalf("%d adoptions for %d positions", w, n)
	}
}
