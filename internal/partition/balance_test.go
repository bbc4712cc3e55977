package partition

import (
	"fmt"
	"testing"
)

// balRig drives a Balancer sample by sample: cumulative counters that
// the test bumps by per-sample deltas, and a fixed sample set per owner.
type balRig struct {
	t       *testing.T
	b       Balancer
	m       *Map
	owners  []string
	units   map[string]int64
	samples map[string][]string
}

func newBalRig(t *testing.T, m *Map, owners ...string) *balRig {
	return &balRig{t: t, m: m, owners: owners,
		units: map[string]int64{}, samples: map[string][]string{}}
}

// sample adds the given per-owner deltas and takes one decision.
func (r *balRig) sample(deltas map[string]int64) (int, string, bool) {
	for id, d := range deltas {
		r.units[id] += d
	}
	return r.b.Decide(r.m, r.owners, r.units, func(id string) []string { return r.samples[id] })
}

// quiet asserts n samples in a row name no move.
func (r *balRig) quiet(n int, deltas map[string]int64) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if bi, key, ok := r.sample(deltas); ok {
			r.t.Fatalf("sample %d of %d: unexpected move of bound %d to %q", i+1, n, bi, key)
		}
	}
}

// keyRun returns n keys prefix00, prefix01, ...
func keyRun(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

func TestBalancerHysteresis(t *testing.T) {
	r := newBalRig(t, MustNew("m"), "a", "b")
	r.samples["b"] = keyRun("p", 40)
	hot := map[string]int64{"b": 400}

	// First sight primes at zero: the counter is cumulative, not a delta.
	r.units["b"] = 1 << 20
	r.quiet(1, nil)
	if r.b.Load("b") != 0 {
		t.Fatalf("fresh owner primed at %v, want 0", r.b.Load("b"))
	}
	// Below the idle floor nothing counts as hot, however skewed.
	r.quiet(4, map[string]int64{"b": 8})
	// A streak of 2: the first hot sample only arms.
	r.quiet(1, hot)
	bi, key, ok := r.sample(hot)
	if !ok || bi != 0 || key <= "m" {
		t.Fatalf("second hot sample: move = (%d, %q, %v), want bound 0 raised", bi, key, ok)
	}
	// An idle sample in between breaks the streak.
	r.quiet(1, nil)
	r.quiet(1, hot)
	if _, _, ok := r.sample(hot); !ok {
		t.Fatal("streak did not re-arm after an idle sample")
	}
	// Cooldown of 5 after an executed move, then the streak starts over.
	r.b.Moved()
	r.quiet(5+1, hot)
	if _, _, ok := r.sample(hot); !ok {
		t.Fatal("no move after the cooldown and a fresh streak")
	}
}

func TestBalancerShedsLeftAndRight(t *testing.T) {
	// Owner 1 ("h") is hot between two cooler neighbors; both bounds are
	// candidates. Ties go to the lower bound, a strictly cooler neighbor
	// wins outright.
	m := MustNew("g", "p")
	for _, tc := range []struct {
		name       string
		left, rite int64 // neighbor load per sample
		wantBound  int
		wantKey    string
	}{
		// Shedding meets the neighbor halfway: frac = (hot-nb)/(2*hot)
		// of the hot range's samples, off the bottom when shedding left,
		// off the top when shedding right.
		{"tie goes left", 0, 0, 0, "h20"},
		{"right cooler", 600, 200, 1, "h24"},
		{"left cooler", 200, 600, 0, "h16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newBalRig(t, m, "l", "h", "r")
			r.samples["h"] = keyRun("h", 40) // h00..h39, all inside [g, p)
			d := map[string]int64{"l": tc.left, "h": 1000, "r": tc.rite}
			r.quiet(2, d)
			bi, key, ok := r.sample(d)
			if !ok || bi != tc.wantBound || key != tc.wantKey {
				t.Fatalf("move = (%d, %q, %v), want bound %d to %q", bi, key, ok, tc.wantBound, tc.wantKey)
			}
			if _, err := m.MoveBound(bi, key); err != nil {
				t.Fatalf("named move does not apply: %v", err)
			}
		})
	}
}

func TestBalancerMembershipAndNoMove(t *testing.T) {
	r := newBalRig(t, MustNew("m"), "a", "b")
	r.samples["b"] = keyRun("p", 40)
	hot := map[string]int64{"b": 400}
	r.quiet(2, hot)
	if _, _, ok := r.sample(hot); !ok {
		t.Fatal("no move with two members")
	}
	r.b.Moved()

	// "a" drains out and "c" joins past "b": a is forgotten, c primes at
	// zero whatever its counter says, and b keeps its history.
	before := r.b.Load("b")
	r.m, r.owners = MustNew("m", "t"), []string{"b", "b", "c"}
	r.units["c"] = 1 << 30
	r.quiet(1, hot)
	if r.b.Load("a") != 0 || r.b.Load("c") != 0 || r.b.Load("b") < before/2 {
		t.Fatalf("loads after membership change: a=%v c=%v b=%v (b was %v)",
			r.b.Load("a"), r.b.Load("c"), r.b.Load("b"), before)
	}
	// Bound 0 separates b from itself and is never a candidate; the
	// fresh member is the coolest neighbor, so the move is bound 1.
	r.quiet(4, hot) // rest of the cooldown
	r.quiet(1, hot)
	bi, _, ok := r.sample(hot)
	if !ok || bi != 1 {
		t.Fatalf("move = (bound %d, %v), want bound 1 toward the fresh member", bi, ok)
	}

	// Too few samples in the hot range: no move.
	r.b.Moved()
	r.samples["b"] = keyRun("p", 8)
	r.quiet(5+2+3, hot)

	// The quantile landing on the current bound is "no move", not an
	// error: every sample is the key the bound already sits on.
	r2 := newBalRig(t, MustNew("m"), "a", "b")
	for i := 0; i < 40; i++ {
		r2.samples["b"] = append(r2.samples["b"], "m")
	}
	r2.quiet(6, hot)
}
