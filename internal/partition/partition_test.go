package partition

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"pequod/internal/keys"
)

func TestOwner(t *testing.T) {
	m := MustNew("g", "p")
	cases := []struct {
		key  string
		want int
	}{
		{"a", 0}, {"f", 0}, {"g", 1}, {"m", 1}, {"p", 2}, {"z", 2}, {"", 0},
	}
	for _, c := range cases {
		if got := m.Owner(c.key); got != c.want {
			t.Errorf("Owner(%q) = %d, want %d", c.key, got, c.want)
		}
	}
	if m.Servers() != 3 {
		t.Fatalf("Servers = %d", m.Servers())
	}
}

func TestEpochOrdering(t *testing.T) {
	m, err := NewEpochVersioned(3, 7, "g", "p")
	if err != nil || m.Epoch() != 3 || m.Version() != 7 {
		t.Fatalf("NewEpochVersioned = %v, %v", m, err)
	}
	// Successors keep the epoch and bump the version.
	n, err := m.MoveBound(0, "h")
	if err != nil || n.Epoch() != 3 || n.Version() != 8 {
		t.Fatalf("MoveBound successor = e%d v%d (%v)", n.Epoch(), n.Version(), err)
	}
	// Total order: epoch dominates, version breaks epoch ties.
	cases := []struct {
		aE, aV, bE, bV int64
		want           int
	}{
		{3, 7, 3, 7, 0},
		{3, 7, 3, 8, -1},
		{3, 8, 3, 7, 1},
		{2, 99, 3, 0, -1},
		{4, 0, 3, 99, 1},
	}
	for _, c := range cases {
		if got := Compare(c.aE, c.aV, c.bE, c.bV); got != c.want {
			t.Errorf("Compare(e%d v%d, e%d v%d) = %d, want %d", c.aE, c.aV, c.bE, c.bV, got, c.want)
		}
	}
	if !n.NewerThan(3, 7) || n.NewerThan(3, 8) || n.NewerThan(4, 0) {
		t.Fatalf("NewerThan inconsistent at e%d v%d", n.Epoch(), n.Version())
	}
}

func TestInsertRemoveBound(t *testing.T) {
	m := MustNew("g", "p") // owners: [ ,g) [g,p) [p, )
	grown, err := m.InsertBound(2, "t")
	if err != nil || grown.Servers() != 4 || grown.Version() != 1 {
		t.Fatalf("InsertBound = %v, %v", grown, err)
	}
	// New owner 3 serves [t, +inf); owner 2 kept [p, t).
	if grown.Owner("s") != 2 || grown.Owner("t") != 3 || grown.Owner("z") != 3 {
		t.Fatalf("grown owners: s=%d t=%d z=%d", grown.Owner("s"), grown.Owner("t"), grown.Owner("z"))
	}
	// Splitting a middle owner shifts higher indexes up.
	mid, err := m.InsertBound(1, "k")
	if err != nil || mid.Servers() != 4 {
		t.Fatalf("middle InsertBound: %v, %v", mid, err)
	}
	if mid.Owner("h") != 1 || mid.Owner("k") != 2 || mid.Owner("q") != 3 {
		t.Fatalf("mid owners: h=%d k=%d q=%d", mid.Owner("h"), mid.Owner("k"), mid.Owner("q"))
	}
	// Bounds outside the owner's range are rejected.
	for _, bad := range []string{"a", "g", "p", ""} {
		if _, err := m.InsertBound(1, bad); err == nil {
			t.Fatalf("InsertBound(1, %q) accepted", bad)
		}
	}
	if _, err := m.InsertBound(5, "x"); err == nil {
		t.Fatal("out-of-range owner accepted")
	}

	shrunk, err := grown.RemoveBound(2)
	if err != nil || shrunk.Servers() != 3 || shrunk.Version() != 2 {
		t.Fatalf("RemoveBound = %v, %v", shrunk, err)
	}
	// Owners 2 and 3 merged into owner 2.
	if shrunk.Owner("q") != 2 || shrunk.Owner("z") != 2 {
		t.Fatalf("shrunk owners: q=%d z=%d", shrunk.Owner("q"), shrunk.Owner("z"))
	}
	if _, err := shrunk.RemoveBound(2); err == nil {
		t.Fatal("out-of-range bound removal accepted")
	}
}

func TestSingleServerMap(t *testing.T) {
	m := MustNew()
	if m.Owner("anything") != 0 || m.Servers() != 1 {
		t.Fatal("empty map should own everything at server 0")
	}
	sh := m.Split(keys.Range{Lo: "a", Hi: "z"})
	if len(sh) != 1 || sh[0].Owner != 0 {
		t.Fatalf("Split = %v", sh)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("b", "a"); err == nil {
		t.Fatal("unsorted bounds accepted")
	}
	if _, err := New("a", "a"); err == nil {
		t.Fatal("duplicate bounds accepted")
	}
}

func TestSplit(t *testing.T) {
	m := MustNew("g", "p")
	sh := m.Split(keys.Range{Lo: "c", Hi: "t"})
	if len(sh) != 3 {
		t.Fatalf("Split = %v", sh)
	}
	if sh[0].R != (keys.Range{Lo: "c", Hi: "g"}) || sh[0].Owner != 0 {
		t.Errorf("shard 0 = %v", sh[0])
	}
	if sh[1].R != (keys.Range{Lo: "g", Hi: "p"}) || sh[1].Owner != 1 {
		t.Errorf("shard 1 = %v", sh[1])
	}
	if sh[2].R != (keys.Range{Lo: "p", Hi: "t"}) || sh[2].Owner != 2 {
		t.Errorf("shard 2 = %v", sh[2])
	}
	// Range within one shard.
	sh = m.Split(keys.Range{Lo: "h", Hi: "i"})
	if len(sh) != 1 || sh[0].Owner != 1 {
		t.Fatalf("single-shard split = %v", sh)
	}
	// Unbounded range reaches the last server.
	sh = m.Split(keys.Range{Lo: "a", Hi: ""})
	if len(sh) != 3 || sh[2].R.Hi != "" {
		t.Fatalf("unbounded split = %v", sh)
	}
	// Empty range splits to nothing.
	if sh := m.Split(keys.Range{Lo: "x", Hi: "x"}); sh != nil {
		t.Fatalf("empty split = %v", sh)
	}
}

func TestSplitCoversExactly(t *testing.T) {
	m := MustNew("d", "h", "m", "r")
	r := keys.Range{Lo: "b", Hi: "z"}
	sh := m.Split(r)
	// Shards must tile r exactly, in order.
	if sh[0].R.Lo != r.Lo || sh[len(sh)-1].R.Hi != r.Hi {
		t.Fatalf("ends wrong: %v", sh)
	}
	for i := 1; i < len(sh); i++ {
		if sh[i].R.Lo != sh[i-1].R.Hi {
			t.Fatalf("gap between shards %d and %d: %v", i-1, i, sh)
		}
		if sh[i].Owner != sh[i-1].Owner+1 {
			t.Fatalf("owners not increasing: %v", sh)
		}
	}
	// Every shard's keys belong to its owner.
	for _, s := range sh {
		if m.Owner(s.R.Lo) != s.Owner {
			t.Fatalf("shard lo %q owned by %d, labeled %d", s.R.Lo, m.Owner(s.R.Lo), s.Owner)
		}
	}
}

func TestUserBounds(t *testing.T) {
	bounds := UserBounds(4, 1000, 7, "u", "p", "s")
	m := MustNew(bounds...)
	if m.Servers() != 7 {
		t.Fatalf("Servers = %d (bounds %v)", m.Servers(), bounds)
	}
	// Keys for the same user land on one server per table region, and
	// low/high users land on different servers.
	lowP := m.Owner("p|u0000001|0000000001")
	highP := m.Owner("p|u0000999|0000000001")
	if lowP == highP {
		t.Fatal("user spread failed")
	}
	// All of one user's posts are on one server.
	if m.Owner("p|u0000400|0000000001") != m.Owner("p|u0000400|9999999999") {
		t.Fatal("one user's post range split across servers")
	}
}

func TestUserShardStable(t *testing.T) {
	a := UserShard("u0001234", 8)
	for i := 0; i < 10; i++ {
		if UserShard("u0001234", 8) != a {
			t.Fatal("unstable shard")
		}
	}
	if UserShard("anyone", 1) != 0 {
		t.Fatal("single shard")
	}
	// Spread check: many users hit more than one shard.
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[UserShard(string(rune('a'+i%26))+"user", 4)] = true
	}
	if len(seen) < 2 {
		t.Fatal("no spread")
	}
}

// TestGather drives the split–gather–re-split helper with scripted
// pieces: which parts are visited, with what limit, in what order the
// results come back, and what a failed part does.
func TestGather(t *testing.T) {
	m := MustNew("g", "p") // [ ,g) [g,p) [p, )
	all := keys.Range{Lo: "a", Hi: "z"}
	var mu sync.Mutex
	var visits []string // "owner:limit", in call order
	rows := func(pc Shard, limit int, buf []string) ([]string, error) {
		mu.Lock()
		visits = append(visits, fmt.Sprintf("%d:%d", pc.Owner, limit))
		mu.Unlock()
		buf = buf[:0]
		for i := 0; i < 3 && (limit == 0 || i < limit); i++ {
			buf = append(buf, fmt.Sprintf("%s+%d", pc.R.Lo, i))
		}
		return buf, nil
	}
	never := func(error, int) bool { return false }
	cur := func() *Map { return m }

	// A limit the first part satisfies: no second part is visited.
	out, err := Gather(cur, all, 2, false, nil, rows, never)
	if err != nil || fmt.Sprint(out) != "[a+0 a+1]" || fmt.Sprint(visits) != "[0:2]" {
		t.Fatalf("limit met by the first part: %v, %v, visits %v", out, err, visits)
	}
	// A limit that runs over: each next part is asked for what is left.
	visits = nil
	out, err = Gather(cur, all, 7, false, nil, rows, never)
	if err != nil || len(out) != 7 || out[6] != "p+0" || fmt.Sprint(visits) != "[0:7 1:4 2:1]" {
		t.Fatalf("limit across parts: %v, %v, visits %v", out, err, visits)
	}
	// No limit — or every part wanted regardless — fans out, and the
	// parts still come back in key order, cut to the limit at the end.
	visits = nil
	out, err = Gather(cur, all, 0, false, make([]string, 0, 16), rows, never)
	if err != nil || len(out) != 9 || out[0] != "a+0" || out[3] != "g+0" || out[8] != "p+2" || len(visits) != 3 {
		t.Fatalf("unlimited: %v, %v, visits %v", out, err, visits)
	}
	visits = nil
	out, err = Gather(cur, all, 4, true, nil, rows, never)
	sort.Strings(visits)
	if err != nil || fmt.Sprint(out) != "[a+0 a+1 a+2 g+0]" || fmt.Sprint(visits) != "[0:4 1:4 2:4]" {
		t.Fatalf("limited but visiting all: %v, %v, visits %v", out, err, visits)
	}
	// An empty range has no parts; one inside a single owner has one.
	if out, err := Gather(cur, keys.Range{Lo: "b", Hi: "b"}, 0, false, nil, rows, never); err != nil || len(out) != 0 {
		t.Fatalf("empty range: %v, %v", out, err)
	}
	visits = nil
	if out, err := Gather(cur, keys.Range{Lo: "h", Hi: "k"}, 0, false, nil, rows, never); err != nil || len(out) != 3 || fmt.Sprint(visits) != "[1:0]" {
		t.Fatalf("single part: %v, %v, visits %v", out, err, visits)
	}

	// A part that reports its range moved: the request starts over from
	// a fresh split of the map current by then; any other failure, or a
	// refusal to retry, is the request's.
	moved := errors.New("moved")
	for _, c := range []struct {
		limit int
		last  string
	}{{0, "k+2"}, {5, "k+1"}} {
		cur := MustNew("g")
		next, _ := cur.MoveBound(0, "k")
		out, err = Gather(func() *Map { return cur }, all, c.limit, false, nil,
			func(pc Shard, limit int, buf []string) ([]string, error) {
				if pc.R.Lo == "g" {
					cur = next // the bound moved under this split
					return nil, moved
				}
				return rows(pc, limit, buf)
			},
			func(err error, attempt int) bool { return err == moved && attempt == 0 })
		if err != nil || out[0] != "a+0" || out[len(out)-1] != c.last {
			t.Fatalf("limit %d: re-split after a move: %v, %v", c.limit, out, err)
		}
	}
	boom := errors.New("boom")
	fail := func(Shard, int, []string) ([]string, error) { return nil, boom }
	for _, limit := range []int{0, 1} {
		attempts := 0
		if out, err := Gather(cur, all, limit, false, nil, fail, func(err error, attempt int) bool {
			attempts++
			return attempt < 2
		}); err != boom || out != nil || attempts != 3 {
			t.Fatalf("limit %d: a failing part gave %v, %v after %d retry decisions", limit, out, err, attempts)
		}
	}
}
