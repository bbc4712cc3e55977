package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pequod/internal/keys"
)

// Edge-case coverage beyond the main functional and property tests.

func TestMultiCheckSourceJoin(t *testing.T) {
	// Two check sources: an output exists only when both tuples do.
	e := New(Options{})
	spec := "out|<a>|<b> = check x|<a> check y|<b> copy v|<a>|<b>"
	if err := e.InstallText(spec); err != nil {
		t.Fatal(err)
	}
	e.Put("v|1|2", "payload")
	got := scanKeys(t, e, "out|", "out}")
	wantKeys(t, got) // no checks satisfied yet
	e.Put("x|1", "")
	got = scanKeys(t, e, "out|", "out}")
	wantKeys(t, got) // y missing
	e.Put("y|2", "")
	got = scanKeys(t, e, "out|", "out}")
	wantKeys(t, got, "out|1|2")
	// Removing either check removes the output on the next read.
	e.Remove("x|1")
	got = scanKeys(t, e, "out|", "out}")
	wantKeys(t, got)
	// Restoring brings it back.
	e.Put("x|1", "")
	got = scanKeys(t, e, "out|", "out}")
	wantKeys(t, got, "out|1|2")
}

func TestSnapshotJoinUnderEviction(t *testing.T) {
	now := time.Unix(5000, 0)
	e := New(Options{
		Clock:    func() time.Time { return now },
		MemLimit: 24 * 1024,
	})
	if err := e.InstallText("snap|<u>|<i> = snapshot 60 copy src|<u>|<i>"); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		for i := 0; i < 20; i++ {
			e.Put(fmt.Sprintf("src|u%02d|%03d", u, i), strings.Repeat("x", 64))
		}
	}
	for u := 0; u < 10; u++ {
		pfx := fmt.Sprintf("snap|u%02d|", u)
		kvs, _ := e.Scan(pfx, keys.PrefixEnd(pfx), 0)
		if len(kvs) != 20 {
			t.Fatalf("snapshot scan u%02d = %d", u, len(kvs))
		}
	}
	// Under pressure some snapshots evicted; re-scan recomputes them.
	if e.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
	kvs, _ := e.Scan("snap|u00|", keys.PrefixEnd("snap|u00|"), 0)
	if len(kvs) != 20 {
		t.Fatalf("recomputed snapshot = %d", len(kvs))
	}
}

func TestGetThroughLoader(t *testing.T) {
	// Point gets on loader-backed base tables trigger fetches too.
	e := New(Options{})
	fl := &fakeLoader{e: e, data: map[string]string{"base|k": "v"}}
	e.SetLoader(fl, "base")
	_, ok, pending := e.Get("base|k")
	if ok || pending == 0 {
		t.Fatalf("first get: ok=%v pending=%d", ok, pending)
	}
	fl.drain()
	v, ok, pending := e.Get("base|k")
	if !ok || v != "v" || pending != 0 {
		t.Fatalf("after load: %q %v %d", v, ok, pending)
	}
}

func TestInterleavedLiteralGapsStayEmpty(t *testing.T) {
	// Scanning a tag subrange that the join never produces must be cheap
	// and correct (empty), and must not corrupt later full scans.
	e := New(Options{})
	if err := e.InstallText("page|<a>|z|<x> = copy src|<a>|<x>"); err != nil {
		t.Fatal(err)
	}
	e.Put("src|1|only", "v")
	got := scanKeys(t, e, "page|1|a|", "page|1|a}") // tag 'a' never produced
	wantKeys(t, got)
	got = scanKeys(t, e, "page|", "page}")
	wantKeys(t, got, "page|1|z|only")
}

func TestRemoveRangeOfBaseInvalidatesTimeline(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "x")
	e.Put("p|bob|200", "y")
	scanKeys(t, e, "t|ann|", "t|ann}")
	// Remove posts one at a time (range removal at the engine level).
	e.Remove("p|bob|100")
	e.Remove("p|bob|200")
	got := scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got)
}

func TestValueSharingRefcountsAcrossTimelines(t *testing.T) {
	e := newTwipEngine(t, Options{})
	for u := 0; u < 5; u++ {
		e.Put(fmt.Sprintf("s|u%d|bob", u), "1")
	}
	e.Put("p|bob|100", "the shared tweet")
	for u := 0; u < 5; u++ {
		scanKeys(t, e, fmt.Sprintf("t|u%d|", u), fmt.Sprintf("t|u%d}", u))
	}
	// One base copy + five timeline copies share one value.
	v, ok := e.Store().Get("p|bob|100")
	if !ok {
		t.Fatal("base post missing")
	}
	if v.Refs() != 6 {
		t.Fatalf("refs = %d, want 6 (1 base + 5 shared timeline entries)", v.Refs())
	}
	// With sharing disabled, each copy is distinct.
	e2 := newTwipEngine(t, Options{DisableValueSharing: true})
	e2.Put("s|u1|bob", "1")
	e2.Put("p|bob|100", "the tweet")
	scanKeys(t, e2, "t|u1|", "t|u1}")
	v2, _ := e2.Store().Get("p|bob|100")
	if v2.Refs() != 1 {
		t.Fatalf("unshared refs = %d", v2.Refs())
	}
}

func TestSubtablesWithJoins(t *testing.T) {
	// Subtable boundaries on the output table must be transparent to
	// join execution and maintenance.
	e := newTwipEngine(t, Options{})
	e.SetSubtableDepth("t", 2)
	for u := 0; u < 4; u++ {
		e.Put(fmt.Sprintf("s|u%d|bob", u), "1")
	}
	for i := 0; i < 10; i++ {
		e.Put(fmt.Sprintf("p|bob|%03d", i), "x")
	}
	// Cross-subtable scan over all users' timelines.
	got := scanKeys(t, e, "t|", "t}")
	if len(got) != 40 {
		t.Fatalf("cross-subtable join scan = %d", len(got))
	}
	// Incremental maintenance still lands in the right subtables.
	e.Put("p|bob|500", "new")
	got = scanKeys(t, e, "t|", "t}")
	if len(got) != 44 {
		t.Fatalf("after post = %d", len(got))
	}
}

func TestStatsProgression(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "x")
	scanKeys(t, e, "t|ann|", "t|ann}")
	st := e.Stats()
	if st.Puts != 2 || st.Scans == 0 || st.JoinExecs == 0 || st.UpdatersInstalled == 0 {
		t.Fatalf("stats: %+v", st)
	}
}
