package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pequod/internal/join"
	"pequod/internal/keys"
)

const timelineJoin = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

func newTwipEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	if err := e.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	return e
}

func scanKeys(t *testing.T, e *Engine, lo, hi string) []string {
	t.Helper()
	kvs, pending := e.Scan(lo, hi, 0)
	if pending != 0 {
		t.Fatalf("unexpected pending loads: %d", pending)
	}
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Key
	}
	return out
}

func wantKeys(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("key[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestTimelineJoinBasic(t *testing.T) {
	e := newTwipEngine(t, Options{})
	// §2.2's example data.
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "Hi")

	got := scanKeys(t, e, "t|ann|", keys.PrefixEnd("t|ann|"))
	wantKeys(t, got, "t|ann|100|bob")

	kvs, _ := e.Scan("t|ann|", "t|ann}", 0)
	if kvs[0].Value != "Hi" {
		t.Fatalf("timeline value = %q", kvs[0].Value)
	}
}

func TestTimelineIncrementalPost(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "Hi")
	scanKeys(t, e, "t|ann|", "t|ann}") // materialize
	execs := e.Stats().JoinExecs

	// "If bob tweets again at time 120 ... Pequod automatically copies
	// the tweet to key t|ann|120|bob" (§2.2) — eagerly, with no further
	// join execution.
	e.Put("p|bob|120", "Hi again")
	if v, ok := e.Store().Get("t|ann|120|bob"); !ok || v.String() != "Hi again" {
		t.Fatal("eager maintenance did not copy the new post")
	}
	got := scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob", "t|ann|120|bob")
	if e.Stats().JoinExecs != execs {
		t.Fatalf("timeline recomputed: %d execs, want %d", e.Stats().JoinExecs, execs)
	}
}

func TestTimelinePostRemovalAndUpdate(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "Hi")
	scanKeys(t, e, "t|ann|", "t|ann}")

	e.Put("p|bob|100", "edited")
	if v, _ := e.Store().Get("t|ann|100|bob"); v.String() != "edited" {
		t.Fatal("update not propagated")
	}
	e.Remove("p|bob|100")
	got := scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got)
}

func TestSubscriptionChangeLazy(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "from bob")
	e.Put("p|liz|090", "from liz")
	e.Put("p|liz|150", "more liz")
	scanKeys(t, e, "t|ann|", "t|ann}")

	// New subscription: lazily maintained (§3.2) — outputs appear on the
	// next read, including liz's *old* posts.
	e.Put("s|ann|liz", "1")
	if _, ok := e.Store().Get("t|ann|090|liz"); ok {
		t.Fatal("check-source maintenance should be lazy, not eager")
	}
	got := scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|090|liz", "t|ann|100|bob", "t|ann|150|liz")

	// After log application the new poster is eagerly maintained too.
	e.Put("p|liz|200", "even more")
	if _, ok := e.Store().Get("t|ann|200|liz"); !ok {
		t.Fatal("updater not installed by delta application")
	}

	// Unsubscription logically shifts tweets out of the timeline.
	e.Remove("s|ann|liz")
	got = scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob")
	// And liz's future posts stay out.
	e.Put("p|liz|300", "gone")
	got = scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob")
}

func TestPartialTimelineScanAndGapFill(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	for i := 0; i < 10; i++ {
		e.Put(fmt.Sprintf("p|bob|%03d", i*10), "x")
	}
	// Dynamic materialization: only the requested range is computed.
	got := scanKeys(t, e, "t|ann|050", "t|ann}")
	wantKeys(t, got, "t|ann|050|bob", "t|ann|060|bob", "t|ann|070|bob", "t|ann|080|bob", "t|ann|090|bob")
	if _, ok := e.Store().Get("t|ann|000|bob"); ok {
		t.Fatal("materialized outside requested range")
	}
	// Widening the scan fills only the gap.
	got = scanKeys(t, e, "t|ann|", "t|ann}")
	if len(got) != 10 {
		t.Fatalf("full scan found %d", len(got))
	}
	// Incremental updates continue to cover both status ranges.
	e.Put("p|bob|005", "early")
	e.Put("p|bob|095", "late")
	got = scanKeys(t, e, "t|ann|", "t|ann}")
	if len(got) != 12 {
		t.Fatalf("after inserts: %d", len(got))
	}
}

func TestMultiTimelineScan(t *testing.T) {
	// "we correctly implement queries like [t|a,t|b) that cross multiple
	// timelines" (§3.1).
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("s|art|liz", "1")
	e.Put("s|bea|bob", "1")
	e.Put("p|bob|100", "b")
	e.Put("p|liz|200", "l")
	got := scanKeys(t, e, "t|a", "t|b")
	wantKeys(t, got, "t|ann|100|bob", "t|art|200|liz")
	// The bea timeline was outside the scan and must not be materialized.
	if _, ok := e.Store().Get("t|bea|100|bob"); ok {
		t.Fatal("materialized beyond scan range")
	}
	got = scanKeys(t, e, "t|", "t}")
	wantKeys(t, got, "t|ann|100|bob", "t|art|200|liz", "t|bea|100|bob")
}

func TestGetComputesJoins(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "Hi")
	v, ok, pending := e.Get("t|ann|100|bob")
	if !ok || v != "Hi" || pending != 0 {
		t.Fatalf("Get = %q %v %d", v, ok, pending)
	}
	if _, ok, _ := e.Get("t|ann|999|bob"); ok {
		t.Fatal("absent output present")
	}
}

func TestCountAggregate(t *testing.T) {
	e := New(Options{})
	if err := e.InstallText("karma|<author> = count vote|<author>|<id>|<voter>"); err != nil {
		t.Fatal(err)
	}
	e.Put("vote|liz|a1|u1", "1")
	e.Put("vote|liz|a1|u2", "1")
	e.Put("vote|liz|a2|u1", "1")
	e.Put("vote|pat|a9|u1", "1")

	v, ok, _ := e.Get("karma|liz")
	if !ok || v != "3" {
		t.Fatalf("karma|liz = %q %v", v, ok)
	}
	// Eager incremental updates (§2.3: "Aggregated data is kept up to
	// date just like copied data").
	e.Put("vote|liz|a3|u7", "1")
	if v, _ := e.Store().Get("karma|liz"); v.String() != "4" {
		t.Fatalf("karma after vote = %s", v.String())
	}
	e.Remove("vote|liz|a1|u1")
	if v, _ := e.Store().Get("karma|liz"); v.String() != "3" {
		t.Fatalf("karma after unvote = %s", v.String())
	}
	// Value update on a count source doesn't change the count.
	e.Put("vote|liz|a1|u2", "weight2")
	if v, _ := e.Store().Get("karma|liz"); v.String() != "3" {
		t.Fatal("count changed on value update")
	}
	// Scanning the whole karma table aggregates every author.
	got := scanKeys(t, e, "karma|", "karma}")
	wantKeys(t, got, "karma|liz", "karma|pat")
	// Dropping to zero removes the output key.
	e.Remove("vote|pat|a9|u1")
	got = scanKeys(t, e, "karma|", "karma}")
	wantKeys(t, got, "karma|liz")
}

func TestSumAggregate(t *testing.T) {
	e := New(Options{})
	if err := e.InstallText("total|<acct> = sum txn|<acct>|<id>"); err != nil {
		t.Fatal(err)
	}
	e.Put("txn|a|1", "10")
	e.Put("txn|a|2", "32")
	if v, _, _ := e.Get("total|a"); v != "42" {
		t.Fatalf("sum = %q", v)
	}
	e.Put("txn|a|2", "12") // update: delta -20
	if v, _ := e.Store().Get("total|a"); v.String() != "22" {
		t.Fatalf("sum after update = %s", v.String())
	}
	e.Remove("txn|a|1")
	if v, _ := e.Store().Get("total|a"); v.String() != "12" {
		t.Fatalf("sum after remove = %s", v.String())
	}
}

func TestMinMaxAggregate(t *testing.T) {
	e := New(Options{})
	if err := e.InstallText("lo|<g> = min m|<g>|<id>; hi|<g> = max m|<g>|<id>"); err != nil {
		t.Fatal(err)
	}
	e.Put("m|g|1", "5")
	e.Put("m|g|2", "3")
	e.Put("m|g|3", "9")
	if v, _, _ := e.Get("lo|g"); v != "3" {
		t.Fatalf("min = %q", v)
	}
	if v, _, _ := e.Get("hi|g"); v != "9" {
		t.Fatalf("max = %q", v)
	}
	// Improvement: eager update without recompute.
	e.Put("m|g|4", "1")
	if v, _ := e.Store().Get("lo|g"); v.String() != "1" {
		t.Fatal("min improvement")
	}
	// Removing the extremum forces a group recompute.
	e.Remove("m|g|4")
	if v, _ := e.Store().Get("lo|g"); v.String() != "3" {
		t.Fatalf("min after extremum removal = %s", v.String())
	}
	// Update displacing the max.
	e.Put("m|g|3", "2")
	if v, _ := e.Store().Get("hi|g"); v.String() != "5" {
		t.Fatalf("max after displacement = %s", v.String())
	}
	// Removing everything removes the aggregate output.
	e.Remove("m|g|1")
	e.Remove("m|g|2")
	e.Remove("m|g|3")
	if _, ok := e.Store().Get("lo|g"); ok {
		t.Fatal("empty group should remove output")
	}
}

const newpJoins = `
  karma|<author> = count vote|<author>|<id>|<voter>;
  rank|<author>|<id> = count vote|<author>|<id>|<voter>;
  page|<author>|<id>|a = copy article|<author>|<id>;
  page|<author>|<id>|r = copy rank|<author>|<id>;
  page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>;
  page|<author>|<id>|k|<cid>|<commenter> = check comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>
`

func TestNewpInterleavedJoins(t *testing.T) {
	// Fig 1: "Interleaved cache joins bring the data necessary to render
	// a Newp article into one contiguous range."
	e := New(Options{})
	if err := e.InstallText(newpJoins); err != nil {
		t.Fatal(err)
	}
	e.Put("article|bob|101", "A story")
	e.Put("comment|bob|101|c1|liz", "first!")
	e.Put("comment|bob|101|c2|pat", "nice")
	e.Put("vote|bob|101|u1", "1")
	e.Put("vote|bob|101|u2", "1")
	e.Put("vote|liz|x1|u3", "1") // liz's own article's vote -> liz karma
	e.Put("article|liz|x1", "liz's piece")

	got := scanKeys(t, e, "page|bob|101|", keys.PrefixEnd("page|bob|101|"))
	wantKeys(t, got,
		"page|bob|101|a",
		"page|bob|101|c|c1|liz",
		"page|bob|101|c|c2|pat",
		"page|bob|101|k|c1|liz",
		"page|bob|101|r",
	)
	kvmap := map[string]string{}
	kvs, _ := e.Scan("page|bob|101|", "page|bob|101}", 0)
	for _, kv := range kvs {
		kvmap[kv.Key] = kv.Value
	}
	if kvmap["page|bob|101|a"] != "A story" {
		t.Fatal("article copy")
	}
	if kvmap["page|bob|101|r"] != "2" {
		t.Fatalf("rank copy = %q", kvmap["page|bob|101|r"])
	}
	if kvmap["page|bob|101|k|c1|liz"] != "1" {
		t.Fatalf("karma copy = %q", kvmap["page|bob|101|k|c1|liz"])
	}
	// pat has no karma (no votes on pat's articles): no k entry for c2.
	if _, ok := kvmap["page|bob|101|k|c2|pat"]; ok {
		t.Fatal("karma entry for karma-less commenter")
	}
}

func TestNewpCascadingUpdates(t *testing.T) {
	// A vote must cascade: vote -> rank -> page|r, and vote -> karma ->
	// page|k (join-on-join, two hops).
	e := New(Options{})
	if err := e.InstallText(newpJoins); err != nil {
		t.Fatal(err)
	}
	e.Put("article|bob|101", "A story")
	e.Put("comment|bob|101|c1|liz", "first!")
	e.Put("vote|bob|101|u1", "1")
	e.Put("vote|liz|x1|u3", "1")
	scanKeys(t, e, "page|bob|101|", "page|bob|101}") // materialize

	e.Put("vote|bob|101|u9", "1") // new vote on bob's article
	if v, _ := e.Store().Get("page|bob|101|r"); v.String() != "2" {
		t.Fatalf("rank cascade = %s", v.String())
	}
	e.Put("vote|liz|x1|u4", "1") // new vote on liz's article -> liz karma 2
	if v, _ := e.Store().Get("page|bob|101|k|c1|liz"); v.String() != "2" {
		t.Fatalf("karma cascade = %s", v.String())
	}
}

func TestPullJoin(t *testing.T) {
	// Celebrity timelines (§2.3): pull joins recompute on each request
	// and cache nothing.
	e := New(Options{})
	spec := `
	  ct|<time>|<poster> = copy cp|<poster>|<time>;
	  t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>;
	  t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>
	`
	if err := e.InstallText(spec); err != nil {
		t.Fatal(err)
	}
	e.Put("s|ann|bob", "1")
	e.Put("s|ann|celeb", "1")
	e.Put("p|bob|100", "normal tweet")
	e.Put("cp|celeb|150", "celebrity tweet")

	got := scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob", "t|ann|150|celeb")
	// The celebrity part is never materialized.
	if _, ok := e.Store().Get("t|ann|150|celeb"); ok {
		t.Fatal("pull join materialized")
	}
	pulls := e.Stats().PullExecs
	got = scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob", "t|ann|150|celeb")
	if e.Stats().PullExecs <= pulls {
		t.Fatal("pull join should recompute per request")
	}
	// New celebrity tweet appears with no maintenance work.
	e.Put("cp|celeb|200", "more")
	got = scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob", "t|ann|150|celeb", "t|ann|200|celeb")
	// Get reads through the pull overlay too.
	if v, ok, _ := e.Get("t|ann|150|celeb"); !ok || v != "celebrity tweet" {
		t.Fatalf("Get through pull = %q %v", v, ok)
	}
}

func TestSnapshotJoin(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	e := New(Options{Clock: clock})
	if err := e.InstallText("snap|<a> = snapshot 30 copy src|<a>"); err != nil {
		t.Fatal(err)
	}
	e.Put("src|x", "v1")
	if v, _, _ := e.Get("snap|x"); v != "v1" {
		t.Fatalf("snapshot initial = %q", v)
	}
	// Updates are NOT pushed; the snapshot stays stale within T.
	e.Put("src|x", "v2")
	if v, _, _ := e.Get("snap|x"); v != "v1" {
		t.Fatalf("snapshot should stay stale within T, got %q", v)
	}
	// After T the snapshot recomputes.
	now = now.Add(31 * time.Second)
	if v, _, _ := e.Get("snap|x"); v != "v2" {
		t.Fatalf("snapshot after expiry = %q", v)
	}
}

func TestCycleRejected(t *testing.T) {
	e := New(Options{})
	if err := e.InstallText("b|<x> = copy a|<x>"); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallText("c|<x> = copy b|<x>"); err != nil {
		t.Fatal(err)
	}
	err := e.InstallText("a|<x> = copy c|<x>")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestEviction(t *testing.T) {
	e := New(Options{MemLimit: 40 * 1024})
	if err := e.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("u%02d", u)
		e.Put("s|"+user+"|bob", "1")
	}
	for i := 0; i < 50; i++ {
		e.Put(fmt.Sprintf("p|bob|%03d", i), "tweet tweet tweet")
	}
	// Materialize many timelines to blow the limit.
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("u%02d", u)
		scanKeys(t, e, "t|"+user+"|", "t|"+user+"}")
	}
	if e.Stats().Evictions == 0 {
		t.Fatal("no evictions under memory pressure")
	}
	if e.Store().Bytes() > 80*1024 {
		t.Fatalf("store did not shrink: %d bytes", e.Store().Bytes())
	}
	// Evicted timelines recompute correctly on demand.
	got := scanKeys(t, e, "t|u00|", "t|u00}")
	if len(got) != 50 {
		t.Fatalf("recomputed timeline has %d entries", len(got))
	}
}

// fakeLoader simulates the backing database of a write-around deployment
// (§2, §3.3): loads complete asynchronously via LoadComplete.
type fakeLoader struct {
	e       *Engine
	data    map[string]string
	pending []func()
	loads   int
	batches int
}

func (f *fakeLoader) StartLoads(loads []Load) {
	f.batches++
	for _, ld := range loads {
		ld := ld
		f.loads++
		f.pending = append(f.pending, func() {
			var kvs []KV
			for k, v := range f.data {
				if keys.Table(k) == ld.Table && ld.R.Contains(k) {
					kvs = append(kvs, KV{k, v})
				}
			}
			land(f.e, ld.Table, ld.R, kvs)
		})
	}
}

func (f *fakeLoader) drain() {
	p := f.pending
	f.pending = nil
	for _, fn := range p {
		fn()
	}
}

func TestRestartContexts(t *testing.T) {
	e := New(Options{})
	fl := &fakeLoader{e: e, data: map[string]string{
		"s|ann|bob": "1",
		"s|ann|liz": "1",
		"p|bob|100": "hello",
		"p|liz|150": "world",
	}}
	e.SetLoader(fl, "s", "p")
	if err := e.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}

	// First scan: subscriptions missing -> fetch starts, result pending.
	kvs, pending := e.Scan("t|ann|", "t|ann}", 0)
	if pending == 0 {
		t.Fatal("expected pending loads")
	}
	if len(kvs) != 0 {
		t.Fatalf("partial results: %v", kvs)
	}
	w := e.LoadWait()
	fl.drain() // subscriptions arrive
	select {
	case <-w.Done():
	default:
		t.Fatal("the read's restart context should resolve when its load lands")
	}

	// Retry: posts now missing -> second round of fetches ("in most
	// cases, this requires at most one round of fetches", §3.3 — here
	// two because posts depend on subscription contents).
	_, pending = e.Scan("t|ann|", "t|ann}", 0)
	if pending == 0 {
		t.Fatal("expected post loads")
	}
	fl.drain()

	kvs, pending = e.Scan("t|ann|", "t|ann}", 0)
	if pending != 0 {
		t.Fatalf("still pending after loads: %d", pending)
	}
	got := make([]string, len(kvs))
	for i, kv := range kvs {
		got[i] = kv.Key
	}
	wantKeys(t, got, "t|ann|100|bob", "t|ann|150|liz")

	// Subsequent scans hit cache: no more loads.
	loads := fl.loads
	e.Scan("t|ann|", "t|ann}", 0)
	if fl.loads != loads {
		t.Fatal("cached ranges refetched")
	}
}

func TestChangeHook(t *testing.T) {
	e := newTwipEngine(t, Options{})
	var changes []Change
	e.SetChangeHook(func(c Change) { changes = append(changes, c) })
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "Hi")
	scanKeys(t, e, "t|ann|", "t|ann}")
	// Hook sees base writes and computed writes.
	var sawBase, sawComputed bool
	for _, c := range changes {
		if c.Key == "p|bob|100" {
			sawBase = true
		}
		if c.Key == "t|ann|100|bob" {
			sawComputed = true
		}
	}
	if !sawBase || !sawComputed {
		t.Fatalf("hook coverage: base=%v computed=%v", sawBase, sawComputed)
	}
}

func TestAmbiguousJoinInstallAllowed(t *testing.T) {
	// §3: ambiguous joins are the user's responsibility, not an install
	// error.
	e := New(Options{})
	j, err := join.Parse("t|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install(j); err != nil {
		t.Fatal(err)
	}
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "only one poster at this time")
	got := scanKeys(t, e, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100")
}

func TestScanLimit(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	for i := 0; i < 20; i++ {
		e.Put(fmt.Sprintf("p|bob|%03d", i), "x")
	}
	kvs, _ := e.Scan("t|ann|", "t|ann}", 5)
	if len(kvs) != 5 {
		t.Fatalf("limit ignored: %d", len(kvs))
	}
}

func TestJoinsListing(t *testing.T) {
	e := newTwipEngine(t, Options{})
	js := e.Joins()
	if len(js) != 1 || !strings.Contains(js[0], "check s|") {
		t.Fatalf("Joins = %v", js)
	}
}

func TestDirectWritesToOutputTableCoexist(t *testing.T) {
	// The store is schema-free: clients may write into a join's output
	// range (client Pequod does exactly this when no joins are
	// installed; with joins, mixing is the user's responsibility).
	e := New(Options{})
	e.Put("t|ann|100|bob", "hand-written")
	got := scanKeys(t, e, "t|", "t}")
	wantKeys(t, got, "t|ann|100|bob")
}

func TestUpdaterMergingStats(t *testing.T) {
	e := newTwipEngine(t, Options{})
	for u := 0; u < 5; u++ {
		e.Put(fmt.Sprintf("s|u%d|bob", u), "1")
	}
	e.Put("p|bob|100", "x")
	for u := 0; u < 5; u++ {
		scanKeys(t, e, fmt.Sprintf("t|u%d|", u), fmt.Sprintf("t|u%d}", u))
	}
	st := e.Stats()
	// All five timelines install updaters on overlapping p|bob| ranges;
	// the exact-range ones merge.
	if st.UpdatersMerged == 0 {
		t.Fatalf("no updater merging: %+v", st)
	}
}

// TestWarmReadAllocatesNothing: a warm read of a join over base tables
// builds no strings and lets nothing escape, so a ScanInto with room in
// buf and a GetBounded of a prebuilt point allocate nothing.
func TestWarmReadAllocatesNothing(t *testing.T) {
	e := newTwipEngine(t, Options{})
	for f := 0; f < 8; f++ {
		e.Put(fmt.Sprintf("s|ann|u%d", f), "1")
		for p := 0; p < 5; p++ {
			e.Put(fmt.Sprintf("p|u%d|%04d", f, 100*p+f), "a tweet")
		}
	}
	buf := make([]KV, 0, 64)
	if kvs, _ := e.ScanInto("t|ann|", "t|ann}", 0, buf); len(kvs) != 40 {
		t.Fatalf("timeline holds %d rows", len(kvs))
	}
	point := keys.Range{Lo: "t|ann|0203|u3", Hi: "t|ann|0203|u3\x00"}
	reads := map[string]func(){
		"login": func() { buf, _ = e.ScanInto("t|ann|", "t|ann}", 0, buf) },
		"check": func() { buf, _ = e.ScanInto("t|ann|0300", "t|ann}", 0, buf) },
		"get": func() {
			if _, ok, _ := e.GetBounded(point, 0); !ok {
				panic("warm get missed")
			}
		},
	}
	for name, read := range reads {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("warm %s allocates %v times", name, n)
		}
	}
}
