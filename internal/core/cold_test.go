package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"pequod/internal/interval"
	"pequod/internal/keys"
	"pequod/internal/store"
)

// The cold path (§3.3): a cache engine whose base tables live at a home
// and arrive through an asynchronous BaseLoader, checked against a
// reference engine that has everything resident.

// coldJoins is the timeline join plus an archive cascaded over it, so a
// cold read also recurses through a feeding join's restarts.
const coldJoins = timelineJoin + "\n" +
	"z|<user>|<time>|<poster> = copy t|<user>|<time>|<poster>"

// coldRig is a home (the authoritative base rows), a reference engine
// fed every write directly, and a cold engine that sees base data only
// through loads and through the pushes a home sends for the ranges a
// subscriber holds.
type coldRig struct {
	t    *testing.T
	home map[string]string
	ref  *Engine
	cold *Engine

	inflight []Load // started, not yet resolved
	batches  int
}

func newColdRig(t *testing.T, opts Options, joins string) *coldRig {
	t.Helper()
	r := &coldRig{t: t, home: map[string]string{}, ref: New(Options{}), cold: New(opts)}
	r.cold.SetLoader(r, "s", "p")
	for _, e := range []*Engine{r.ref, r.cold} {
		if err := e.InstallText(joins); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *coldRig) StartLoads(loads []Load) {
	r.batches++
	r.inflight = append(r.inflight, loads...)
}

// resident reports whether the cold engine holds key's range, landed:
// the ranges a home pushes changes for. (Pushes racing a snapshot are
// buffered behind it by the server; here the snapshot is taken when the
// load lands, so it already contains them.)
func (r *coldRig) resident(key string) bool {
	pt := r.cold.presence[keys.Table(key)]
	pr, ok := pt.at(key)
	return ok && !pr.loading
}

func (r *coldRig) put(k, v string) {
	r.home[k] = v
	r.ref.Put(k, v)
	if r.resident(k) {
		r.cold.Put(k, v)
	}
}

func (r *coldRig) remove(k string) {
	delete(r.home, k)
	r.ref.Remove(k)
	if r.resident(k) {
		r.cold.Remove(k)
	}
}

// snapshot returns the home's rows of one load, sorted.
func (r *coldRig) snapshot(ld Load) []KV {
	var kvs []KV
	for k, v := range r.home {
		if keys.Table(k) == ld.Table && ld.R.Contains(k) {
			kvs = append(kvs, KV{k, v})
		}
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	return kvs
}

// land resolves in-flight load i, successfully or not.
func (r *coldRig) land(i int, fail bool) {
	ld := r.inflight[i]
	r.inflight = append(r.inflight[:i], r.inflight[i+1:]...)
	if fail {
		r.cold.LoadFailed(ld.Table, ld.R)
	} else {
		land(r.cold, ld.Table, ld.R, r.snapshot(ld))
	}
}

func (r *coldRig) landAll() {
	for len(r.inflight) > 0 {
		r.land(0, false)
	}
}

// outputs counts the cold engine's stored rows of computed tables.
func (r *coldRig) outputs() int {
	n := 0
	for _, table := range []string{"t", "z"} {
		r.cold.s.Scan(table+"|", table+"}", func(string, *store.Value) bool { n++; return true })
	}
	return n
}

// updaters counts the cold engine's installed updater contexts.
func (r *coldRig) updaters() int {
	n := 0
	r.cold.updaters.Overlap("", "", func(en *interval.Entry[*Updater]) bool {
		n += len(en.Val.contexts)
		return true
	})
	return n
}

// read scans the cold engine to completion — landing loads between the
// retries, in the order pick chooses, failing the ones fail chooses
// (nil: none) — and returns the result with the number of times the
// read had to wait.
func (r *coldRig) read(lo, hi string, pick func(n int) int, fail func() bool) (kvs []KV, waits int) {
	r.t.Helper()
	for {
		var pending int
		kvs, pending = r.cold.Scan(lo, hi, 0)
		if pending == 0 {
			return kvs, waits
		}
		waits++
		if waits > 100 {
			r.t.Fatalf("read [%q, %q) still pending after %d rounds", lo, hi, waits)
		}
		w := r.cold.LoadWait()
		if w == nil {
			r.t.Fatalf("read [%q, %q) reported %d pending loads but no restart context", lo, hi, pending)
		}
		for !resolved(w) {
			if len(r.inflight) == 0 {
				r.t.Fatalf("read [%q, %q) is parked with no load in flight", lo, hi)
			}
			r.land(pick(len(r.inflight)), fail != nil && fail())
		}
	}
}

func first(int) int { return 0 }

// TestColdReadExecutesJoinOnce is the tentpole's contract: a cold read
// missing k ranges over two dependent rounds (s|u| first, then the p|x|
// of every poster it names) emits once, installs nothing before its
// last load lands, is woken once per round however many loads the round
// has, and ends byte-equal to an engine that had everything resident.
func TestColdReadExecutesJoinOnce(t *testing.T) {
	r := newColdRig(t, Options{}, timelineJoin)
	const posters = 7
	for p := 0; p < posters; p++ {
		r.put(fmt.Sprintf("s|ann|p%02d", p), "1")
		for i := 0; i < 3; i++ {
			r.put(fmt.Sprintf("p|p%02d|%04d", p, 10*p+i), fmt.Sprintf("post %d/%d", p, i))
		}
	}
	before := r.cold.Stats()

	// Round 1: s|ann| is missing; round 2: every p|x| at once.
	for round, want := range []int{1, posters} {
		kvs, pending := r.cold.Scan("t|ann|", "t|ann}", 0)
		if pending != want || len(r.inflight) != want {
			t.Fatalf("round %d: pending=%d, %d loads in flight, want %d", round, pending, len(r.inflight), want)
		}
		if len(kvs) != 0 || r.outputs() != 0 || r.updaters() != 0 || r.cold.joins[0].status.t.Len() != 0 {
			t.Fatalf("round %d installed state before its loads landed: %d rows returned, %d stored, %d updater contexts, %d statuses",
				round, len(kvs), r.outputs(), r.updaters(), r.cold.joins[0].status.t.Len())
		}
		w := r.cold.LoadWait()
		for len(r.inflight) > 0 {
			if resolved(w) {
				t.Fatalf("round %d: read woken with %d of its loads still in flight", round, len(r.inflight))
			}
			if r.outputs() != 0 || r.updaters() != 0 {
				t.Fatalf("round %d: a landing load installed join state", round)
			}
			r.land(len(r.inflight)-1, false) // out of order
		}
		if !resolved(w) {
			t.Fatalf("round %d: read not woken by its last load", round)
		}
	}
	got, pending := r.cold.Scan("t|ann|", "t|ann}", 0)
	if pending != 0 {
		t.Fatalf("still pending after both rounds: %d", pending)
	}
	want, _ := r.ref.Scan("t|ann|", "t|ann}", 0)
	compareKVs(t, 0, got, want)
	if len(got) != 3*posters {
		t.Fatalf("timeline has %d rows", len(got))
	}

	st := r.cold.Stats()
	if execs, restarts := st.JoinExecs-before.JoinExecs, st.Restarts-before.Restarts; execs != 3 || restarts != 2 {
		t.Fatalf("JoinExecs=%d Restarts=%d, want 3 executions of which 2 discovery-only", execs, restarts)
	}
	if st.LoadsStarted != posters+1 || st.LoadBatches != 2 || r.batches != 2 {
		t.Fatalf("LoadsStarted=%d LoadBatches=%d (loader saw %d), want %d loads in 2 batches",
			st.LoadsStarted, st.LoadBatches, r.batches, posters+1)
	}
	if st.Invalidations != 0 {
		t.Fatalf("the restarts tore down %d statuses", st.Invalidations)
	}

	// Warm now: no execution, no load.
	r.cold.Scan("t|ann|", "t|ann}", 0)
	if after := r.cold.Stats(); after.JoinExecs != st.JoinExecs || after.LoadsStarted != st.LoadsStarted {
		t.Fatal("a warm read executed or loaded")
	}
}

// TestColdReadConvergesThroughFailureAndEviction: a load failing in the
// middle of a batch, and a just-loaded range evicted before the retry
// that would have used it, both end at the same bytes.
func TestColdReadConvergesThroughFailureAndEviction(t *testing.T) {
	seed := func(r *coldRig) {
		for p := 0; p < 5; p++ {
			r.put(fmt.Sprintf("s|ann|p%d", p), "1")
			r.put(fmt.Sprintf("p|p%d|%04d", p, p), "x")
		}
	}
	t.Run("LoadFailed mid-batch", func(t *testing.T) {
		r := newColdRig(t, Options{}, timelineJoin)
		seed(r)
		r.cold.Scan("t|ann|", "t|ann}", 0)
		r.landAll() // s|ann|
		if _, pending := r.cold.Scan("t|ann|", "t|ann}", 0); pending != 5 {
			t.Fatalf("pending = %d", pending)
		}
		w := r.cold.LoadWait()
		r.land(0, false)
		r.land(1, true) // the home refused this one
		for len(r.inflight) > 0 {
			r.land(0, false)
		}
		if !resolved(w) {
			t.Fatal("read not woken after its batch resolved")
		}
		if r.outputs() != 0 {
			t.Fatal("rows installed with a source range still missing")
		}
		// The retry restarts only the failed load.
		if _, pending := r.cold.Scan("t|ann|", "t|ann}", 0); pending != 1 || len(r.inflight) != 1 {
			t.Fatalf("retry: pending=%d inflight=%d, want the one failed load restarted", pending, len(r.inflight))
		}
		got, _ := r.read("t|ann|", "t|ann}", first, nil)
		want, _ := r.ref.Scan("t|ann|", "t|ann}", 0)
		compareKVs(t, 0, got, want)
		if st := r.cold.Stats(); st.LoadsFailed != 1 || st.JoinExecs-st.Restarts != 1 {
			t.Fatalf("LoadsFailed=%d, emitting executions=%d", st.LoadsFailed, st.JoinExecs-st.Restarts)
		}
	})
	t.Run("eviction before the retry", func(t *testing.T) {
		r := newColdRig(t, Options{}, timelineJoin)
		seed(r)
		r.cold.Scan("t|ann|", "t|ann}", 0)
		r.landAll() // s|ann|
		r.cold.Scan("t|ann|", "t|ann}", 0)
		r.landAll() // every p|x|
		// Memory pressure takes s|ann| away again before the reader runs.
		r.cold.DropRange(keys.Range{Lo: "s|ann|", Hi: "s|ann}"})
		got, waits := r.read("t|ann|", "t|ann}", first, nil)
		want, _ := r.ref.Scan("t|ann|", "t|ann}", 0)
		compareKVs(t, 0, got, want)
		if waits != 1 {
			t.Fatalf("read waited %d times, want once for the reloaded s|ann|", waits)
		}
		if st := r.cold.Stats(); st.JoinExecs-st.Restarts != 1 {
			t.Fatalf("emitting executions = %d", st.JoinExecs-st.Restarts)
		}
	})
}

// TestSubscribeDeltaMissKeepsCoverage: a new subscription whose delta
// join needs a p|x| range that is not resident stays a pending log
// entry. The timeline's existing coverage stays valid — served as it
// stands under a staleness budget, with no execution — and the fresh
// read that waits for the load applies exactly that delta.
func TestSubscribeDeltaMissKeepsCoverage(t *testing.T) {
	now := time.Unix(1000, 0)
	r := newColdRig(t, Options{Clock: func() time.Time { return now }}, timelineJoin)
	r.put("s|ann|bob", "1")
	r.put("p|bob|0100", "from bob")
	r.put("p|liz|0150", "from liz")
	warm, _ := r.read("t|ann|", "t|ann}", first, nil)
	if len(warm) != 1 {
		t.Fatalf("warm timeline = %v", warm)
	}
	before := r.cold.Stats()

	r.put("s|ann|liz", "1") // p|liz| has never been loaded here
	now = now.Add(10 * time.Millisecond)

	// Bounded read: within budget, served from the coverage as it is.
	kvs, pending := r.cold.ScanIntoBounded("t|ann|", "t|ann}", 0, nil, time.Second)
	if pending != 0 || len(kvs) != 1 || kvs[0] != warm[0] {
		t.Fatalf("bounded read: pending=%d kvs=%v", pending, kvs)
	}
	// Fresh read: the delta discovers p|liz|, and nothing else moves.
	kvs, pending = r.cold.Scan("t|ann|", "t|ann}", 0)
	if pending != 1 || len(r.inflight) != 1 || r.inflight[0].R.Lo != "p|liz|" {
		t.Fatalf("fresh read: pending=%d inflight=%v", pending, r.inflight)
	}
	if len(kvs) != 1 || kvs[0] != warm[0] {
		t.Fatalf("a delta miss disturbed the rest of the timeline: %v", kvs)
	}
	// Still valid, still serving bounded reads, while the load is out.
	kvs, pending = r.cold.ScanIntoBounded("t|ann|", "t|ann}", 0, nil, time.Second)
	if pending != 0 || len(kvs) != 1 {
		t.Fatalf("bounded read during the load: pending=%d kvs=%v", pending, kvs)
	}
	got, _ := r.read("t|ann|", "t|ann}", first, nil)
	want, _ := r.ref.Scan("t|ann|", "t|ann}", 0)
	compareKVs(t, 0, got, want)

	st := r.cold.Stats()
	if st.Invalidations != before.Invalidations || st.JoinExecs != before.JoinExecs {
		t.Fatalf("the delta miss recomputed the range: %d invalidations, %d executions",
			st.Invalidations-before.Invalidations, st.JoinExecs-before.JoinExecs)
	}
	if st.LogsApplied-before.LogsApplied != 1 {
		t.Fatalf("LogsApplied = %d, want the one delta", st.LogsApplied-before.LogsApplied)
	}
}

// TestEagerDeltaMissJoinsTheLog: an eager check source applies its delta
// on the write — unless the delta needs base data that is not resident.
// Then the entry is logged like a lazy source's, later entries of the
// same source queue behind it (a removal overtaking the insertion it
// undoes would be resurrected by it), and the next fresh read applies
// them in order once the load has landed.
func TestEagerDeltaMissJoinsTheLog(t *testing.T) {
	r := newColdRig(t, Options{}, eagerTimelineJoin)
	r.put("s|ann|bob", "1")
	r.put("p|bob|0100", "from bob")
	r.put("p|liz|0150", "from liz")
	r.put("p|moe|0160", "from moe")
	r.read("t|ann|", "t|ann}", first, nil)
	before := r.cold.Stats()

	r.put("s|ann|liz", "1") // delta needs p|liz|: not resident
	if len(r.inflight) != 1 || r.inflight[0].R.Lo != "p|liz|" {
		t.Fatalf("the blocked delta started %v", r.inflight)
	}
	st, _ := r.cold.joins[0].status.at("t|ann|")
	if len(st.logs) != 1 || r.outputs() != 1 {
		t.Fatalf("blocked delta: %d log entries, %d outputs", len(st.logs), r.outputs())
	}
	r.remove("s|ann|liz") // must not overtake the pending insertion
	r.put("s|ann|moe", "1")
	if len(st.logs) != 3 {
		t.Fatalf("later entries of the source did not queue behind the blocked one: %d logged", len(st.logs))
	}
	got, _ := r.read("t|ann|", "t|ann}", first, nil)
	want, _ := r.ref.Scan("t|ann|", "t|ann}", 0)
	compareKVs(t, 0, got, want)
	if len(got) != 2 {
		t.Fatalf("timeline = %v", got)
	}
	after := r.cold.Stats()
	if after.Invalidations != before.Invalidations || after.JoinExecs != before.JoinExecs {
		t.Fatal("a blocked eager delta recomputed the range")
	}
	// With everything resident again the source is eager again.
	r.put("s|ann|liz", "1")
	if len(st.logs) != 0 || r.outputs() != 3 {
		t.Fatalf("resident delta not applied on the write: %d logged, %d outputs", len(st.logs), r.outputs())
	}
}

// TestPushesAndRowsNeedAPresenceRecord: rows a loader delivers ahead of
// its residency marks (LoadRows) land only inside ranges still loading
// — a resident range's rows are newer than a late snapshot — and
// Tracks, the filter subscription pushes go through, admits loading and
// resident ranges alike.
func TestPushesAndRowsNeedAPresenceRecord(t *testing.T) {
	e := New(Options{})
	ld := &recordingLoader{}
	e.SetLoader(ld, "x")
	e.Scan("x|a", "x|m", 0) // [x|a, x|m) loading
	if !e.Tracks("x|b") || e.Tracks("x|q") || !e.Tracks("y|anything") {
		t.Fatalf("Tracks: loading=%v outside=%v other table=%v", e.Tracks("x|b"), e.Tracks("x|q"), e.Tracks("y|anything"))
	}
	e.LoadRows([]KV{{"x|b", "1"}, {"x|q", "2"}})
	if _, ok := e.Store().Get("x|b"); !ok {
		t.Fatal("row inside a loading range dropped")
	}
	if _, ok := e.Store().Get("x|q"); ok {
		t.Fatal("row outside every presence record planted")
	}
	e.LoadComplete("x", ld.loads[0])
	if kvs, pending := e.Scan("x|a", "x|m", 0); pending != 0 || len(kvs) != 1 {
		t.Fatalf("after the mark: pending=%d kvs=%v", pending, kvs)
	}
	e.LoadRows([]KV{{"x|b", "late"}})
	if v, _ := e.Store().Get("x|b"); v.String() != "1" || !e.Tracks("x|b") {
		t.Fatalf("a late row over a resident range: x|b = %q, tracked %v", v.String(), e.Tracks("x|b"))
	}
	e.DropRange(keys.Range{Lo: "x|a", Hi: "x|m"})
	if e.Tracks("x|b") {
		t.Fatal("Tracks still true after the range was dropped")
	}
}

// TestColdEqualsResident soaks the cold path: random base writes, reads
// whose loads land in random order and sometimes fail, home-side pushes
// only for resident ranges, and random evictions of base ranges and
// memory-limit evictions in between. Every completed read must equal
// the reference engine's.
func TestColdEqualsResident(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := Options{}
			if seed%2 == 0 {
				// Below the soak's fetched base copy, so the limit evicts
				// fetched ranges too, not only the timelines that go first.
				opts.MemLimit = 16 * 1024
			}
			runColdSoak(t, seed, opts, 2500)
		})
	}
}

func runColdSoak(t *testing.T, seed int64, opts Options, steps int) {
	rng := rand.New(rand.NewSource(seed))
	r := newColdRig(t, opts, coldJoins)
	users := []string{"u0", "u1", "u2", "u3", "u4"}
	posters := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	pick := func(n int) int { return rng.Intn(n) }
	ts := func() string { return fmt.Sprintf("%03d", rng.Intn(60)) }
	check := func(step int, lo, hi string) {
		t.Helper()
		got, _ := r.read(lo, hi, pick, func() bool { return rng.Intn(10) == 0 })
		want, _ := r.ref.Scan(lo, hi, 0)
		compareKVs(t, step, got, want)
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(14) {
		case 0, 1:
			r.put(keys.Join("s", users[rng.Intn(len(users))], posters[rng.Intn(len(posters))]), "1")
		case 2:
			r.remove(keys.Join("s", users[rng.Intn(len(users))], posters[rng.Intn(len(posters))]))
		case 3, 4, 5:
			r.put(keys.Join("p", posters[rng.Intn(len(posters))], ts()), fmt.Sprintf("v%d", step))
		case 6:
			r.remove(keys.Join("p", posters[rng.Intn(len(posters))], ts()))
		case 7: // a base range is evicted (or migrates away)
			if rng.Intn(2) == 0 {
				u := users[rng.Intn(len(users))]
				r.cold.DropRange(keys.Range{Lo: "s|" + u + "|", Hi: "s|" + u + "}"})
			} else {
				a := posters[rng.Intn(len(posters))]
				r.cold.DropRange(keys.Range{Lo: "p|" + a + "|", Hi: "p|" + a + "}"})
			}
		case 8: // a load left over from an abandoned read lands late
			if len(r.inflight) > 0 {
				r.land(pick(len(r.inflight)), false)
			}
		case 9, 10, 11:
			u := users[rng.Intn(len(users))]
			check(step, "t|"+u+"|", "t|"+u+"}")
		case 12:
			u := users[rng.Intn(len(users))]
			check(step, "z|"+u+"|", "z|"+u+"}")
		default: // start a read and walk away from it
			u := users[rng.Intn(len(users))]
			r.cold.Scan("z|"+u+"|", "z|"+u+"}", 0)
		}
	}
	r.landAll()
	check(steps, "t|", "t}")
	check(steps, "z|", "z}")
	st := r.cold.Stats()
	if st.Restarts == 0 || st.LoadsFailed == 0 {
		t.Fatalf("soak never restarted or never failed a load: %+v", st)
	}
	if opts.MemLimit > 0 && st.Evictions == 0 {
		t.Fatal("memory-limited soak never evicted")
	}
}

// hopLoader resolves every load on its own goroutine, under the lock
// that serializes the engine — what a shard and its loader do.
type hopLoader struct {
	mu   *sync.Mutex
	e    *Engine
	rows map[string][]KV // by range start
}

func (l *hopLoader) StartLoads(loads []Load) {
	for _, ld := range loads {
		ld := ld
		go func() {
			l.mu.Lock()
			land(l.e, ld.Table, ld.R, l.rows[ld.R.Lo])
			l.mu.Unlock()
		}()
	}
}

// BenchmarkColdReadWithLoads is the cold rung of the ladder: a timeline
// read that misses s|u| and then the p|x| of its eight posters, with
// each load landing after a goroutine hop. The resident count is the
// number of join status ranges the engine already holds: completing a
// load must not cost more with more of them.
func BenchmarkColdReadWithLoads(b *testing.B) {
	for _, resident := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			const users, follows, posts = 64, 8, 10
			var mu sync.Mutex
			e := New(Options{})
			ld := &hopLoader{mu: &mu, e: e, rows: map[string][]KV{}}
			e.SetLoader(ld, "s", "p")
			if err := e.InstallText(timelineJoin + "\nw|<a> = copy v|<a>"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < resident; i++ {
				k := fmt.Sprintf("%07d", i)
				e.Put("v|"+k, "x")
				e.Get("w|" + k)
			}
			for u := 0; u < users; u++ {
				su := fmt.Sprintf("s|u%02d|", u)
				for f := 0; f < follows; f++ {
					p := fmt.Sprintf("a%02d%d", u, f)
					ld.rows[su] = append(ld.rows[su], KV{su + p, "1"})
					pp := "p|" + p + "|"
					for i := 0; i < posts; i++ {
						ld.rows[pp] = append(ld.rows[pp], KV{fmt.Sprintf("%s%04d", pp, i), "a tweet of ordinary length, more or less"})
					}
				}
			}
			before := e.Stats()
			wakeups := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := fmt.Sprintf("u%02d", i%users)
				lo, hi := "t|"+u+"|", "t|"+u+"}"
				mu.Lock()
				for {
					kvs, pending := e.Scan(lo, hi, 0)
					if pending == 0 {
						if len(kvs) != follows*posts {
							b.Fatalf("timeline has %d rows", len(kvs))
						}
						break
					}
					w := e.LoadWait()
					mu.Unlock()
					<-w.Done()
					wakeups++
					mu.Lock()
				}
				b.StopTimer()
				e.DropRange(keys.Range{Lo: lo, Hi: hi})
				e.DropRange(keys.Range{Lo: "s|" + u + "|", Hi: "s|" + u + "}"})
				e.DropRange(keys.Range{Lo: "p|a" + u[1:], Hi: "p|a" + u[1:] + "}"})
				b.StartTimer()
				mu.Unlock()
			}
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.JoinExecs-before.JoinExecs)/float64(b.N), "execs/op")
			b.ReportMetric(float64(st.JoinExecs-before.JoinExecs-(st.Restarts-before.Restarts))/float64(b.N), "emits/op")
			b.ReportMetric(float64(wakeups)/float64(b.N), "wakeups/op")
		})
	}
}
