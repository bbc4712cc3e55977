package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pequod/internal/keys"
	"pequod/internal/store"
)

// ownAll is the keep predicate of a pool with no replicated tables.
func ownAll(string) bool { return false }

// TestExtractSpliceMovesOwnedRows: plain rows inside the range move to
// the destination; rows outside stay; nothing is notified as a logical
// removal.
func TestExtractSpliceMovesOwnedRows(t *testing.T) {
	src, dst := New(Options{}), New(Options{})
	var changes []Change
	src.SetChangeHook(func(c Change) { changes = append(changes, c) })
	src.Put("a|1", "v1")
	src.Put("a|5", "v5")
	src.Put("a|9", "v9")
	changes = nil

	rs := src.ExtractRange(keys.Range{Lo: "a|3", Hi: "a|7"}, ownAll)
	if len(rs.KVs) != 1 || rs.KVs[0] != (KV{Key: "a|5", Value: "v5"}) {
		t.Fatalf("extracted %v", rs.KVs)
	}
	for _, c := range changes {
		if c.Op == OpRemove {
			t.Fatalf("extraction notified a logical removal: %+v", c)
		}
	}
	if _, ok := src.Store().Get("a|5"); ok {
		t.Fatal("moved row still at source")
	}
	for _, k := range []string{"a|1", "a|9"} {
		if _, ok := src.Store().Get(k); !ok {
			t.Fatalf("row %q outside the range left the source", k)
		}
	}
	dst.SpliceRange(rs)
	if v, ok := dst.Store().Get("a|5"); !ok || v.String() != "v5" {
		t.Fatal("moved row missing at destination")
	}
}

// TestExtractDropsComputedAndRecordsWarm: computed coverage overlapping
// the migrated range is dropped at the source (whole statuses, outputs
// removed with OpEvict so nothing downstream treats it as deletion) and
// the valid portions are reported for the destination's warm rebuild.
func TestExtractDropsComputedAndRecordsWarm(t *testing.T) {
	src := newTwipEngine(t, Options{})
	src.Put("s|ann|bob", "1")
	src.Put("p|bob|100", "Hi")
	scanKeys(t, src, "t|ann|", "t|ann}") // materialize a valid status

	var evicts, removes int
	src.SetChangeHook(func(c Change) {
		switch c.Op {
		case OpEvict:
			evicts++
		case OpRemove:
			removes++
		}
	})
	rs := src.ExtractRange(keys.Range{Lo: "t|", Hi: "t}"}, func(table string) bool {
		return table == "s" || table == "p" // the pool's forwarded sources
	})
	if len(rs.Warm) != 1 || rs.Warm[0].Join != 0 {
		t.Fatalf("warm ranges = %+v", rs.Warm)
	}
	if len(rs.KVs) != 0 {
		t.Fatalf("computed rows were captured as owned: %v", rs.KVs)
	}
	if evicts == 0 || removes != 0 {
		t.Fatalf("drop notified evicts=%d removes=%d", evicts, removes)
	}
	if got := scanKeys(t, src, "p|", "p}"); len(got) != 1 {
		t.Fatalf("replicated source rows left the source: %v", got)
	}
	if n := src.LRULen(); n != 0 {
		t.Fatalf("status still tracked after extraction: LRULen=%d", n)
	}

	// A destination holding the same replicated sources rebuilds the
	// warm coverage during the splice: the first read is already warm.
	dst := newTwipEngine(t, Options{})
	dst.Put("s|ann|bob", "1")
	dst.Put("p|bob|100", "Hi")
	dst.SpliceRange(rs)
	execs := dst.Stats().JoinExecs
	got := scanKeys(t, dst, "t|ann|", "t|ann}")
	wantKeys(t, got, "t|ann|100|bob")
	if dst.Stats().JoinExecs != execs {
		t.Fatal("read after warm splice re-executed the join")
	}
}

// TestExtractClipsPresence: a resident loader-backed range straddling
// the migrated range is clipped — the evicted middle reloads on demand,
// the survivors stay resident — and rows under it are evicted, not
// moved.
func TestExtractClipsPresence(t *testing.T) {
	e := New(Options{})
	ld := &recordingLoader{}
	e.SetLoader(ld, "x")
	e.Scan("x|a", "x|z", 0) // one gap load for [x|a, x|z)
	if len(ld.loads) != 1 {
		t.Fatalf("loads = %v", ld.loads)
	}
	land(e, "x", ld.loads[0], []KV{{"x|b", "1"}, {"x|m", "2"}, {"x|y", "3"}})

	rs := e.ExtractRange(keys.Range{Lo: "x|g", Hi: "x|p"}, ownAll)
	if len(rs.KVs) != 0 {
		t.Fatalf("loader-backed rows captured as owned: %v", rs.KVs)
	}
	if len(rs.EvictedPresence) != 1 || rs.EvictedPresence[0].R != (keys.Range{Lo: "x|g", Hi: "x|p"}) {
		t.Fatalf("evicted presence = %+v", rs.EvictedPresence)
	}
	if _, ok := e.Store().Get("x|m"); ok {
		t.Fatal("row inside the migrated range survived")
	}
	for _, k := range []string{"x|b", "x|y"} {
		if _, ok := e.Store().Get(k); !ok {
			t.Fatalf("row %q under a surviving presence clip was evicted", k)
		}
	}
	// Reads over the survivors stay resident (no new load); the evicted
	// middle triggers a reload.
	ld.loads = nil
	if _, pending := e.Scan("x|a", "x|g", 0); pending != 0 || len(ld.loads) != 0 {
		t.Fatalf("left clip not resident: pending=%d loads=%v", pending, ld.loads)
	}
	if _, pending := e.Scan("x|g", "x|p", 0); pending != 1 || len(ld.loads) != 1 {
		t.Fatalf("evicted middle did not reload: loads=%v", ld.loads)
	}
}

// land resolves one load the way a loader does: its rows, then its mark.
func land(e *Engine, table string, r keys.Range, kvs []KV) {
	e.LoadRows(kvs)
	e.LoadComplete(table, r)
}

// recordingLoader records started loads without completing them.
type recordingLoader struct{ loads []keys.Range }

func (l *recordingLoader) StartLoads(loads []Load) {
	for _, ld := range loads {
		l.loads = append(l.loads, ld.R)
	}
}

// TestExtractMovePresence: with a nil keep (cluster migration — the
// extracting server is the range's home), loader-backed rows inside the
// range are captured and moved instead of evicted, and presence records
// are still clipped.
func TestExtractMovePresence(t *testing.T) {
	e := New(Options{})
	ld := &recordingLoader{}
	e.SetLoader(ld, "x")
	e.Scan("x|a", "x|z", 0)
	land(e, "x", ld.loads[0], []KV{{"x|b", "1"}, {"x|m", "2"}, {"x|y", "3"}})
	e.Put("y|m", "owned") // a plain owned row in the same range

	rs := e.ExtractRange(keys.Range{Lo: "x|g", Hi: "y}"}, nil)
	want := map[string]string{"x|m": "2", "x|y": "3", "y|m": "owned"}
	if len(rs.KVs) != len(want) {
		t.Fatalf("extracted %v, want %v", rs.KVs, want)
	}
	for _, kv := range rs.KVs {
		if want[kv.Key] != kv.Value {
			t.Fatalf("extracted %v, want %v", rs.KVs, want)
		}
	}
	for k := range want {
		if _, ok := e.Store().Get(k); ok {
			t.Fatalf("moved row %q still at source", k)
		}
	}
	if _, ok := e.Store().Get("x|b"); !ok {
		t.Fatal("row outside the range left the source")
	}
	// The clipped left side stays resident; the extracted side reloads.
	ld.loads = nil
	if _, pending := e.Scan("x|a", "x|g", 0); pending != 0 || len(ld.loads) != 0 {
		t.Fatalf("left clip not resident: loads=%v", ld.loads)
	}
	if _, pending := e.Scan("x|g", "x|o", 0); pending != 1 {
		t.Fatal("extracted side did not reload")
	}
}

// TestDropRange: every cached trace of the range goes — computed
// coverage (as OpEvict), presence records, and the rows themselves —
// with dependents invalidated, while state outside the range survives.
func TestDropRange(t *testing.T) {
	e := newTwipEngine(t, Options{})
	e.Put("s|ann|bob", "1")
	e.Put("p|bob|100", "Hi")
	e.Put("s|cat|dan", "1")
	e.Put("p|dan|200", "Yo")
	scanKeys(t, e, "t|ann|", "t|ann}")
	scanKeys(t, e, "t|cat|", "t|cat}")

	var evicts, removes int
	e.SetChangeHook(func(c Change) {
		switch c.Op {
		case OpEvict:
			evicts++
		case OpRemove:
			removes++
		}
	})
	e.DropRange(keys.Range{Lo: "p|bob|", Hi: "p|bob}"})
	if evicts == 0 || removes != 0 {
		t.Fatalf("drop notified evicts=%d removes=%d", evicts, removes)
	}
	if _, ok := e.Store().Get("p|bob|100"); ok {
		t.Fatal("dropped row survived")
	}
	if _, ok := e.Store().Get("p|dan|200"); !ok {
		t.Fatal("row outside the dropped range went too")
	}
	// ann's timeline was computed from the dropped source: it must have
	// been invalidated, and recompute against post-drop state (empty).
	if got := scanKeys(t, e, "t|ann|", "t|ann}"); len(got) != 0 {
		t.Fatalf("dependent computed range served stale rows: %v", got)
	}
	// cat's timeline is untouched.
	wantKeys(t, scanKeys(t, e, "t|cat|", "t|cat}"), "t|cat|200|dan")
}

// TestDropRangeAbandonsLoads: an in-flight load overlapping the drop is
// abandoned whole — the late LoadComplete must not re-mark it resident —
// and the next read restarts it.
func TestDropRangeAbandonsLoads(t *testing.T) {
	e := New(Options{})
	ld := &recordingLoader{}
	e.SetLoader(ld, "x")
	e.Scan("x|a", "x|z", 0)
	if len(ld.loads) != 1 {
		t.Fatalf("loads = %v", ld.loads)
	}
	w := e.LoadWait()
	e.DropRange(keys.Range{Lo: "x|g", Hi: "x|p"})
	if !resolved(w) {
		t.Fatal("drop did not release the read parked on the abandoned load")
	}
	// The late result of the abandoned load is discarded whole: nothing
	// marked resident, no row planted outside a presence record.
	land(e, "x", ld.loads[0], []KV{{"x|b", "1"}})
	if _, ok := e.Store().Get("x|b"); ok {
		t.Fatal("abandoned load's row landed outside any presence record")
	}
	ld.loads = nil
	if _, pending := e.Scan("x|a", "x|z", 0); pending == 0 || len(ld.loads) == 0 {
		t.Fatalf("abandoned load left the range marked resident (loads=%v)", ld.loads)
	}
}

// resolved reports whether a restart context's loads have all resolved.
func resolved(w *LoadWait) bool {
	select {
	case <-w.Done():
		return true
	default:
		return false
	}
}

// TestLoadFailed: a failed load drops its loading record (no false
// residency) and releases the reads parked on it so they retry.
func TestLoadFailed(t *testing.T) {
	e := New(Options{})
	ld := &recordingLoader{}
	e.SetLoader(ld, "x")
	e.Scan("x|a", "x|z", 0)
	w := e.LoadWait()
	if resolved(w) {
		t.Fatal("restart context resolved with its load in flight")
	}
	e.LoadFailed("x", ld.loads[0])
	if !resolved(w) {
		t.Fatal("LoadFailed did not release the parked read")
	}
	ld.loads = nil
	if _, pending := e.Scan("x|a", "x|z", 0); pending != 1 || len(ld.loads) != 1 {
		t.Fatalf("failed load did not restart: pending=%d loads=%v", 1, ld.loads)
	}
	// Completing the restarted load works normally.
	land(e, "x", ld.loads[0], []KV{{"x|m", "1"}})
	if kvs, pending := e.Scan("x|a", "x|z", 0); pending != 0 || len(kvs) != 1 {
		t.Fatalf("restarted load did not land: pending=%d kvs=%v", pending, kvs)
	}
}

// dumpEngine renders everything ExtractRange and DropRange both touch:
// join statuses with their dirty spans, presence records, the LRU's
// length and the store's rows.
func dumpEngine(e *Engine) string {
	var b strings.Builder
	for i, ij := range e.joins {
		ij.status.all(func(st *JoinStatus) {
			var dirty []string
			for _, d := range st.dirty {
				dirty = append(dirty, d.r.String())
			}
			sort.Strings(dirty)
			fmt.Fprintf(&b, "join %d status %v valid=%v logs=%d updaters=%d dirty=%v\n", i, st.r, st.valid, len(st.logs), len(st.updaters), dirty)
		})
	}
	var tables []string
	for tb := range e.presence {
		tables = append(tables, tb)
	}
	sort.Strings(tables)
	for _, tb := range tables {
		e.presence[tb].all(func(pr *presRange) {
			fmt.Fprintf(&b, "presence %s %v loading=%v waiters=%d\n", tb, pr.r, pr.loading, len(pr.waiters))
		})
	}
	fmt.Fprintf(&b, "lru %d\n", e.LRULen())
	e.s.Scan("", "", func(k string, v *store.Value) bool {
		fmt.Fprintf(&b, "row %s=%s\n", k, v.String())
		return true
	})
	return b.String()
}

// TestExtractEqualsDropPlusRows pins the primitives ExtractRange and
// DropRange are both built from: over random join sets, rows, presence
// records and in-flight loads, ExtractRange(r, nil) on one engine and
// DropRange(r) on its twin leave identical statuses, presence records,
// LRU length and store contents — extraction is a drop that hands back
// the rows (and the warm coverage) instead of evicting them.
func TestExtractEqualsDropPlusRows(t *testing.T) {
	joinPool := []string{
		timelineJoin,
		"z|<user>|<time>|<poster> = copy t|<user>|<time>|<poster>",
		"k|<poster> = count p|<poster>|<time>",
	}
	users := []string{"u0", "u1", "u2", "u3"}
	posters := []string{"a0", "a1", "a2", "a3", "a4"}
	for seed := int64(1); seed <= 60; seed++ {
		// build replays one seeded history, so two calls make twins.
		build := func() (*Engine, keys.Range) {
			rng := rand.New(rand.NewSource(seed))
			pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
			e := New(Options{})
			for _, text := range joinPool[:rng.Intn(len(joinPool)+1)] {
				if err := e.InstallText(text); err != nil {
					t.Fatal(err)
				}
			}
			ld := &recordingLoader{}
			backed := map[string]bool{}
			for _, tb := range []string{"s", "p", "x"} {
				if rng.Intn(2) == 0 {
					backed[tb] = true
					e.SetLoader(ld, tb)
				}
			}
			row := func(tb string) KV {
				switch tb {
				case "s":
					return KV{keys.Join("s", pick(users), pick(posters)), "1"}
				case "p":
					return KV{keys.Join("p", pick(posters), fmt.Sprintf("%03d", rng.Intn(40))), fmt.Sprint("v", rng.Intn(100))}
				}
				return KV{keys.Join(tb, pick(posters), fmt.Sprint(rng.Intn(9))), "w"}
			}
			started := 0 // loads of ld.loads already landed, failed or left in flight for good
			for step := 0; step < 120; step++ {
				switch tb := pick([]string{"s", "p", "x", "y", "read", "read", "land"}); tb {
				case "read":
					u, a := pick(users), pick(posters)
					r := [][2]string{{"t|" + u + "|", "t|" + u + "}"}, {"z|" + u + "|", "z|" + u + "}"},
						{"k|", "k}"}, {"x|" + a + "|", "x|" + a + "}"}, {"p|" + a + "|", "p|" + a + "}"}, {"s|", "s|u2"}}[rng.Intn(6)]
					e.Scan(r[0], r[1], 0)
					e.LoadWait()
				case "land":
					// Resolve the oldest unresolved load: rows inside it, then
					// the mark — or a failure, or leave it in flight.
					if started == len(ld.loads) {
						continue
					}
					r := ld.loads[started]
					started++
					tb := keys.Table(r.Lo)
					switch rng.Intn(5) {
					case 0: // stays in flight
					case 1:
						e.LoadFailed(tb, r)
					default:
						var kvs []KV
						for i := 0; i < 6; i++ {
							if kv := row(tb); r.Contains(kv.Key) {
								kvs = append(kvs, kv)
							}
						}
						land(e, tb, r, kvs)
					}
				default:
					if !backed[tb] { // backed tables fill through loads only
						kv := row(tb)
						e.Put(kv.Key, kv.Value)
					}
				}
			}
			a, b := pick(posters), pick(users)
			return e, []keys.Range{
				{Lo: "p|" + a + "|", Hi: "p|" + a + "}"}, {Lo: "p|a1", Hi: "p|a3|02"}, {Lo: "s|", Hi: "s}"},
				{Lo: "s|" + b + "|", Hi: "t|" + b + "|"}, {Lo: "t|" + b + "|", Hi: "t|" + b + "}"},
				{Lo: "p|a2", Hi: "y|a2"}, {Lo: "x|a1", Hi: ""}, {Lo: "", Hi: ""}, {Lo: "k|", Hi: "p|a2}"},
			}[rng.Intn(9)]
		}
		ex, r := build()
		dr, _ := build()
		if a, b := dumpEngine(ex), dumpEngine(dr); a != b {
			t.Fatalf("seed %d: the twins differ before the cut:\n%s\nvs\n%s", seed, a, b)
		}
		var inside []KV
		dr.s.Scan(r.Lo, r.Hi, func(k string, v *store.Value) bool {
			inside = append(inside, KV{k, v.String()})
			return true
		})
		rs := ex.ExtractRange(r, nil)
		dr.DropRange(r)
		if a, b := dumpEngine(ex), dumpEngine(dr); a != b {
			t.Fatalf("seed %d, range %v: extract and drop disagree:\nextract left\n%s\ndrop left\n%s", seed, r, a, b)
		}
		// The rows handed back are exactly what the range held: nothing
		// derived (statuses drop their outputs first), nothing outside.
		var derived int
		for _, kv := range inside {
			if tb := keys.Table(kv.Key); tb == "t" || tb == "z" || tb == "k" {
				derived++
			}
		}
		if len(rs.KVs)+derived != len(inside) {
			t.Fatalf("seed %d, range %v: extracted %d rows of the %d (%d derived) the range held", seed, r, len(rs.KVs), len(inside), derived)
		}
		for _, kv := range rs.KVs {
			if !r.Contains(kv.Key) {
				t.Fatalf("seed %d: extracted %q from outside %v", seed, kv.Key, r)
			}
		}
	}
}
