package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pequod/internal/keys"
	"pequod/internal/store"
)

// landCase is one join set for TestKeyOrderLandingEqualsEmitOrder: the
// engine's options and set-up, a base-key generator, and the output
// ranges the stream reads (first logins) and drops (so they are computed
// again).
type landCase struct {
	name  string
	joins string
	opts  Options
	key   func(r *rand.Rand) string
	reads []keys.Range
	// evicts: the engine evicts, and what it evicts depends on Bytes(),
	// which key order changes, so only what reads return must agree.
	evicts bool
}

// user returns the output range of one user's rows in table tbl.
func user(tbl, u string) keys.Range {
	return keys.Range{Lo: tbl + "|" + u + "|", Hi: tbl + "|" + u + "}"}
}

// twipKey is a follow or a post among six users, posting at one of
// times distinct instants.
func twipKey(times int) func(r *rand.Rand) string {
	users := []string{"ann", "bob", "cat", "dan", "eve", "fay"}
	return func(r *rand.Rand) string {
		if r.Intn(3) == 0 {
			return fmt.Sprintf("s|%s|%s", pick(r, users...), pick(r, users...))
		}
		return fmt.Sprintf("p|%s|%04d", pick(r, users...), r.Intn(times))
	}
}

func timelines(tbl string) []keys.Range {
	var rs []keys.Range
	for _, u := range []string{"ann", "bob", "cat", "dan", "eve", "fay"} {
		rs = append(rs, user(tbl, u))
	}
	return append(rs, keys.Range{Lo: tbl + "|", Hi: tbl + "}"})
}

var landCases = []landCase{
	{name: "twip", joins: timelineJoin, key: twipKey(400), reads: timelines("t")},
	{
		name:  "aggregate",
		joins: "karma|<author> = count vote|<author>|<id>|<voter>",
		key: func(r *rand.Rand) string {
			return fmt.Sprintf("vote|%s|a%d|u%d", pick(r, "w", "x", "y"), r.Intn(4), r.Intn(4))
		},
		reads: []keys.Range{{Lo: "karma|", Hi: "karma}"}, {Lo: "karma|x", Hi: "karma|x\x00"}},
	},
	{
		// The output drops the poster: two followees posting at one
		// instant emit one key twice, and the later emit wins.
		name:  "dropped slot",
		joins: "tl|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>",
		key:   twipKey(30),
		reads: timelines("tl"),
	},
	{name: "memory limit", joins: timelineJoin, opts: Options{MemLimit: 24 << 10}, key: twipKey(400), reads: timelines("t"), evicts: true},
	{
		// Timelines feed a count and a copy of themselves: a read of
		// either executes the timeline inside its own execution, and a
		// timeline executed again after a drop fires their updaters.
		name: "cascade",
		joins: timelineJoin + `;
			tc|<user> = count t|<user>|<time>|<poster>;
			d|<user>|<time>|<poster> = copy t|<user>|<time>|<poster>`,
		key:   twipKey(400),
		reads: append(append(timelines("d"), timelines("t")...), keys.Range{Lo: "tc|", Hi: "tc}"}),
	},
}

// landEngine is an engine for c that lands forward executions' rows in
// key order or, with emitOrder, as they are emitted, and the changes it
// notified.
func landEngine(t *testing.T, c landCase, emitOrder bool) (*Engine, *[]Change) {
	t.Helper()
	e := New(c.opts)
	e.emitOrder = emitOrder
	if err := e.InstallText(c.joins); err != nil {
		t.Fatal(err)
	}
	var changes []Change
	e.SetChangeHook(func(ch Change) { changes = append(changes, ch) })
	return e, &changes
}

// TestKeyOrderLandingEqualsEmitOrder: a forward execution's rows
// written in key order leave the engine as writing them as they are
// emitted does — store rows, Len(), the changes notified for each key in
// the order given, and every Stats counter — for Twip, an aggregate
// join, a join whose output drops a slot and so emits a key twice, an
// engine under a memory limit, and a cascade whose timelines are two
// other joins' source. The stream mixes base writes,
// first logins, and drops of computed ranges that make the next read
// execute again, and every read must return the same rows. Bytes() may
// differ: rows written in key order fill their leaves fuller. So under a
// memory limit, where that decides what is evicted, only the reads must
// agree.
func TestKeyOrderLandingEqualsEmitOrder(t *testing.T) {
	for _, c := range landCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				sorted, sortedCh := landEngine(t, c, false)
				emit, emitCh := landEngine(t, c, true)
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 1500; step++ {
					var op func(e *Engine)
					switch x := rng.Intn(20); {
					case x < 3:
						r := c.reads[rng.Intn(len(c.reads))]
						a, _ := sorted.Scan(r.Lo, r.Hi, 0)
						b, _ := emit.Scan(r.Lo, r.Hi, 0)
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("seed %d step %d: a read of %v returned %d rows in key order, %d as emitted", seed, step, r, len(a), len(b))
						}
						continue
					case x < 4:
						r := c.reads[rng.Intn(len(c.reads))]
						op = func(e *Engine) { e.DropRange(r) }
					case x < 6:
						k := c.key(rng)
						op = func(e *Engine) { e.Remove(k) }
					default:
						k, v := c.key(rng), pick(rng, "a tweet", "another", "a third")
						op = func(e *Engine) { e.Put(k, v) }
					}
					op(sorted)
					op(emit)
				}
				for _, r := range c.reads {
					sorted.Scan(r.Lo, r.Hi, 0)
					emit.Scan(r.Lo, r.Hi, 0)
				}
				if err := sorted.s.Check(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if c.evicts {
					if sorted.Stats().Evictions == 0 {
						t.Fatalf("seed %d: nothing was evicted", seed)
					}
					t.Logf("seed %d: %d and %d evictions", seed, sorted.Stats().Evictions, emit.Stats().Evictions)
					continue
				}
				if a, b := storeRows(sorted), storeRows(emit); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: rows differ:\nkey order  %v\nas emitted %v", seed, a, b)
				}
				if a, b := sorted.s.Len(), emit.s.Len(); a != b {
					t.Fatalf("seed %d: %d rows in key order, %d as emitted", seed, a, b)
				}
				if a, b := changesByKey(*sortedCh), changesByKey(*emitCh); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d: %d changes in key order, %d as emitted, or another sequence for some key", seed, len(*sortedCh), len(*emitCh))
				}
				if a, b := sorted.Stats(), emit.Stats(); a != b {
					t.Fatalf("seed %d: stats differ:\nkey order  %+v\nas emitted %+v", seed, a, b)
				}
				t.Logf("seed %d: %d rows in %d bytes in key order, %d bytes as emitted", seed, sorted.s.Len(), sorted.s.Bytes(), emit.s.Bytes())
			}
		})
	}
}

// changesByKey groups changes by key, each key's in the order given.
func changesByKey(chs []Change) map[string][]Change {
	m := make(map[string][]Change)
	for _, ch := range chs {
		m[ch.Key] = append(m[ch.Key], ch)
	}
	return m
}

// TestMergeRuns: the rows of any number of ascending stretches come out
// in key order, equal keys in the order they were emitted.
func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		var o outRun
		type row struct {
			k string
			n int
		}
		var rows []row
		for s := rng.Intn(70); s >= 0; s-- {
			x := rng.Intn(50)
			for i := rng.Intn(12); i >= 0; i-- {
				x += rng.Intn(3) // equal keys within a stretch too
				rows = append(rows, row{fmt.Sprintf("k%03d", x), len(rows)})
			}
		}
		for _, r := range rows {
			o.add(r.k, store.NewValue(fmt.Sprint(r.n)))
		}
		ks, vs := o.sorted()
		want := append([]row(nil), rows...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].k < want[b].k })
		if len(ks) != len(want) {
			t.Fatalf("trial %d: %d rows out of %d", trial, len(ks), len(want))
		}
		for i, w := range want {
			if ks[i] != w.k || vs[i].String() != fmt.Sprint(w.n) {
				t.Fatalf("trial %d: row %d is %q emitted %s, want %q emitted %d", trial, i, ks[i], vs[i], w.k, w.n)
			}
		}
		o.reset()
	}
}
