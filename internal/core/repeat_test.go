package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// repeatCase is one join set for TestRepeatedWriteIsInvisible: its base
// keys, the output ranges a read materialises, and a base key under a
// materialised updater whose changes must fire.
type repeatCase struct {
	name  string
	joins string
	key   func(rng *rand.Rand) string
	reads [][2]string
	hot   string
}

// repeatOp is one step of a write stream: a put, a remove, or (read >=
// 0) a scan of the case's reads[read].
type repeatOp struct {
	key, val string
	del      bool
	read     int
}

func pick(rng *rand.Rand, choices ...string) string { return choices[rng.Intn(len(choices))] }

var repeatCases = []repeatCase{
	{
		name:  "copy",
		joins: "c|<a>|<b> = copy x|<a>|<b>",
		key:   func(r *rand.Rand) string { return fmt.Sprintf("x|a%d|%d", r.Intn(4), r.Intn(10)) },
		reads: [][2]string{{"c|", "c}"}, {"c|a1|", "c|a1}"}},
		hot:   "x|a1|1",
	},
	{
		name:  "check",
		joins: timelineJoin,
		key: func(r *rand.Rand) string {
			if r.Intn(3) == 0 {
				return fmt.Sprintf("s|%s|%s", pick(r, "ann", "liz", "pat"), pick(r, "bob", "cat", "dan"))
			}
			return fmt.Sprintf("p|%s|%04d", pick(r, "bob", "cat", "dan"), r.Intn(12))
		},
		reads: [][2]string{{"t|", "t}"}, {"t|ann|", "t|ann}"}, {"t|liz|0006", "t|liz}"}},
		hot:   "s|ann|bob",
	},
	{
		name:  "count",
		joins: "karma|<author> = count vote|<author>|<id>|<voter>",
		key: func(r *rand.Rand) string {
			return fmt.Sprintf("vote|%s|a%d|u%d", pick(r, "w", "x", "y"), r.Intn(4), r.Intn(4))
		},
		reads: [][2]string{{"karma|", "karma}"}, {"karma|x", "karma|x\x00"}},
		hot:   "vote|x|a1|u1",
	},
	{
		name:  "sum",
		joins: "total|<acct> = sum txn|<acct>|<id>",
		key:   func(r *rand.Rand) string { return fmt.Sprintf("txn|%s|%d", pick(r, "a", "b"), r.Intn(10)) },
		reads: [][2]string{{"total|", "total}"}},
		hot:   "txn|a|1",
	},
	{
		name:  "min and max",
		joins: "lo|<g> = min m|<g>|<id>; hi|<g> = max m|<g>|<id>",
		key:   func(r *rand.Rand) string { return fmt.Sprintf("m|%s|%d", pick(r, "g", "h"), r.Intn(10)) },
		reads: [][2]string{{"lo|", "lo}"}, {"hi|", "hi}"}},
		hot:   "m|g|1",
	},
	{
		name: "pull",
		joins: `ct|<time>|<poster> = copy cp|<poster>|<time>;
			t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>;
			t|<user>|<time>|<poster> = pull copy ct|<time>|<poster> check s|<user>|<poster>`,
		key: func(r *rand.Rand) string {
			switch r.Intn(3) {
			case 0:
				return fmt.Sprintf("s|%s|%s", pick(r, "ann", "liz"), pick(r, "bob", "celeb"))
			case 1:
				return fmt.Sprintf("p|bob|%04d", r.Intn(12))
			}
			return fmt.Sprintf("cp|celeb|%04d", r.Intn(12))
		},
		reads: [][2]string{{"t|ann|", "t|ann}"}, {"t|liz|", "t|liz}"}, {"ct|", "ct}"}},
		hot:   "cp|celeb|0001",
	},
	{
		name:  "karma cascade",
		joins: newpJoins,
		key: func(r *rand.Rand) string {
			author, id := pick(r, "aa", "bb"), fmt.Sprintf("%02d", r.Intn(3))
			switch r.Intn(4) {
			case 0:
				return fmt.Sprintf("article|%s|%s", author, id)
			case 1:
				return fmt.Sprintf("comment|%s|%s|c%d|%s", author, id, r.Intn(3), pick(r, "aa", "bb", "cc"))
			}
			return fmt.Sprintf("vote|%s|%s|%s", author, id, pick(r, "aa", "bb", "cc"))
		},
		reads: [][2]string{{"page|", "page}"}, {"page|aa|01|", "page|aa|01}"}, {"karma|", "karma}"}},
		hot:   "vote|aa|01|bb",
	},
}

// repeatStreams returns a random write stream and the same stream with
// repeats: every put again at once with an equal value, and now and then
// a put of some key's current value. It also returns how many repeats
// it added. Values come from a small domain, so keys also change and
// change back within the stream itself.
func repeatStreams(c repeatCase, seed int64, n int) (base, repeated []repeatOp, repeats int) {
	rng := rand.New(rand.NewSource(seed))
	cur := map[string]string{}
	var present []string
	for i := 0; i < n; i++ {
		var op repeatOp
		switch x := rng.Intn(10); {
		case x < 2:
			op = repeatOp{read: rng.Intn(len(c.reads))}
		case x < 3:
			op = repeatOp{key: c.key(rng), del: true, read: -1}
		default:
			op = repeatOp{key: c.key(rng), val: pick(rng, "1", "2", "3", "5", "8"), read: -1}
		}
		base = append(base, op)
		repeated = append(repeated, op)
		switch {
		case op.read >= 0:
		case op.del:
			delete(cur, op.key)
		default:
			if _, ok := cur[op.key]; !ok {
				present = append(present, op.key)
			}
			cur[op.key] = op.val
			repeated = append(repeated, op)
			repeats++
		}
		if rng.Intn(4) == 0 && len(present) > 0 {
			k := present[rng.Intn(len(present))]
			if v, ok := cur[k]; ok {
				repeated = append(repeated, repeatOp{key: k, val: v, read: -1})
				repeats++
			}
		}
	}
	return base, repeated, repeats
}

// runRepeatStream builds an engine for c, materialises every read range,
// and applies ops.
func runRepeatStream(t *testing.T, c repeatCase, ops []repeatOp) *Engine {
	t.Helper()
	e := New(Options{})
	if err := e.InstallText(c.joins); err != nil {
		t.Fatal(err)
	}
	e.SetChangeHook(func(Change) {})
	e.Put(c.hot, "1")
	for _, r := range c.reads {
		e.Scan(r[0], r[1], 0)
	}
	for _, op := range ops {
		switch {
		case op.read >= 0:
			r := c.reads[op.read]
			e.Scan(r[0], r[1], 0)
		case op.del:
			e.Remove(op.key)
		default:
			e.Put(op.key, op.val)
		}
	}
	return e
}

// TestRepeatedWriteIsInvisible: a write of the value a key already holds
// changes nothing, so for every join kind — copy, check, count, sum, min,
// max, pull and the karma cascade — a stream with every put repeated
// ends with the rows, the bytes, the updater fires and the notifications
// of the stream without repeats, and each repeat counts as one unchanged
// write. A value that changes and changes back fires both times.
func TestRepeatedWriteIsInvisible(t *testing.T) {
	for _, c := range repeatCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				base, repeated, repeats := repeatStreams(c, seed, 1500)
				a, b := runRepeatStream(t, c, base), runRepeatStream(t, c, repeated)
				for _, r := range c.reads { // apply whatever is still lazy
					a.Scan(r[0], r[1], 0)
					b.Scan(r[0], r[1], 0)
				}
				if ra, rb := storeRows(a), storeRows(b); !reflect.DeepEqual(ra, rb) {
					t.Fatalf("seed %d: rows differ:\nwithout repeats %v\nwith repeats    %v", seed, ra, rb)
				}
				sa, sb := a.Stats(), b.Stats()
				if a.Store().Bytes() != b.Store().Bytes() {
					t.Errorf("seed %d: Bytes %d without repeats, %d with", seed, a.Store().Bytes(), b.Store().Bytes())
				}
				if sa.UpdaterFires != sb.UpdaterFires || sa.NotifiedChanges != sb.NotifiedChanges {
					t.Errorf("seed %d: fires %d, notified %d without repeats; %d, %d with",
						seed, sa.UpdaterFires, sa.NotifiedChanges, sb.UpdaterFires, sb.NotifiedChanges)
				}
				if d := sb.UnchangedWrites - sa.UnchangedWrites; d != int64(repeats) {
					t.Errorf("seed %d: %d repeats counted %d unchanged writes", seed, repeats, d)
				}
			}

			// Change, change back, repeat: two fan-outs, then none.
			e := runRepeatStream(t, c, nil)
			for i, step := range []struct {
				val       string
				fires     bool
				unchanged int64
			}{{"2", true, 0}, {"1", true, 0}, {"1", false, 1}} {
				before := e.Stats()
				e.Put(c.hot, step.val)
				after := e.Stats()
				fired := after.UpdaterFires > before.UpdaterFires && after.NotifiedChanges > before.NotifiedChanges
				unchanged := after.UnchangedWrites - before.UnchangedWrites
				if fired != step.fires || unchanged != step.unchanged {
					t.Errorf("write %d of %q = %q: fired %v, %d unchanged writes", i, c.hot, step.val, fired, unchanged)
				}
			}
		})
	}
}
