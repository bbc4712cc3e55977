package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
)

// gatedPool builds a single-shard pool gated as owner `self` of a
// two-owner cluster split at "m".
func gatedPool(t *testing.T, self int, peers []string) *Pool {
	t.Helper()
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.ApplyMapUpdate(viewAt(t, 0, 0, "m", peers, self))
	return p
}

// viewAt builds the view of a two-owner cluster split at bound, held by
// the process serving the self owner indexes.
func viewAt(t *testing.T, epoch, version int64, bound string, peers []string, self ...int) *partition.View {
	t.Helper()
	v, err := partition.Wire{Epoch: epoch, Version: version, Bounds: []string{bound}, Peers: peers, Self: self}.View()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGateEpochTieBreak: two same-version maps minted by different
// coordinators are ordered by epoch — the higher epoch wins adoption,
// and the loser's splice fails with a version conflict instead of
// silently forking the partition.
func TestGateEpochTieBreak(t *testing.T) {
	peers := []string{"a:1", "a:2"}
	p := gatedPool(t, 1, peers)
	p.Put("x1", "v1")

	// Winner: epoch 20, version 1 — a direct successor of the gate's
	// (0, 0) map, accepted.
	winner := viewAt(t, 20, 1, "q", peers, 1)
	if _, err := p.ExtractClusterRange(keys.Range{Lo: "m", Hi: "q"}, winner); err != nil {
		t.Fatalf("winner's extract: %v", err)
	}
	// Loser: epoch 10, version 1, different bounds — older in the total
	// order, so the splice is a version conflict carrying the winner's
	// map.
	loser := viewAt(t, 10, 1, "t", peers, 1)
	err := p.SpliceClusterRange(coreRangeState("m", "t"), loser)
	var noe *partition.NotOwnerError
	if !errors.As(err, &noe) {
		t.Fatalf("loser's splice = %v, want NotOwnerError", err)
	}
	if m := noe.View.Map(); m.Epoch() != 20 || m.Version() != 1 {
		t.Fatalf("conflict carries e%d v%d, want e20 v1", m.Epoch(), m.Version())
	}
	// An exact retry of the winner's own map is idempotent, a different
	// same-position map is not.
	if err := p.SpliceClusterRange(coreRangeState("m", "q"), winner); err != nil {
		t.Fatalf("exact same-map splice retry: %v", err)
	}
	tie := viewAt(t, 20, 1, "r", peers, 1)
	if err := p.SpliceClusterRange(coreRangeState("m", "r"), tie); !errors.As(err, &noe) {
		t.Fatalf("same-position different-bounds splice accepted: %v", err)
	}
}

// TestRetainedExtractionLifecycle: extracted rows are retained until a
// published map confirms the destination serves them; a map that hands
// the range back without a splice restores them instead. Each side of a
// transfer counts it in the stat's migration block.
func TestRetainedExtractionLifecycle(t *testing.T) {
	const copyJoin = "c|<x> = copy a|<x>" // output inside [b0, m), source below it
	peers := []string{"a:1", "a:2"}
	p := gatedPool(t, 0, peers)
	if err := p.InstallText(copyJoin); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Put(fmt.Sprintf("b%d", i), fmt.Sprintf("v%d", i))
	}
	p.Put("a|1", "x")
	if n := p.Count("c|", "c}"); n != 1 { // a computed range to arrive warm
		t.Fatalf("computed %d rows", n)
	}
	// Extract [b0, m): the rows leave the engine but a copy is retained.
	next := viewAt(t, 5, 1, "b0", peers, 0)
	rs, err := p.ExtractClusterRange(keys.Range{Lo: "b0", Hi: "m"}, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.KVs) != 5 || len(rs.Warm) != 1 {
		t.Fatalf("extracted %d rows and %d warm ranges", len(rs.KVs), len(rs.Warm))
	}
	if st := p.RetainedStats(); st.Entries != 1 || st.Rows != 5 {
		t.Fatalf("retained stats after extract = %+v", st)
	}
	// The destination splices it: one migration on each side, the rows
	// counted where they left, the warm ranges where they were rebuilt.
	dst := gatedPool(t, 1, peers)
	if err := dst.InstallText(copyJoin); err != nil {
		t.Fatal(err)
	}
	if err := dst.SpliceClusterRange(rs, viewAt(t, 5, 1, "b0", peers, 1)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		side      string
		got, want MigrationStats
	}{
		{"source", p.MigrationStats(), MigrationStats{Migrations: 1, KeysMoved: int64(len(rs.KVs))}},
		{"destination", dst.MigrationStats(), MigrationStats{Migrations: 1, WarmMoved: int64(len(rs.Warm))}},
	} {
		if c.got != c.want {
			t.Errorf("%s migration stats = %+v, want %+v", c.side, c.got, c.want)
		}
	}
	// Republishing the exact map (the coordinator's post-splice publish)
	// confirms and drops the copy.
	p.ApplyMapUpdate(next)
	if st := p.RetainedStats(); st.Entries != 0 {
		t.Fatalf("retained not confirmed by exact publish: %+v", st)
	}

	// Hand the range back (via a splice, the normal return path), write
	// fresh rows, and extract again — but this time the transfer is
	// never confirmed: a newer map hands the range straight back (the
	// coordinator reverted, or a competing coordinator won), and the
	// retained rows must be restored.
	ret := viewAt(t, 5, 2, "m", peers, 0)
	if err := p.SpliceClusterRange(coreRangeState("b0", "m"), ret); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Put(fmt.Sprintf("b%d", i), fmt.Sprintf("v%d", i))
	}
	next2 := viewAt(t, 5, 3, "b0", peers, 0)
	if _, err := p.ExtractClusterRange(keys.Range{Lo: "b0", Hi: "m"}, next2); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get("b3"); ok {
		t.Fatal("extracted row still readable at the source")
	}
	back := viewAt(t, 5, 4, "m", peers, 0)
	p.ApplyMapUpdate(back)
	if st := p.RetainedStats(); st.Entries != 0 {
		t.Fatalf("retained entry not consumed by the restore: %+v", st)
	}
	for i := 0; i < 5; i++ {
		if v, ok := p.Get(fmt.Sprintf("b%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("row b%d not restored: %q %v", i, v, ok)
		}
	}
}

// TestRetainedRestoreKeepsNewerWrites: a restore must not clobber a row
// written after the extraction (the engine's copy is newer than the
// retained one).
func TestRetainedRestoreKeepsNewerWrites(t *testing.T) {
	peers := []string{"a:1", "a:2"}
	p := gatedPool(t, 0, peers)
	p.Put("b1", "old")
	next := viewAt(t, 5, 1, "b0", peers, 0)
	if _, err := p.ExtractClusterRange(keys.Range{Lo: "b0", Hi: "m"}, next); err != nil {
		t.Fatal(err)
	}
	// A fresher value arrives while the range is away (a splice-back of
	// newer data, simulated via a direct engine write).
	p.shards[0].ApplyBatch([]core.Change{{Op: core.OpPut, Key: "b1", Value: "newer"}})
	back := viewAt(t, 5, 2, "m", peers, 0)
	p.ApplyMapUpdate(back)
	if v, ok := p.Get("b1"); !ok || v != "newer" {
		t.Fatalf("restore clobbered a newer write: %q %v", v, ok)
	}
}

// TestMapUpdateDemotesLostRange: a strictly newer map that takes a range
// away *without* an extraction (a competing coordinator's map won) must
// not destroy the only copy — the rows are demoted to the retained
// buffer and restored if a later map hands the range back.
func TestMapUpdateDemotesLostRange(t *testing.T) {
	peers := []string{"a:1", "a:2"}
	p := gatedPool(t, 0, peers)
	p.Put("c1", "v1")
	p.Put("c2", "v2")
	// A newer map moves [c0, m) to the other member, with no extraction.
	taken := viewAt(t, 7, 1, "c0", peers, 0)
	p.ApplyMapUpdate(taken)
	if st := p.RetainedStats(); st.Entries != 1 || st.Rows != 2 {
		t.Fatalf("lost range not demoted: %+v", st)
	}
	// Operations on the demoted range bounce.
	if err := p.Put("c1", "x"); err == nil {
		t.Fatal("write accepted for a range this map lost")
	}
	// A later map hands it back: restored.
	back := viewAt(t, 7, 2, "m", peers, 0)
	p.ApplyMapUpdate(back)
	for _, k := range []string{"c1", "c2"} {
		if v, ok := p.Get(k); !ok || v == "" {
			t.Fatalf("demoted row %s not restored: %q %v", k, v, ok)
		}
	}
}

// coreRangeState builds an empty extracted state for [lo, hi).
func coreRangeState(lo, hi string) core.RangeState {
	return core.RangeState{R: keys.Range{Lo: lo, Hi: hi}}
}

// TestMemberNeedsOneEngine: the entry points only a server member calls
// — its gate, loaders, feeds and durable store — panic with a message
// naming the call on a multi-engine pool (an embedded Cache has none of
// them), and work on the one engine every member is.
func TestMemberNeedsOneEngine(t *testing.T) {
	peers := []string{"a:1", "a:2"}
	kv := []core.KV{{Key: "a", Value: "1"}}
	// Each call runs against a member gated as owner 0 of [-inf, m).
	calls := map[string]func(p *Pool) error{
		"ApplyMapUpdate": func(p *Pool) error { p.ApplyMapUpdate(viewAt(t, 1, 1, "m", peers, 0)); return nil },
		"ExtractClusterRange": func(p *Pool) error {
			_, err := p.ExtractClusterRange(keys.Range{Lo: "b", Hi: "m"}, viewAt(t, 0, 1, "b", peers, 0))
			return err
		},
		"SpliceClusterRange": func(p *Pool) error {
			return p.SpliceClusterRange(coreRangeState("m", "t"), viewAt(t, 0, 1, "t", peers, 0))
		},
		"DropRangeAll":    func(p *Pool) error { p.DropRangeAll(keys.Range{Lo: "a", Hi: "b"}); return nil },
		"Shard.SetLoader": func(p *Pool) error { p.Shard(0).SetLoader(&homeLoader{}, "s"); return nil },
		"Hold": func(p *Pool) error {
			p.Hold(keys.Range{Lo: "n", Hi: "t"}, []core.KV{{Key: "n1", Value: "1"}})
			return nil
		},
		"SnapshotDurable": func(p *Pool) error {
			p.SnapshotDurable(func(k, v string) {}, func(int, string, string) {})
			return nil
		},
		"RestoreDurable": func(p *Pool) error { p.RestoreDurable(kv); return nil },
		"StalenessDebt":  func(p *Pool) error { p.StalenessDebt(); return nil },
		"RebuildWarm": func(p *Pool) error {
			p.RebuildWarm([]core.WarmRange{{R: keys.Range{Lo: "a", Hi: "b"}}})
			return nil
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			if err := call(gatedPool(t, 0, peers)); err != nil {
				t.Fatalf("on one engine: %v", err)
			}
			multi := newPool(t, Config{Shards: 2})
			defer func() {
				msg, _ := recover().(string)
				if want := "shard: " + name + " is member-only and needs a one-engine pool"; !strings.HasPrefix(msg, want) {
					t.Fatalf("on two engines: panic %q, want %q", msg, want)
				}
			}()
			call(multi)
		})
	}
}

// TestGateChecksDoNotAllocate: the per-operation ownership check — one
// atomic load, one Owner lookup, one slice index — costs an owned
// operation no allocation, for a key and for a range spanning several
// self-owned owner indexes.
func TestGateChecksDoNotAllocate(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	v, err := partition.Wire{Bounds: []string{"g", "p", "t|"}, Peers: []string{"a:1", "a:2", "a:2", "a:1"}, Self: []int{1, 2}}.View()
	if err != nil {
		t.Fatal(err)
	}
	p.ApplyMapUpdate(v)
	g := p.Gate()
	key, r := "p|bob|0000000100", keys.Range{Lo: "h", Hi: "s|zed}"}
	if !g.Owns(key) || !g.OwnsRange(r) {
		t.Fatal("gate bounced what it owns")
	}
	if g.Owns("a") || g.OwnsRange(keys.Range{Lo: "h", Hi: "u"}) {
		t.Fatal("gate let through what it does not own")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if g := p.Gate(); !g.Owns(key) || !g.OwnsRange(r) {
			panic("owned operation bounced")
		}
	}); n != 0 {
		t.Fatalf("gate checks allocate %v times per operation", n)
	}
}
