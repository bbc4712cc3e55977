package experiments

import (
	"io"
	"runtime"
	"testing"
)

// The experiment harness tests run at Tiny scale and assert the *shape*
// of each result — who wins, where crossovers sit — not absolute numbers.

// perfShape gates the timing/throughput shape assertions: they hold on
// an idle multi-core machine (the paper's setting) but not under the
// race detector's non-uniform slowdown or on 1-2 core boxes, where
// multi-server/multi-worker runs can't beat single ones and tiny-scale
// runtimes are dominated by scheduling noise. Structural assertions
// (RPC counts, memory, row shapes) always run.
var perfShape = !raceEnabled && runtime.GOMAXPROCS(0) >= 4

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := Fig7(Tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.System] = r
	}
	// Robust shape assertions at tiny scale (runtimes of the three fast
	// caches are within transport noise of each other here; see DESIGN.md
	// "Evaluation"). Runtime-based assertions are skipped under the race
	// detector, whose slowdown is non-uniform across systems.
	if perfShape {
		// 1. "Pequod performs no worse than widely available key-value
		//    caches" — within a noise margin of the fastest system. The
		// margin is generous because the full test suite runs packages in
		// parallel and tiny-scale runtimes are ~100ms; `cmd/repro -scale
		// small` on an idle machine gives the meaningful ratios (its
		// output is the record to compare with the paper's).
		fastest := rows[0].Runtime
		for _, r := range rows {
			if r.Runtime < fastest {
				fastest = r.Runtime
			}
		}
		if byName["Pequod"].Runtime.Seconds() > fastest.Seconds()*2.5 {
			t.Errorf("Pequod (%v) much slower than fastest (%v)", byName["Pequod"].Runtime, fastest)
		}
		// 2. The relational database trails the caches (paper: 9.55x).
		if byName["PostgreSQL"].Runtime <= byName["Redis"].Runtime {
			t.Errorf("PostgreSQL (%v) should be slower than Redis (%v)",
				byName["PostgreSQL"].Runtime, byName["Redis"].Runtime)
		}
	}
	// 3. "client Pequod makes many more RPCs" (§5.2) — deterministic.
	if byName["Client Pequod"].RPCs < byName["Pequod"].RPCs*3/2 {
		t.Errorf("client Pequod RPCs (%d) should far exceed Pequod's (%d)",
			byName["Client Pequod"].RPCs, byName["Pequod"].RPCs)
	}
	// 4. Redis's client-managed model also amplifies RPCs vs Pequod.
	if byName["Redis"].RPCs <= byName["Pequod"].RPCs {
		t.Errorf("Redis RPCs (%d) should exceed Pequod's (%d)",
			byName["Redis"].RPCs, byName["Pequod"].RPCs)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := Fig8(Tiny, []int{5, 50}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	get := func(strategy string, pct int) Fig8Row {
		for _, r := range rows {
			if r.Strategy == strategy && r.ActivePct == pct {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", strategy, pct)
		return Fig8Row{}
	}
	// At high check rates materialization must beat recompute-per-read.
	if perfShape && get("Dynamic materialization", 50).Runtime >= get("No materialization", 50).Runtime {
		t.Error("dynamic should beat no-materialization at 50% active")
	}
	// Dynamic uses no more memory than full (it materializes a subset).
	if get("Dynamic materialization", 5).Bytes > get("Full materialization", 5).Bytes {
		t.Error("dynamic should use less memory than full at 5% active")
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := Fig9(Tiny, []int{10}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	get := func(strategy string) Fig9Row {
		for _, r := range rows {
			if r.Strategy == strategy {
				return r
			}
		}
		t.Fatalf("missing %s", strategy)
		return Fig9Row{}
	}
	// "interleaved cache joins are superior for most vote rates" (§5.4):
	// at a 10% vote rate interleaved must win.
	if perfShape && get("Interleaved").Runtime >= get("Non-interleaved").Runtime {
		t.Errorf("interleaved (%v) should beat non-interleaved (%v) at low vote rates",
			get("Interleaved").Runtime, get("Non-interleaved").Runtime)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := Fig10(Tiny, []int{1, 2}, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More compute servers must not lose throughput dramatically; the
	// paper sees 3x at 4x servers. At tiny scale we only require
	// non-collapse (>= 0.9x) and successful distributed execution.
	if perfShape && rows[1].QPS < rows[0].QPS*0.9 {
		t.Errorf("scaling collapsed: 1 server %.0f qps, 2 servers %.0f qps", rows[0].QPS, rows[1].QPS)
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := AblationValueSharing(Tiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// §4.3: sharing reduces memory.
	if rows[1].Bytes >= rows[0].Bytes {
		t.Errorf("value sharing did not reduce memory: %d vs %d", rows[1].Bytes, rows[0].Bytes)
	}
	if _, err := AblationOutputHints(Tiny, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"tiny", "small", "medium"} {
		if _, err := ScaleByName(n); err != nil {
			t.Errorf("ScaleByName(%q): %v", n, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}
