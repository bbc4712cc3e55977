package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// openT opens a store with a fast sync interval and closes it with the
// test.
func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func recovered(t *testing.T, dir string) *Recovered {
	t.Helper()
	s := openT(t, dir)
	rec, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return rec
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "a|1", "x")
	s.Append(OpPut, "a|2", "y")
	s.Append(OpPut, "a|1", "x2") // overwrite collapses
	s.Append(OpRemove, "a|2", "")
	s.Append(OpPut, "b|1", "z")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if lag := s.LagBytes(); lag != 0 {
		t.Fatalf("lag after Sync = %d, want 0", lag)
	}
	s.Close()

	rec := recovered(t, dir)
	want := []KV{{"a|1", "x2"}, {"b|1", "z"}}
	if !reflect.DeepEqual(rec.KVs, want) {
		t.Fatalf("recovered %v, want %v", rec.KVs, want)
	}
	if rec.SnapshotIndex != 0 || rec.LogRecords != 5 || rec.Torn {
		t.Fatalf("provenance = %+v, want 5 log records, no snapshot, not torn", rec)
	}
}

func TestCloseFlushesWithoutExplicitSync(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "k", "v")
	s.Close() // clean shutdown must not lose the enqueued record

	rec := recovered(t, dir)
	if !reflect.DeepEqual(rec.KVs, []KV{{"k", "v"}}) {
		t.Fatalf("recovered %v, want the record enqueued before Close", rec.KVs)
	}
}

func TestSnapshotTruncatesLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "a|1", "x")
	s.Append(OpPut, "a|2", "y")
	err := s.Snapshot(func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error {
		addKV("a|1", "x")
		addKV("a|2", "y")
		addWarm(0, "t|", "t|~")
		return nil
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Append(OpPut, "a|3", "z")
	s.Append(OpRemove, "a|1", "")
	s.Close()

	// The pre-snapshot segment must be gone.
	if _, err := os.Stat(segPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("segment 1 survived the snapshot (err=%v)", err)
	}

	rec := recovered(t, dir)
	want := []KV{{"a|2", "y"}, {"a|3", "z"}}
	if !reflect.DeepEqual(rec.KVs, want) {
		t.Fatalf("recovered %v, want %v", rec.KVs, want)
	}
	if rec.SnapshotIndex == 0 || rec.SnapshotRows != 2 {
		t.Fatalf("provenance = %+v, want snapshot with 2 rows", rec)
	}
	if !reflect.DeepEqual(rec.Warm, []Warm{{Join: 0, Lo: "t|", Hi: "t|~"}}) {
		t.Fatalf("warm = %v", rec.Warm)
	}
}

func TestTornTailStopsReplayCleanly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "a|1", "x")
	s.Append(OpPut, "a|2", "y")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	// Simulate a crash mid-write: garbage at the segment tail.
	f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x03, 0x00})
	f.Close()

	rec := recovered(t, dir)
	if !reflect.DeepEqual(rec.KVs, []KV{{"a|1", "x"}, {"a|2", "y"}}) {
		t.Fatalf("recovered %v, want intact prefix", rec.KVs)
	}
	if !rec.Torn {
		t.Fatalf("Torn = false, want true")
	}
}

func TestUncommittedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "a|1", "x")
	if err := s.Snapshot(func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error {
		addKV("a|1", "x")
		return nil
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s.Close()

	// Forge a newer snapshot missing its commit marker (a crash between
	// write and commit cannot actually leave this — rename is atomic —
	// but recovery must still reject it and fall back).
	var buf []byte
	buf = appendRecord(buf, opSnapKV, "bogus", "row")
	if err := os.WriteFile(snapPath(dir, 99), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recovered(t, dir)
	if !reflect.DeepEqual(rec.KVs, []KV{{"a|1", "x"}}) {
		t.Fatalf("recovered %v, want fallback to committed snapshot", rec.KVs)
	}
}

func TestReadRangeFiltersAndIncludesUnsynced(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "a|1", "x")
	s.Append(OpPut, "b|1", "y")
	s.Append(OpPut, "c|1", "z")
	// No explicit Sync: ReadRange must flush first.
	kvs, err := s.ReadRange("b|", "c|")
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	if !reflect.DeepEqual(kvs, []KV{{"b|1", "y"}}) {
		t.Fatalf("ReadRange = %v, want [b|1]", kvs)
	}
	// Open-ended high bound.
	kvs, err = s.ReadRange("b|", "")
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	if len(kvs) != 2 {
		t.Fatalf("ReadRange(b|, inf) = %v, want 2 rows", kvs)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, ok, err := s.LoadMeta(); err != nil || ok {
		t.Fatalf("LoadMeta on fresh store = ok=%v err=%v, want absent", ok, err)
	}
	m := &Meta{
		Name: "m0", ID: "id0", Epoch: 3, Version: 7,
		Bounds: []string{"m"}, Peers: []string{"a:1", "b:2"}, Self: []int{0},
		HasGate: true, Joins: "t|<u> = check s|<u> copy p|<u>",
		ReplicaCopies: 2,
	}
	if err := s.SaveMeta(m); err != nil {
		t.Fatalf("SaveMeta: %v", err)
	}
	got, ok, err := s.LoadMeta()
	if err != nil || !ok {
		t.Fatalf("LoadMeta: ok=%v err=%v", ok, err)
	}
	got.SavedUnixNano = 0
	m.SavedUnixNano = 0
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("LoadMeta = %+v, want %+v", got, m)
	}
}

func TestStatsReportProgress(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	st := s.Stats()
	if st.SnapshotAgeMS != -1 || st.SnapshotIndex != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
	s.Append(OpPut, "k", "v")
	if err := s.Snapshot(func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error {
		addKV("k", "v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.SnapshotIndex == 0 || st.SnapshotAgeMS < 0 {
		t.Fatalf("post-snapshot stats = %+v", st)
	}
}

func TestRecoverSurvivesManyGenerations(t *testing.T) {
	dir := t.TempDir()
	state := map[string]string{}
	for gen := 0; gen < 4; gen++ {
		s := openT(t, dir)
		rec, err := s.Recover()
		if err != nil {
			t.Fatalf("gen %d Recover: %v", gen, err)
		}
		got := map[string]string{}
		for _, kv := range rec.KVs {
			got[kv.Key] = kv.Value
		}
		if !reflect.DeepEqual(got, state) {
			t.Fatalf("gen %d recovered %v, want %v", gen, got, state)
		}
		// Mutate, sometimes snapshot, crash (Close).
		k := string(rune('a'+gen)) + "|k"
		s.Append(OpPut, k, "v")
		state[k] = "v"
		if gen%2 == 1 {
			if err := s.Snapshot(func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error {
				for k, v := range state {
					addKV(k, v)
				}
				return nil
			}); err != nil {
				t.Fatalf("gen %d Snapshot: %v", gen, err)
			}
		}
		s.Close()
	}
}

func TestOpenNeverAppendsToOldSegments(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "k", "v")
	s.Close()
	s2 := openT(t, dir)
	s2.Append(OpPut, "k2", "v2")
	s2.Close()
	ents, _ := os.ReadDir(dir)
	var segs []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".log" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 2 {
		t.Fatalf("segments = %v, want a fresh segment per open", segs)
	}
}

// Concurrent flush callers (the ticker, Sync, Snapshot's rotate) must
// write batches to the log in enqueue order — replay is
// last-record-wins, so an out-of-order batch would resurrect a stale
// value over a later acknowledged overwrite after a crash.
func TestConcurrentSyncKeepsLogInEnqueueOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir) // 2ms ticker: the flusher races the Syncs below
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Sync()
			}
		}
	}()
	const n = 4000
	for i := 0; i < n; i++ {
		s.Append(OpPut, "k", strconv.Itoa(i))
		if i%256 == 0 {
			time.Sleep(time.Millisecond) // let ticker and Sync interleave
		}
	}
	close(done)
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	rec := recovered(t, dir)
	if len(rec.KVs) != 1 || rec.KVs[0].Value != strconv.Itoa(n-1) {
		t.Fatalf("recovered %v, want the final overwrite %q", rec.KVs, strconv.Itoa(n-1))
	}
}

// SaveMeta is called concurrently from RPC handlers, the snapshot
// loop, and Close; racing saves must never rename a torn file into
// meta.json (LoadMeta failure used to be fatal at restart).
func TestSaveMetaConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := &Meta{Name: "m", Epoch: int64(g*1000 + i), Joins: "twitter join a|<x> = b|<x>"}
				if err := s.SaveMeta(m); err != nil {
					t.Errorf("SaveMeta: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m, ok, err := s.LoadMeta()
	if err != nil || !ok || m.Name != "m" {
		t.Fatalf("LoadMeta after concurrent saves = %+v ok=%v err=%v", m, ok, err)
	}
}

// A crash mid-snapshot or mid-meta-save leaves *.tmp files behind;
// Open must delete them, and scanDir must not mis-parse them as
// committed lineage entries (burning a snapshot index per restart).
func TestOpenRemovesAndIgnoresStrayTmpFiles(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "k", "v")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()
	strays := []string{"snap-00000007.snap.tmp", "wal-00000009.log.tmp", "meta.json.tmp"}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}

	s2 := openT(t, dir)
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stray %s survived Open", name)
		}
	}
	if st := s2.Stats(); st.SegmentIndex >= 7 {
		t.Fatalf("segment index %d, want lineage unaffected by stray tmp names", st.SegmentIndex)
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !reflect.DeepEqual(rec.KVs, []KV{{"k", "v"}}) {
		t.Fatalf("recovered %v, want the pre-crash row", rec.KVs)
	}
}
