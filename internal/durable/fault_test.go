package durable

// Fault-injection suite for the durable layer: a failpoint writer
// wraps the segment file so tests can inject short writes, write
// errors, and fsync failures at exact points, plus direct on-disk bit
// flips and simulated crash states (tmp files left behind, uncommitted
// snapshots), driving replay and scrub assertions.

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected fault")

// faultPlan is programmable failure state shared by every segment file
// the store opens — rotation replaces the file but keeps the plan, so
// a persistent-failure scenario keeps failing across rotations.
type faultPlan struct {
	mu          sync.Mutex
	shortWrites int  // next N writes land half their bytes, then error
	failWrites  int  // next N writes fail outright
	failSyncs   int  // next N fsyncs fail (write succeeds)
	failAll     bool // every write fails, regardless of counters
}

func (fp *faultPlan) set(f func(*faultPlan)) {
	fp.mu.Lock()
	f(fp)
	fp.mu.Unlock()
}

// faultFile wraps a segment file, consulting the shared plan on every
// operation.
type faultFile struct {
	f    *os.File
	plan *faultPlan
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.plan.mu.Lock()
	short := ff.plan.shortWrites > 0
	if short {
		ff.plan.shortWrites--
	}
	fail := ff.plan.failAll || ff.plan.failWrites > 0
	if ff.plan.failWrites > 0 {
		ff.plan.failWrites--
	}
	ff.plan.mu.Unlock()
	if short {
		n, _ := ff.f.Write(p[:len(p)/2])
		return n, fmt.Errorf("short write: %w", errInjected)
	}
	if fail {
		return 0, errInjected
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.plan.mu.Lock()
	fail := ff.plan.failSyncs > 0
	if fail {
		ff.plan.failSyncs--
	}
	ff.plan.mu.Unlock()
	if fail {
		return fmt.Errorf("fsync: %w", errInjected)
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error { return ff.f.Truncate(size) }
func (ff *faultFile) Close() error              { return ff.f.Close() }

// faultStore opens a store whose every segment file is wrapped with
// the returned plan. The sync interval is effectively infinite so the
// only flushes are the test's explicit Sync calls — each one is
// exactly one write attempt, which keeps retry-budget scenarios
// deterministic.
func faultStore(t *testing.T, dir string) (*Store, *faultPlan) {
	t.Helper()
	plan := &faultPlan{}
	s, err := OpenWith(dir, Options{
		SyncEvery: time.Hour,
		wrapSeg: func(_ int64, f *os.File) segFile {
			return &faultFile{f: f, plan: plan}
		},
	})
	if err != nil {
		t.Fatalf("OpenWith: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, plan
}

// Regression for the tentpole bug: a short write used to leave torn
// bytes mid-segment with the store still appending behind them, so
// every later fsynced batch was silently walled off at replay. The
// store must rotate to a fresh segment and the good batch written
// after the fault must replay.
func TestFlushRotatesAfterShortWrite(t *testing.T) {
	dir := t.TempDir()
	s, plan := faultStore(t, dir)
	plan.set(func(p *faultPlan) { p.shortWrites = 1 })
	s.Append(OpPut, "a", "1")
	s.Sync() //nolint:errcheck // fails: short write leaves a torn half-batch

	// The fault is one-shot, so the retried batch plus this one land on
	// the rotated segment.
	s.Append(OpPut, "b", "2")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after fault cleared: %v", err)
	}
	st := s.Stats()
	if st.FailedRotations == 0 {
		t.Fatalf("stats = %+v, want a failed-write rotation", st)
	}
	if st.PendingRecords != 0 || st.Dropped != 0 || st.Err != "" {
		t.Fatalf("stats = %+v, want no pending, no drops, no sticky error", st)
	}
	s.Close()

	rec := recovered(t, dir)
	want := []KV{{"a", "1"}, {"b", "2"}}
	if !reflect.DeepEqual(rec.KVs, want) {
		t.Fatalf("recovered %v, want %v — the batch after the short write must replay", rec.KVs, want)
	}
	if len(rec.CorruptSegments) != 0 {
		t.Fatalf("corrupt segments %v, want none: the torn half-batch must be truncated away", rec.CorruptSegments)
	}
}

func TestFlushRetriesTransientFailure(t *testing.T) {
	dir := t.TempDir()
	s, plan := faultStore(t, dir)
	plan.set(func(p *faultPlan) { p.failWrites = 2 })
	s.Append(OpPut, "k", "v")
	if err := s.Sync(); err == nil {
		t.Fatal("Sync = nil during injected failure, want the error while the batch is pending")
	}
	st := s.Stats()
	if st.PendingRecords == 0 {
		t.Fatalf("stats = %+v, want pending records while retrying", st)
	}
	if st.Dropped != 0 {
		t.Fatalf("stats = %+v, want no drops — the batch must be retried, not abandoned", st)
	}
	// Each Sync is one retry attempt; the second consumes the last
	// injected failure and the third lands the batch.
	var err error
	for i := 0; i < 5 && (i == 0 || err != nil); i++ {
		err = s.Sync()
	}
	if err != nil {
		t.Fatalf("Sync after faults drained: %v", err)
	}
	st = s.Stats()
	if st.PendingRecords != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want batch landed with no drops", st)
	}
	s.Close()
	rec := recovered(t, dir)
	if !reflect.DeepEqual(rec.KVs, []KV{{"k", "v"}}) {
		t.Fatalf("recovered %v, want the retried batch", rec.KVs)
	}
}

func TestFlushDropsAfterRetryBudget(t *testing.T) {
	dir := t.TempDir()
	s, plan := faultStore(t, dir)
	plan.set(func(p *faultPlan) { p.failAll = true })
	s.Append(OpPut, "k", "v")
	for i := 0; i < maxFlushRetries+5; i++ {
		s.Sync() //nolint:errcheck // draining the budget
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatalf("stats = %+v, want the batch dropped once the retry budget exhausts", st)
	}
	if st.PendingRecords != 0 {
		t.Fatalf("stats = %+v, want nothing pending after the drop", st)
	}
	if st.Err == "" {
		t.Fatalf("stats = %+v, want the failure recorded", st)
	}
	if lag := s.LagBytes(); lag != 0 {
		t.Fatalf("lag = %d after drop, want 0", lag)
	}
}

func TestFsyncFailureKeepsBatchPending(t *testing.T) {
	dir := t.TempDir()
	s, plan := faultStore(t, dir)
	plan.set(func(p *faultPlan) { p.failSyncs = 1 })
	s.Append(OpPut, "k", "v")
	if err := s.Sync(); err == nil {
		t.Fatal("Sync = nil when fsync failed, want the error")
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after fsync fault cleared: %v", err)
	}
	s.Close()
	rec := recovered(t, dir)
	if !reflect.DeepEqual(rec.KVs, []KV{{"k", "v"}}) {
		t.Fatalf("recovered %v, want the batch whose first fsync failed", rec.KVs)
	}
	// The fsync-failed bytes were truncated and rewritten on the
	// rotated segment; both copies replaying would still be idempotent,
	// but the lineage must at least be undamaged.
	if len(rec.CorruptSegments) != 0 {
		t.Fatalf("corrupt segments %v, want none", rec.CorruptSegments)
	}
}

// flipByteInFrame flips one payload byte of the first frame of the
// file, breaking its CRC without truncating anything.
func flipByteInFrame(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if len(data) <= frameHeader {
		t.Fatalf("%s too short to corrupt (%d bytes)", path, len(data))
	}
	data[frameHeader] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// threeGenerations builds a lineage of two sealed segments plus the
// current one: gen1 writes a/b into segment 1, gen2 writes c/d into
// segment 2, and the returned open store appends to segment 3.
func threeGenerations(t *testing.T, dir string) *Store {
	t.Helper()
	for gen, kvs := range [][2]string{{"a", "b"}, {"c", "d"}} {
		s := openT(t, dir)
		s.Append(OpPut, kvs[0], fmt.Sprint(gen))
		s.Append(OpPut, kvs[1], fmt.Sprint(gen))
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync gen%d: %v", gen, err)
		}
		s.Close()
	}
	return openT(t, dir)
}

func TestRecoverSplitsTornFromCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := threeGenerations(t, dir)
	s.Close()

	// A bit flip in segment 1 — two generations back — is mid-lineage
	// damage: the next store's crash segment is segment 2, so the flip
	// must land in CorruptSegments, not Torn.
	flipByteInFrame(t, segPath(dir, 1))
	rec := recovered(t, dir)
	if rec.Torn {
		t.Fatalf("recovered %+v: mid-lineage damage misreported as a crash tail", rec)
	}
	if !reflect.DeepEqual(rec.CorruptSegments, []int64{1}) {
		t.Fatalf("corrupt segments %v, want [1]", rec.CorruptSegments)
	}
	// Replay proceeds over the hole: segment 1's suffix is lost but
	// segment 2's records survive.
	if !reflect.DeepEqual(rec.KVs, []KV{{"c", "1"}, {"d", "1"}}) {
		t.Fatalf("recovered %v, want segment 2's records despite segment 1's damage", rec.KVs)
	}
}

func TestRecoverTreatsCrashTailAsTornAndHealsIt(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "k", "v")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()
	// Simulate the crash window: garbage appended to what was the
	// newest segment.
	f, err := os.OpenFile(segPath(dir, 1), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	f.Write([]byte{0xff, 0x03, 0x00}) //nolint:errcheck
	f.Close()

	rec := recovered(t, dir)
	if !rec.Torn || len(rec.CorruptSegments) != 0 {
		t.Fatalf("recovered %+v, want Torn with no corrupt segments: the final segment's tail is the expected crash window", rec)
	}
	if !reflect.DeepEqual(rec.KVs, []KV{{"k", "v"}}) {
		t.Fatalf("recovered %v, want the pre-tear record", rec.KVs)
	}

	// Recover truncates the tail, so the next generation sees a clean
	// lineage — Torn was that restart's observation, not a permanent
	// stain.
	rec2 := recovered(t, dir)
	if rec2.Torn || len(rec2.CorruptSegments) != 0 {
		t.Fatalf("second recovery %+v, want the healed tail to replay clean", rec2)
	}
}

func TestScrubDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := threeGenerations(t, dir)
	flipByteInFrame(t, segPath(dir, 1))
	if err := s.Scrub(); err == nil {
		t.Fatal("Scrub = nil over a flipped frame, want an error")
	}
	st := s.Stats()
	if !reflect.DeepEqual(st.CorruptSegments, []int64{1}) {
		t.Fatalf("stats corrupt segments = %v, want [1]", st.CorruptSegments)
	}
	if st.ScrubRuns == 0 {
		t.Fatalf("stats = %+v, want the scrub pass counted", st)
	}
}

func TestScrubDetectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Append(OpPut, "k", "v")
	err := s.Snapshot(func(addKV func(k, v string), _ func(join int, lo, hi string)) error {
		addKV("k", "v")
		return nil
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	flipByteInFrame(t, snapPath(dir, 2))
	if err := s.Scrub(); err == nil {
		t.Fatal("Scrub = nil over a flipped snapshot, want an error")
	}
	st := s.Stats()
	if !reflect.DeepEqual(st.CorruptSnapshots, []int64{2}) {
		t.Fatalf("stats corrupt snapshots = %v, want [2]", st.CorruptSnapshots)
	}
}

func TestScrubIgnoresHealthyLineage(t *testing.T) {
	dir := t.TempDir()
	s := threeGenerations(t, dir)
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub over a healthy lineage: %v", err)
	}
	st := s.Stats()
	if len(st.CorruptSegments) != 0 || len(st.CorruptSnapshots) != 0 {
		t.Fatalf("stats = %+v, want no damage on a healthy lineage", st)
	}
}

func TestScrubDamageClearsWhenFilePruned(t *testing.T) {
	dir := t.TempDir()
	s := threeGenerations(t, dir)
	flipByteInFrame(t, segPath(dir, 1))
	s.Scrub() //nolint:errcheck
	if st := s.Stats(); len(st.CorruptSegments) == 0 {
		t.Fatalf("stats = %+v, want the flip detected first", st)
	}
	// A snapshot prunes every older segment — including the damaged one.
	err := s.Snapshot(func(addKV func(k, v string), _ func(join int, lo, hi string)) error {
		addKV("k", "v")
		return nil
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub after prune: %v", err)
	}
	if st := s.Stats(); len(st.CorruptSegments) != 0 {
		t.Fatalf("stats = %+v, want damage cleared once the lineage no longer includes the file", st)
	}
}
