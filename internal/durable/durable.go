// Package durable is the per-member durable range store: an
// append-only write-behind log plus periodic snapshots, so a restarted
// member comes back with its gate, joins, and serving data warm instead
// of cold-loading everything through the mesh.
//
// The contract with the hot path is strict: Append only enqueues into
// an in-memory buffer (one mutexed slice append — it is called under a
// shard lock and must never touch the disk). A flusher goroutine drains
// the buffer on a configurable interval, writing one batched, CRC-framed
// write per tick and fsyncing it. Writes acknowledged inside the last
// un-synced interval are the exposure window; everything older survives
// a crash.
//
// A failed or short batch write never strands later batches behind torn
// bytes: the store truncates the segment back to its last known-good
// length (best effort), rotates to a fresh segment, and holds the batch
// for bounded retry across later flush ticks — the ticker is the
// backoff. Only when the retry budget exhausts is the batch dropped and
// counted; until then Sync keeps returning the failure so callers know
// acknowledged writes are not yet durable.
//
// Snapshots bound replay and truncate the log. The protocol is
// rotate-first: flush and fsync the current segment, open segment K,
// then capture state S (the caller scans its shards under their locks)
// and commit it as snap-K. Replay = S + every segment with index >= K.
// The rotation order makes this correct without a global pause: a write
// enqueued before the rotation went to a segment < K, and — because
// Append runs under the same shard lock as the store mutation — its
// effect is visible to the later lock-holding scan, so it is in S. A
// write enqueued after the rotation is in segment K and replays over S;
// re-applying records the scan already saw is idempotent because replay
// reduces to last-record-wins per key. Commit is tmp+fsync+rename with
// a trailing commit marker, so a crash mid-snapshot leaves the previous
// snapshot+segments lineage intact; only a committed snapshot prunes.
//
// Between snapshots, compaction (compact.go) rewrites sealed segments
// whose live-record ratio dropped below a threshold, and a scrub loop
// (scrub.go) CRC-walks the committed lineage so mid-lineage damage is
// noticed while the replica copies that could repair it still exist —
// not at the restart that needed the bytes.
//
// Alongside log and snapshots sits meta.json (atomic tmp+rename): the
// member's cluster position — partition map, peers, self set, installed
// join text, replica copy count — persisted on every membership event
// and on drain, so a restarted member re-gates itself, and so re-wires
// its mesh, before serving a single key. Rekey rewrites that
// identity in place, the first step of restoring a dead member's
// lineage on a new address.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Op codes for log records. Values are on-disk format — append only.
const (
	OpPut    = byte(1)
	OpRemove = byte(2)
)

// DefaultSyncInterval paces the flusher when the server config leaves
// it zero: small enough that the unsynced exposure window is a blink,
// large enough that fsync cost amortizes over many writes.
const DefaultSyncInterval = 25 * time.Millisecond

// maxFlushRetries bounds how many flush ticks a failed batch is held
// for retry before it is dropped and counted. The ticker paces the
// retries, so the budget is also the backoff: with the default sync
// interval it spans about a second of persistent failure.
const maxFlushRetries = 40

// segFile is the store's view of an open segment: what flush and
// rotation need from *os.File, narrow enough for fault-injection tests
// to wrap with programmable failures.
type segFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Options configures a Store beyond the directory.
type Options struct {
	// SyncEvery paces the write-behind flusher (0 = DefaultSyncInterval).
	SyncEvery time.Duration
	// ScrubEvery paces the background CRC scrub over committed segments
	// and snapshots (0 = no scrubbing). See Scrub.
	ScrubEvery time.Duration
	// CompactEvery paces background log compaction (0 = no compaction).
	// See Compact.
	CompactEvery time.Duration

	// wrapSeg, when non-nil (fault-injection tests), wraps every segment
	// file the store opens for appending.
	wrapSeg func(idx int64, f *os.File) segFile
}

// Store is one member's durable store rooted at a directory.
type Store struct {
	dir       string
	syncEvery time.Duration
	wrapSeg   func(idx int64, f *os.File) segFile

	// Records are framed into buf at Append time: a pointer-free byte
	// buffer costs the GC nothing to scan and, unlike holding the
	// caller's key/value strings until the next flush, does not extend
	// their lifetime across collections — on the measured write path
	// that retention was the durability overhead, not the I/O.
	mu    sync.Mutex // guards buf, nrec, spare, and lag
	buf   []byte     // framed records pending flush
	nrec  int        // records in buf
	spare []byte     // recycled batch buffer, nil while a flush holds it
	lag   int64      // bytes enqueued but not yet fsynced

	// flushMu serializes entire flushes — batch swap through fsync — so
	// concurrent flush callers (ticker, Snapshot, Sync) cannot write
	// batches to the log out of enqueue order, and a Sync that finds the
	// buffer empty has necessarily waited for the in-flight batch to
	// reach disk. It also serializes segment rotation (Snapshot's
	// rotate-first step and the rotate-after-failed-write path), and it
	// alone guards the failed-batch retry state below. Ordered before mu
	// and fmu; never held by Append.
	flushMu      sync.Mutex
	pending      []byte // batch whose write failed, held for retry
	pendingRec   int    // records in pending
	pendingTries int    // flush attempts this batch has failed

	fmu      sync.Mutex // file state: current segment, rotation, reads
	seg      segFile
	segIdx   int64
	segBytes int64

	// crashSeg is the newest segment that existed when this store
	// opened — the only segment whose torn tail is the expected crash
	// window rather than mid-lineage damage. Recover truncates that
	// tail away so later generations (and the scrub) see a clean file.
	crashSeg int64

	metaMu sync.Mutex // serializes SaveMeta (fixed tmp path + rename)

	snapMu   sync.Mutex // serializes snapshots and compaction
	snapIdx  int64      // newest committed snapshot index (0 = none)
	lastSnap time.Time  // commit time of that snapshot

	emu       sync.Mutex // guards err, dropped, pendingN, rotations
	err       error      // most recent persistence failure, for stats
	dropped   int64      // records dropped because flush retries exhausted
	pendingN  int64      // records currently held for flush retry
	rotations int64      // segments rotated away after failed writes

	// maintMu guards the scrub and compaction bookkeeping (scrub.go,
	// compact.go).
	maintMu      sync.Mutex
	scrubRuns    int64
	lastScrub    time.Time
	corruptSegs  map[int64]bool
	corruptSnaps map[int64]bool
	compactions  int64
	reclaimed    int64

	stop      chan struct{}
	done      chan struct{}
	mdone     chan struct{} // nil when no maintenance loop runs
	closeOnce sync.Once
}

// Open opens (creating if needed) the durable store in dir and starts
// its flusher. Existing log segments and snapshots are left in place
// for Recover; new appends go to a fresh segment after them, so a
// segment torn by the previous crash is never appended to.
func Open(dir string, syncEvery time.Duration) (*Store, error) {
	return OpenWith(dir, Options{SyncEvery: syncEvery})
}

// OpenWith is Open with the full option set (scrub and compaction
// cadence, fault-injection hooks).
func OpenWith(dir string, opts Options) (*Store, error) {
	syncEvery := opts.SyncEvery
	if syncEvery <= 0 {
		syncEvery = DefaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	// A crash mid-snapshot, mid-meta-save, or mid-compaction leaves a
	// *.tmp behind; the committed lineage never references one, so clear
	// them here rather than letting them accumulate (Snapshot's prune
	// only removes committed names).
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	next := int64(1)
	if n := len(segs); n > 0 && segs[n-1]+1 > next {
		next = segs[n-1] + 1
	}
	if n := len(snaps); n > 0 && snaps[n-1]+1 > next {
		next = snaps[n-1] + 1
	}
	s := &Store{
		dir:          dir,
		syncEvery:    syncEvery,
		wrapSeg:      opts.wrapSeg,
		corruptSegs:  make(map[int64]bool),
		corruptSnaps: make(map[int64]bool),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if n := len(snaps); n > 0 {
		s.snapIdx = snaps[n-1]
	}
	if n := len(segs); n > 0 {
		s.crashSeg = segs[n-1]
	}
	if err := s.openSegment(next); err != nil {
		return nil, err
	}
	go s.flushLoop()
	if opts.ScrubEvery > 0 || opts.CompactEvery > 0 {
		s.mdone = make(chan struct{})
		go s.maintainLoop(opts.ScrubEvery, opts.CompactEvery)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Append enqueues one log record. It is called under a shard lock and
// therefore only frames the record onto the in-memory buffer; the
// flusher writes and fsyncs it on the next tick.
func (s *Store) Append(op byte, key, value string) {
	s.mu.Lock()
	was := len(s.buf)
	s.buf = appendRecord(s.buf, op, key, value)
	s.nrec++
	s.lag += int64(len(s.buf) - was)
	s.mu.Unlock()
}

// LagBytes reports the bytes enqueued but not yet fsynced — the crash
// exposure window, in data volume. Batches held for flush retry still
// count: they are acknowledged but not durable.
func (s *Store) LagBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lag
}

// flushLoop drains the buffer every sync interval until Close.
func (s *Store) flushLoop() {
	defer close(s.done)
	t := time.NewTicker(s.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			// Final drain so Close loses nothing that was enqueued.
			s.flush()
			return
		case <-t.C:
			s.flush()
		}
	}
}

// flush writes and fsyncs every pending record as one batch. flushMu
// makes swap-and-write atomic with respect to other flushes: without
// it, two in-flight flushes could swap batches under mu in one order
// and reach the segment in the other, and last-record-wins replay
// would then resurrect a stale value over a later acknowledged write.
func (s *Store) flush() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.flushLocked()
}

// flushLocked is flush's body; the caller holds flushMu (Snapshot holds
// it across the flush *and* its rotation so a concurrent failed-write
// rotation cannot interleave).
func (s *Store) flushLocked() {
	s.mu.Lock()
	if len(s.buf) == 0 && len(s.pending) == 0 {
		s.mu.Unlock()
		return
	}
	batch, nrec := s.buf, s.nrec
	s.buf, s.nrec = s.spare[:0], 0
	s.spare = nil
	s.mu.Unlock()
	recycle := batch
	if len(s.pending) > 0 {
		// Prepend the batch awaiting retry: byte concatenation keeps the
		// log in enqueue order, so last-record-wins replay still sees
		// writes in acknowledgment order.
		batch = append(s.pending, batch...)
		nrec += s.pendingRec
		s.pending, s.pendingRec = nil, 0
		recycle = nil
	}
	s.fmu.Lock()
	err := writeAndSync(s.seg, batch)
	if err == nil {
		s.segBytes += int64(len(batch))
	}
	s.fmu.Unlock()
	if err != nil {
		s.failedFlush(batch, nrec, err)
		return
	}
	s.pendingTries = 0
	s.mu.Lock()
	s.lag -= int64(len(batch))
	if s.spare == nil && recycle != nil {
		s.spare = recycle[:0]
	}
	s.mu.Unlock()
	s.emu.Lock()
	s.err = nil
	s.pendingN = 0
	s.emu.Unlock()
}

// failedFlush handles a failed or short batch write. The segment may
// now end in torn bytes that would wall off every later fsynced batch
// at replay (readRecords stops at the first bad frame), so the store
// truncates back to the last known-good length (best effort — the
// scrub reports whatever remains) and rotates to a fresh segment
// unconditionally: later batches land on a clean file whatever state
// the old one is in. The batch itself is held and retried on later
// flush ticks — the ticker is the backoff — and only dropped, counted,
// once the retry budget exhausts; until it lands or drops, Sync keeps
// returning the error. Caller holds flushMu.
func (s *Store) failedFlush(batch []byte, nrec int, err error) {
	s.fmu.Lock()
	if s.seg != nil {
		s.seg.Truncate(s.segBytes) //nolint:errcheck // best effort
	}
	idx := s.segIdx + 1
	s.fmu.Unlock()
	if oerr := s.openSegment(idx); oerr == nil {
		s.emu.Lock()
		s.rotations++
		s.emu.Unlock()
	}
	s.pendingTries++
	if s.pendingTries <= maxFlushRetries {
		s.pending, s.pendingRec = batch, nrec
		s.emu.Lock()
		s.err = err
		s.pendingN = int64(nrec)
		s.emu.Unlock()
		return
	}
	// Budget exhausted: drop the batch — the member keeps serving from
	// memory exactly as it would with durability off — and make the
	// loss visible through Stats so health probes flag the member.
	s.pendingTries = 0
	s.mu.Lock()
	s.lag -= int64(len(batch))
	s.mu.Unlock()
	s.emu.Lock()
	s.err = err
	s.dropped += int64(nrec)
	s.pendingN = 0
	s.emu.Unlock()
}

// Sync flushes and fsyncs everything enqueued so far, synchronously.
// If another flush is mid-flight it waits for that batch to reach disk
// too (flushMu), so on return every previously enqueued record is
// durable or accounted for in the returned error — including batches
// still held for retry after a failed write, which keep Sync failing
// until they land or the retry budget drops them.
func (s *Store) Sync() error {
	s.flush()
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.err
}

// Close drains the buffer one final time and releases the store. The
// final flush means a clean shutdown loses nothing regardless of the
// sync interval; a batch still failing at that point surfaces as the
// returned error.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		if s.mdone != nil {
			<-s.mdone
		}
	})
	var err error
	s.emu.Lock()
	if s.pendingN > 0 {
		err = s.err
	}
	s.emu.Unlock()
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.seg != nil {
		cerr := s.seg.Close()
		s.seg = nil
		if err == nil {
			err = cerr
		}
	}
	return err
}

// maintainLoop drives the background scrub and compaction at their
// configured cadences until Close. Both are best-effort: failures are
// surfaced through Stats, never fatal — the store keeps logging.
func (s *Store) maintainLoop(scrubEvery, compactEvery time.Duration) {
	defer close(s.mdone)
	var scrubC, compactC <-chan time.Time
	if scrubEvery > 0 {
		t := time.NewTicker(scrubEvery)
		defer t.Stop()
		scrubC = t.C
	}
	if compactEvery > 0 {
		t := time.NewTicker(compactEvery)
		defer t.Stop()
		compactC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-scrubC:
			s.Scrub() //nolint:errcheck // surfaced via Stats
		case <-compactC:
			s.Compact() //nolint:errcheck // surfaced via Stats
		}
	}
}

// Stats is a point-in-time durability report for health and stats
// surfaces.
type Stats struct {
	LagBytes      int64  `json:"lag_bytes"`                 // enqueued, not yet fsynced
	SegmentIndex  int64  `json:"segment"`                   // current log segment
	SegmentBytes  int64  `json:"segment_bytes"`             // bytes in it
	SnapshotIndex int64  `json:"snapshot"`                  // newest committed snapshot (0 = none)
	SnapshotAgeMS int64  `json:"snapshot_age_ms"`           // ms since it committed (-1 = none this run)
	Dropped       int64  `json:"dropped_records,omitempty"` // records lost after flush retries exhausted
	Err           string `json:"error,omitempty"`           // most recent persistence failure

	// PendingRecords counts records whose batch write failed and is
	// being retried; FailedRotations counts segments rotated away after
	// failed writes. Non-zero pending with zero dropped means the
	// member is riding out a transient disk failure without loss.
	PendingRecords  int64 `json:"pending_records,omitempty"`
	FailedRotations int64 `json:"failed_rotations,omitempty"`

	// Scrub and replay damage report. CorruptSegments/CorruptSnapshots
	// list committed lineage files with CRC or framing damage — data
	// has been lost there, unlike the final segment's expected crash
	// tail (Recovered.Torn). Populated by replay and by every scrub
	// pass; ScrubRuns counts completed passes.
	ScrubRuns        int64   `json:"scrub_runs,omitempty"`
	CorruptSegments  []int64 `json:"corrupt_segments,omitempty"`
	CorruptSnapshots []int64 `json:"corrupt_snapshots,omitempty"`

	// Compactions counts sealed segments rewritten below the live-record
	// threshold; ReclaimedBytes the dead bytes dropped doing it.
	Compactions    int64 `json:"compactions,omitempty"`
	ReclaimedBytes int64 `json:"reclaimed_bytes,omitempty"`
}

// Stats reports the store's current durability state.
func (s *Store) Stats() Stats {
	st := Stats{LagBytes: s.LagBytes(), SnapshotAgeMS: -1}
	s.fmu.Lock()
	st.SegmentIndex = s.segIdx
	st.SegmentBytes = s.segBytes
	s.fmu.Unlock()
	s.snapMu.Lock()
	st.SnapshotIndex = s.snapIdx
	if !s.lastSnap.IsZero() {
		st.SnapshotAgeMS = time.Since(s.lastSnap).Milliseconds()
	}
	s.snapMu.Unlock()
	s.emu.Lock()
	if s.err != nil {
		st.Err = s.err.Error()
	}
	st.Dropped = s.dropped
	st.PendingRecords = s.pendingN
	st.FailedRotations = s.rotations
	s.emu.Unlock()
	s.maintMu.Lock()
	st.ScrubRuns = s.scrubRuns
	st.CorruptSegments = sortedKeys(s.corruptSegs)
	st.CorruptSnapshots = sortedKeys(s.corruptSnaps)
	st.Compactions = s.compactions
	st.ReclaimedBytes = s.reclaimed
	s.maintMu.Unlock()
	return st
}

// sortedKeys flattens a damage set into a sorted index list.
func sortedKeys(m map[int64]bool) []int64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortInt64(out)
	return out
}

// openSegment opens wal segment idx for appending and makes it current.
// Caller must not hold fmu; rotation callers hold flushMu so two
// rotations (Snapshot's and the failed-write path's) cannot interleave.
func (s *Store) openSegment(idx int64) error {
	f, err := os.OpenFile(segPath(s.dir, idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	var sf segFile = f
	if s.wrapSeg != nil {
		sf = s.wrapSeg(idx, f)
	}
	s.fmu.Lock()
	if s.seg != nil {
		s.seg.Close()
	}
	s.seg = sf
	s.segIdx = idx
	s.segBytes = 0
	s.fmu.Unlock()
	return nil
}

// Meta is the member's persisted cluster position. Zero values mean
// "not part of a cluster" — an embedded or standalone server persists
// only Joins. Epoch/Version/Bounds/Peers/Self mirror the gate map the
// member last applied (Self empty but Peers set = drained: the member
// keeps answering NotOwner with these bounds). ReplicaCopies is the
// last published copy count. The mesh is not recorded: a gated member
// is meshed, and the tables its loader and its copies cover are Joins'
// source tables, derived at recovery. A file that still records them
// (has_mesh, mesh_tables, replica_tables) loads: the unknown keys are
// ignored.
type Meta struct {
	Name          string   `json:"name,omitempty"`
	ID            string   `json:"id,omitempty"`
	Epoch         int64    `json:"epoch,omitempty"`
	Version       int64    `json:"version,omitempty"`
	Bounds        []string `json:"bounds,omitempty"`
	Peers         []string `json:"peers,omitempty"`
	Self          []int    `json:"self,omitempty"`
	HasGate       bool     `json:"has_gate,omitempty"`
	Joins         string   `json:"joins,omitempty"`
	ReplicaCopies int      `json:"replica_copies,omitempty"`
	SavedUnixNano int64    `json:"saved_unix_nano,omitempty"`
}

func segPath(dir string, idx int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", idx))
}

func snapPath(dir string, idx int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", idx))
}

func metaPath(dir string) string { return filepath.Join(dir, "meta.json") }

// scanDir lists existing segment and snapshot indexes, ascending.
// Names must match exactly — Sscanf alone ignores trailing input, so a
// leftover snap-XXXXXXXX.snap.tmp from a crash mid-snapshot would
// otherwise parse as snapshot X and burn a lineage index at every Open.
func scanDir(dir string) (segs, snaps []int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: scan %s: %w", dir, err)
	}
	for _, e := range ents {
		name := e.Name()
		var idx int64
		if _, err := fmt.Sscanf(name, "wal-%08d.log", &idx); err == nil && name == fmt.Sprintf("wal-%08d.log", idx) {
			segs = append(segs, idx)
			continue
		}
		if _, err := fmt.Sscanf(name, "snap-%08d.snap", &idx); err == nil && name == fmt.Sprintf("snap-%08d.snap", idx) {
			snaps = append(snaps, idx)
		}
	}
	sortInt64(segs)
	sortInt64(snaps)
	return segs, snaps, nil
}

func sortInt64(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// writeAndSync writes buf fully and fsyncs the file.
func writeAndSync(f segFile, buf []byte) error {
	if _, err := f.Write(buf); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a rename in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
