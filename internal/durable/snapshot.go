package durable

// Snapshots, recovery replay, and the meta file. See the package
// comment for the rotate-first snapshot protocol and why it is correct
// without a global pause.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot-file record ops (on-disk; append only). Snapshot files reuse
// the log's framing with their own op space: rows, warm coverage, and a
// trailing commit marker without which the file is ignored by recovery.
const (
	opSnapKV     = byte(3)
	opSnapWarm   = byte(4)
	opSnapCommit = byte(5)
)

// KV is one stored row.
type KV struct {
	Key   string
	Value string
}

// Warm is one previously valid computed range: Join indexes the
// engine's installed joins, in install order.
type Warm struct {
	Join   int
	Lo, Hi string
}

// Snapshot rotates the log and writes one snapshot: capture is called
// with emitters and must scan the member's state (each shard under its
// own lock), emitting every base row and every valid computed range.
// On success the snapshot commits and every older segment and snapshot
// is pruned. On any failure the previous lineage is left untouched.
func (s *Store) Snapshot(capture func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	// Rotate first: everything enqueued so far lands (fsynced) in the
	// old segment, and the scan below — which runs after the rotation —
	// observes at least those writes, so nothing pruned is lost. A batch
	// held for flush retry is the one exception to "lands in the old
	// segment": it is not on disk yet, but the lock-holding scan sees
	// its effects, so it is in the snapshot — and when it later lands in
	// a segment >= idx, replaying it over the snapshot is idempotent.
	// flushMu is held across flush *and* rotation so the failed-write
	// path's own rotation cannot interleave and double-rotate.
	s.flushMu.Lock()
	s.flushLocked()
	s.fmu.Lock()
	idx := s.segIdx + 1
	s.fmu.Unlock()
	err := s.openSegment(idx)
	s.flushMu.Unlock()
	if err != nil {
		return err
	}

	tmp := snapPath(s.dir, idx) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var scratch []byte
	emit := func(op byte, key, value string) {
		scratch = appendRecord(scratch[:0], op, key, value)
		bw.Write(scratch)
	}
	captureErr := capture(
		func(k, v string) { emit(opSnapKV, k, v) },
		func(join int, lo, hi string) { emit(opSnapWarm, warmKey(join, lo), hi) },
	)
	if captureErr == nil {
		emit(opSnapCommit, "", "")
		captureErr = bw.Flush()
	}
	if captureErr == nil {
		captureErr = f.Sync()
	}
	if cerr := f.Close(); captureErr == nil {
		captureErr = cerr
	}
	if captureErr != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", captureErr)
	}
	if err := os.Rename(tmp, snapPath(s.dir, idx)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}

	// Committed: replay is now snap-idx + segments >= idx. Prune the
	// rest.
	segs, snaps, err := scanDir(s.dir)
	if err == nil {
		for _, i := range segs {
			if i < idx {
				os.Remove(segPath(s.dir, i))
			}
		}
		for _, i := range snaps {
			if i < idx {
				os.Remove(snapPath(s.dir, i))
			}
		}
	}
	s.snapIdx = idx
	s.lastSnap = time.Now()
	return nil
}

// SegmentReplay is per-segment replay provenance: which segment,
// how many intact records it contributed, how many bytes of it were
// intact, and whether it ended cleanly.
type SegmentReplay struct {
	Index   int64
	Records int
	Bytes   int64 // intact prefix length (== file size when Clean)
	Clean   bool
}

// Recovered is the result of replaying snapshot+log: the final
// surviving state (deletes collapsed), plus provenance that lets tests
// and health surfaces assert data really came from disk — and tell an
// expected crash tail apart from data-losing damage.
type Recovered struct {
	KVs           []KV
	Warm          []Warm
	SnapshotIndex int64 // 0 = recovered from log alone (or nothing)
	SnapshotRows  int
	LogSegments   int
	LogRecords    int
	Segments      []SegmentReplay

	// Torn means the segment that was newest at the last crash ended
	// mid-record — the expected exposure window of the write-behind
	// design, bounded by one sync interval; nothing before the tear is
	// lost. CorruptSegments and CorruptSnapshots list lineage files
	// with damage that is NOT that tail: a bad frame in a sealed
	// segment walls off its suffix, so acknowledged, fsynced writes
	// have been lost there. Recovery proceeds over the hole (serving
	// partial data beats serving nothing — replicas and the mesh
	// backfill), but the damage is surfaced via Stats and health
	// instead of being folded into Torn.
	Torn             bool
	CorruptSegments  []int64
	CorruptSnapshots []int64
}

// Recover replays the newest committed snapshot plus every log segment
// at or after it, returning the collapsed final state. Call it once,
// right after Open, before the member starts writing. A store with no
// history returns an empty result, not an error. Each segment is read
// in order and folded straight into the state; the expected crash tail
// on the previous run's final segment is truncated away so the file is
// clean for every later generation and for the scrub.
func (s *Store) Recover() (*Recovered, error) {
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{}
	state := make(map[string]string)

	// Newest snapshot with an intact commit marker wins; an uncommitted
	// or corrupt one falls back to the lineage before it — and is
	// reported as damage, because Snapshot never leaves one behind on
	// the committed path (tmp files are cleaned at Open, older
	// snapshots pruned after commit).
	for i := len(snaps) - 1; i >= 0; i-- {
		var kvs []KV
		var warm []Warm
		committed := false
		_, clean, err := readRecords(snapPath(s.dir, snaps[i]), func(op byte, k, v string) {
			switch op {
			case opSnapKV:
				kvs = append(kvs, KV{Key: k, Value: v})
			case opSnapWarm:
				if j, lo, ok := parseWarmKey(k); ok {
					warm = append(warm, Warm{Join: j, Lo: lo, Hi: v})
				}
			case opSnapCommit:
				committed = true
			}
		})
		if err != nil || !clean || !committed {
			rec.CorruptSnapshots = append(rec.CorruptSnapshots, snaps[i])
			continue
		}
		if rec.SnapshotIndex > 0 {
			continue // older than the chosen one; prune will clear it
		}
		rec.SnapshotIndex = snaps[i]
		rec.SnapshotRows = len(kvs)
		rec.Warm = warm
		for _, kv := range kvs {
			state[kv.Key] = kv.Value
		}
	}
	sortInt64(rec.CorruptSnapshots)

	s.fmu.Lock()
	cur := s.segIdx
	s.fmu.Unlock()
	for _, idx := range segs {
		if idx < rec.SnapshotIndex {
			continue // truncated by the snapshot
		}
		n, off, clean := 0, 0, true
		data, err := os.ReadFile(segPath(s.dir, idx))
		switch {
		case err == nil:
			n, off, clean = scanRecords(data, func(op byte, k, v string) {
				switch op {
				case OpPut:
					state[k] = v
				case OpRemove:
					delete(state, k)
				}
			})
		case !os.IsNotExist(err):
			return nil, fmt.Errorf("durable: read segment %d: %w", idx, err)
		}
		rec.LogSegments++
		rec.LogRecords += n
		rec.Segments = append(rec.Segments, SegmentReplay{Index: idx, Records: n, Bytes: int64(off), Clean: clean})
		if !clean {
			switch {
			case idx == s.crashSeg || idx >= cur:
				// The segment that was newest at the last crash (or is
				// being appended right now): its tear is the expected
				// crash window. Truncate a sealed crash tail off so the
				// lineage is clean from here on — only ever the garbage
				// suffix, and never the live segment.
				rec.Torn = true
				if idx < cur {
					os.Truncate(segPath(s.dir, idx), int64(off)) //nolint:errcheck // best effort; scrub re-reports
				}
			default:
				rec.CorruptSegments = append(rec.CorruptSegments, idx)
			}
		}
	}
	s.noteReplayDamage(rec.CorruptSegments, rec.CorruptSnapshots)

	rec.KVs = make([]KV, 0, len(state))
	for k, v := range state {
		rec.KVs = append(rec.KVs, KV{Key: k, Value: v})
	}
	sort.Slice(rec.KVs, func(i, j int) bool { return rec.KVs[i].Key < rec.KVs[j].Key })
	return rec, nil
}

// ReadRange replays the store's current lineage restricted to keys in
// [lo, hi) (hi == "" means +inf) and returns the final surviving rows.
// This is the last-resort repair source: when no live member holds a
// warm copy of a dead range, the heir rebuilds it from whatever its own
// disk still holds. Everything enqueued so far is flushed first, so the
// result includes every write this member has acknowledged.
func (s *Store) ReadRange(lo, hi string) ([]KV, error) {
	if err := s.Sync(); err != nil {
		return nil, err
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	rec, err := s.Recover()
	if err != nil {
		return nil, err
	}
	out := rec.KVs[:0]
	for _, kv := range rec.KVs {
		if kv.Key >= lo && (hi == "" || kv.Key < hi) {
			out = append(out, kv)
		}
	}
	return out, nil
}

// SaveMeta atomically persists the member's cluster position. Callers
// race freely (RPC handlers, the snapshot loop, Close); metaMu keeps
// two saves from interleaving WriteFile/Rename on the shared tmp path
// and renaming a torn file into meta.json.
func (s *Store) SaveMeta(m *Meta) error {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	m.SavedUnixNano = time.Now().UnixNano()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := metaPath(s.dir) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("durable: save meta: %w", err)
	}
	if err := os.Rename(tmp, metaPath(s.dir)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: save meta: %w", err)
	}
	return syncDir(s.dir)
}

// LoadMeta reads the persisted cluster position; ok is false when none
// has ever been saved.
func (s *Store) LoadMeta() (m *Meta, ok bool, err error) {
	data, err := os.ReadFile(metaPath(s.dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("durable: load meta: %w", err)
	}
	m = &Meta{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("durable: load meta: %w", err)
	}
	return m, true, nil
}

// warmKey packs a warm range's join index and low bound into the record
// key slot ("<join>\x00<lo>"); the high bound rides in the value slot.
func warmKey(join int, lo string) string {
	return strconv.Itoa(join) + "\x00" + lo
}

func parseWarmKey(k string) (join int, lo string, ok bool) {
	j, lo, found := strings.Cut(k, "\x00")
	if !found {
		return 0, "", false
	}
	n, err := strconv.Atoi(j)
	if err != nil {
		return 0, "", false
	}
	return n, lo, true
}
