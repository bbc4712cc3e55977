package durable

// Log compaction below the snapshot cadence. Snapshots already bound
// replay, but between snapshots a write-heavy range accumulates dead
// overwrites: every superseded put and remove is replayed at restart
// just to be overwritten again. Compaction rewrites a sealed segment
// in place — same index, keeping only records that are still the final
// record for their key across the whole sealed range — so replay cost
// tracks live data, not write volume.
//
// Invariants:
//
//   - Only sealed segments compact: index >= the newest committed
//     snapshot (older ones are replay-irrelevant leftovers) and < the
//     segment currently being appended. The live segment is never
//     touched.
//   - A record is dropped only when a *later* record for the same key
//     exists within the sealed range (a later put supersedes it; a
//     later remove supersedes it). Surviving records keep their
//     original relative order, so last-record-wins replay reaches the
//     same state — with or without the snapshot underneath, because a
//     dropped record's key is rewritten by the later record either way.
//   - The rewrite is atomic: tmp + fsync + rename + dirsync, the same
//     protocol as snapshots. A crash at any point leaves either the old
//     or the new file; the tmp is cleaned at the next Open.
//   - Damaged segments are left alone. scanRecords stops at the first
//     bad frame, so rewriting a corrupt segment would silently discard
//     the walled-off suffix and destroy the evidence the scrub reports.
//   - One pass rewrites at most defaultCompactBudget bytes, so
//     compaction I/O never competes with the hot path for long.

import (
	"bufio"
	"fmt"
	"os"
)

const (
	// defaultCompactRatio is the live-record fraction below which a
	// sealed segment is rewritten without its dead records;
	// defaultCompactBudget bounds the bytes one pass may rewrite.
	defaultCompactRatio  = 0.5
	defaultCompactBudget = int64(8 << 20)
	// minCompactBytes leaves tiny segments alone: the rewrite costs a
	// file cycle + fsync and saves almost nothing.
	minCompactBytes = int64(4 << 10)
)

// Compact runs one compaction pass: sealed segments whose live-record
// ratio is below the configured threshold are rewritten at the same
// index without their dead records. Returns segments rewritten and
// bytes reclaimed. Safe to call concurrently with appends and reads;
// it serializes with Snapshot, Recover-via-ReadRange, and other passes
// on snapMu.
func (s *Store) Compact() (segments int, reclaimed int64, err error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() (int, int64, error) {
	s.fmu.Lock()
	cur := s.segIdx
	s.fmu.Unlock()
	segs, _, err := scanDir(s.dir)
	if err != nil {
		return 0, 0, err
	}
	sealed := segs[:0:0]
	for _, idx := range segs {
		if idx >= cur {
			break // current segment and beyond: live
		}
		if s.snapIdx > 0 && idx < s.snapIdx {
			continue // below the snapshot: replay-irrelevant
		}
		sealed = append(sealed, idx)
	}
	if len(sealed) == 0 {
		return 0, 0, nil
	}

	// Pass 1: find each key's final record location across the sealed
	// range, plus per-segment record counts. Liveness must be global —
	// a record is dead only if a later record for its key exists
	// anywhere in the sealed range, not merely later in its own
	// segment.
	type loc struct {
		seg int64
		rec int
	}
	final := make(map[string]loc)
	type segInfo struct {
		records int
		size    int64
		clean   bool
	}
	info := make(map[int64]segInfo, len(sealed))
	for _, idx := range sealed {
		i := 0
		n, clean, err := readRecords(segPath(s.dir, idx), func(_ byte, k, _ string) {
			final[k] = loc{seg: idx, rec: i}
			i++
		})
		if err != nil {
			return 0, 0, fmt.Errorf("durable: compact: %w", err)
		}
		fi, err := os.Stat(segPath(s.dir, idx))
		size := int64(0)
		if err == nil {
			size = fi.Size()
		}
		info[idx] = segInfo{records: n, size: size, clean: clean}
	}

	// Pass 2: rewrite segments under the live threshold, oldest first,
	// within the byte budget.
	budget := defaultCompactBudget
	var done int
	var saved int64
	for _, idx := range sealed {
		si := info[idx]
		if !si.clean || si.records == 0 || si.size < minCompactBytes || si.size > budget {
			continue
		}
		live := 0
		i := 0
		readRecords(segPath(s.dir, idx), func(_ byte, k, _ string) { //nolint:errcheck // read once already
			if final[k] == (loc{seg: idx, rec: i}) {
				live++
			}
			i++
		})
		if float64(live) >= defaultCompactRatio*float64(si.records) {
			continue
		}
		n, err := s.rewriteSegment(idx, func(rec int, key string) bool {
			return final[key] == (loc{seg: idx, rec: rec})
		})
		if err != nil {
			return done, saved, err
		}
		budget -= si.size
		done++
		saved += si.size - n
	}
	if done > 0 {
		s.maintMu.Lock()
		s.compactions += int64(done)
		s.reclaimed += saved
		// The rewritten files are clean by construction.
		s.maintMu.Unlock()
	}
	return done, saved, nil
}

// rewriteSegment rewrites segment idx keeping only records for which
// keep(recordIndex, key) is true, atomically (tmp+fsync+rename+
// dirsync). Returns the new file size.
func (s *Store) rewriteSegment(idx int64, keep func(rec int, key string) bool) (int64, error) {
	tmp := segPath(s.dir, idx) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: compact: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var scratch []byte
	var size int64
	i := 0
	_, _, rerr := readRecords(segPath(s.dir, idx), func(op byte, k, v string) {
		if keep(i, k) {
			scratch = appendRecord(scratch[:0], op, k, v)
			bw.Write(scratch) //nolint:errcheck // surfaced by Flush below
			size += int64(len(scratch))
		}
		i++
	})
	if rerr == nil {
		rerr = bw.Flush()
	}
	if rerr == nil {
		rerr = f.Sync()
	}
	if cerr := f.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: compact: %w", rerr)
	}
	if err := os.Rename(tmp, segPath(s.dir, idx)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("durable: compact: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return 0, fmt.Errorf("durable: compact: %w", err)
	}
	return size, nil
}
