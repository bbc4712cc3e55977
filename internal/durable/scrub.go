package durable

// Background lineage scrubbing. A write-behind log only proves its
// bytes are readable at restart — by which point the replica copies
// that could have repaired damage may be long gone. The scrub CRC-walks
// the committed lineage (sealed segments and committed snapshots) on a
// cadence and surfaces damage through Stats while repair sources still
// exist, instead of at the restart that needed the bytes.

import (
	"fmt"
	"os"
)

// Scrub runs one synchronous scrub pass: every sealed segment (index
// below the one currently being appended) and every snapshot is read
// and CRC-walked end to end. Damage found is merged into the store's
// damage set, visible via Stats until the file is pruned by a later
// snapshot. The pass never repairs or removes anything — deciding
// whether a replica re-sync or a snapshot can retire the damaged file
// is the operator's (or the cluster watchdog's) call.
//
// The expected crash tail is not damage: Recover truncates it away at
// startup, so a sealed segment that still fails its walk lost fsynced
// frames to something other than the crash window. The one file the
// scrub skips is the live segment — its tail is mid-write by design.
func (s *Store) Scrub() error {
	s.fmu.Lock()
	cur := s.segIdx
	s.fmu.Unlock()
	segs, snaps, err := scanDir(s.dir)
	if err != nil {
		return err
	}
	var badSegs, badSnaps []int64
	var firstErr error
	for _, idx := range segs {
		if idx >= cur {
			continue // being appended; its tail is legitimately open
		}
		if idx == s.crashSeg {
			// The previous run's crash tail is expected until a Recover
			// truncates it; a tear here is not mid-lineage damage.
			continue
		}
		_, clean, err := readRecords(segPath(s.dir, idx), func(byte, string, string) {})
		if err != nil {
			// Unreadable (I/O error, not absence — readRecords treats a
			// pruned-under-us file as clean): that is damage too.
			if firstErr == nil {
				firstErr = err
			}
			clean = false
		}
		if !clean {
			badSegs = append(badSegs, idx)
		}
	}
	for _, idx := range snaps {
		committed := false
		_, clean, err := readRecords(snapPath(s.dir, idx), func(op byte, _, _ string) {
			if op == opSnapCommit {
				committed = true
			}
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			clean = false
		}
		if _, statErr := os.Stat(snapPath(s.dir, idx)); os.IsNotExist(statErr) {
			continue // pruned while we walked
		}
		if !clean || !committed {
			badSnaps = append(badSnaps, idx)
		}
	}
	s.maintMu.Lock()
	s.scrubRuns++
	// Merge rather than replace: a damaged file pruned by a later
	// snapshot drops out of the set (the bytes it lost are gone either
	// way, but the lineage no longer depends on them), while damage in
	// still-live files persists across passes.
	s.pruneDamageLocked(segs, snaps)
	for _, idx := range badSegs {
		s.corruptSegs[idx] = true
	}
	for _, idx := range badSnaps {
		s.corruptSnaps[idx] = true
	}
	s.maintMu.Unlock()
	if firstErr != nil {
		return fmt.Errorf("durable: scrub: %w", firstErr)
	}
	if len(badSegs) > 0 || len(badSnaps) > 0 {
		return fmt.Errorf("durable: scrub: %d corrupt segments, %d corrupt snapshots", len(badSegs), len(badSnaps))
	}
	return nil
}

// noteReplayDamage merges damage found by Recover into the scrub's
// damage set, so a restart over a damaged lineage reports it in Stats
// immediately instead of waiting for the first scrub tick.
func (s *Store) noteReplayDamage(segs, snaps []int64) {
	if len(segs) == 0 && len(snaps) == 0 {
		return
	}
	s.maintMu.Lock()
	for _, idx := range segs {
		s.corruptSegs[idx] = true
	}
	for _, idx := range snaps {
		s.corruptSnaps[idx] = true
	}
	s.maintMu.Unlock()
}

// pruneDamageLocked drops damage entries for files that no longer
// exist. Caller holds maintMu; live is the current directory listing.
func (s *Store) pruneDamageLocked(segs, snaps []int64) {
	liveSegs := make(map[int64]bool, len(segs))
	for _, idx := range segs {
		liveSegs[idx] = true
	}
	for idx := range s.corruptSegs {
		if !liveSegs[idx] {
			delete(s.corruptSegs, idx)
		}
	}
	liveSnaps := make(map[int64]bool, len(snaps))
	for _, idx := range snaps {
		liveSnaps[idx] = true
	}
	for idx := range s.corruptSnaps {
		if !liveSnaps[idx] {
			delete(s.corruptSnaps, idx)
		}
	}
}
