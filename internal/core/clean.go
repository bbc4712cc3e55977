package core

import (
	"time"

	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/store"
)

// Clean reads. Once a range is materialized and eager updaters keep it
// fresh, reading it changes nothing: ensureRangeBounded finds every
// status up to date and only touches the LRU. GetClean and ScanClean
// serve exactly those reads and write nothing but atomic counters, so
// any number of them may run at once under a shared lock while every
// other engine entry point keeps the exclusive one. A read they turn
// down is served by Get or Scan as before.

// clean reports whether a read of r would change nothing in the engine:
// it meets no loader-backed table, no pull join and no join fed by
// another join's output, and for every other join overlapping r a walk
// of the cover finds r wholly held by statuses that are valid, carry no
// lazy log, no dirty span and no expired snapshot. Under a memory limit
// each such status must also be the most recently used already — so
// the touch the read skips would have moved nothing — and the store
// within the limit, so the eviction it skips would have evicted
// nothing. start is the output hint ensureRangeBounded would have
// returned. clean only reads.
func (e *Engine) clean(r keys.Range) (start *store.Hint, ok bool) {
	for _, pt := range e.presence {
		if !r.Intersect(pt.tr).Empty() {
			return nil, false
		}
	}
	limited := e.opts.MemLimit > 0
	if limited && e.s.Bytes() > e.opts.MemLimit {
		return nil, false
	}
	var now time.Time
	for _, ij := range e.joins {
		rr := r.Intersect(ij.j.Out.TableRange())
		if rr.Empty() {
			continue
		}
		if ij.j.Maint == join.Pull || ij.cascaded {
			return nil, false
		}
		snap := ij.j.Maint == join.Snapshot
		if snap && now.IsZero() {
			now = e.now()
		}
		ok = true
		ij.status.walk(rr, func(st *JoinStatus) bool {
			switch {
			case !ok:
			case !st.valid, len(st.logs) > 0, len(st.dirty) > 0,
				snap && !st.expires.IsZero() && now.After(st.expires),
				limited && e.statusLRU.head.next != &st.lru:
				ok = false
			case start == nil && st.r.ContainsRange(rr):
				start = &st.hint
			}
			return ok
		}, func(keys.Range) { ok = false })
		if !ok {
			return nil, false
		}
	}
	return start, true
}

// GetClean is Get of the key point holds when the read has nothing to
// compute (clean), changing nothing but the engine's read counters; ok
// false means it served nothing and Get must.
func (e *Engine) GetClean(point keys.Range) (val string, found, ok bool) {
	if _, ok := e.clean(point); !ok {
		return "", false, false
	}
	e.shared.gets.Add(1)
	if v, found := e.s.Get(point.Lo); found {
		return v.String(), true, true
	}
	return "", false, true
}

// ScanClean is ScanInto of [lo, hi) when the read has nothing to compute
// (clean), changing nothing but the engine's read counters; ok false
// means it served nothing and ScanInto must.
func (e *Engine) ScanClean(lo, hi string, limit int, buf []KV) (kvs []KV, ok bool) {
	start, ok := e.clean(keys.Range{Lo: lo, Hi: hi})
	if !ok {
		return buf, false
	}
	e.shared.scans.Add(1)
	kvs, n := e.scanOut(lo, hi, limit, buf[:0], nil, start)
	e.shared.scannedKeys.Add(n)
	return kvs, true
}

// CleanReads reports how many reads GetClean and ScanClean served.
func (e *Engine) CleanReads() int64 { return e.shared.gets.Load() + e.shared.scans.Load() }
