package core

// Live range migration, the engine's share (DESIGN.md "Moving a range"):
// ExtractRange pulls one key range's state out of an engine and
// SpliceRange folds it into another server's, so a partition boundary
// can move without a stop-the-world rebuild. The contract divides an
// engine's state in a range into two kinds, each handled differently:
//
//   - Rows — plain client data, hand-written rows in output tables, and
//     loader-backed rows alike. A range leaves a server only from its
//     home, so every stored row in it is the authoritative copy and
//     moves physically.
//
//   - Derived state — computed join ranges (statuses + outputs) and the
//     residency records of loader-backed tables. Computed ranges are
//     dropped with eviction semantics (§2.5: evicting cached ranges is
//     always safe, notified as OpEvict so subscribers keep their copies)
//     and the destination recomputes them; residency is clipped, and the
//     destination re-marks it through its own loader. The computed
//     ranges that were materialized and valid at the source are recorded
//     in RangeState.Warm so the destination can recompute them eagerly
//     during the splice — hot ranges arrive hot, they are not re-derived
//     from a cold start by the first unlucky reader.
//
// Every call here must run on the engine's driving goroutine (under the
// shard's lock, like every other engine entry point).

import (
	"pequod/internal/keys"
	"pequod/internal/store"
)

// WarmRange records one previously-valid computed range: Join indexes
// the engine's installed joins (identical order on every member — the
// cluster installs join texts in lockstep).
type WarmRange struct {
	Join int
	R    keys.Range
}

// RangeState is the extracted state of one key range, produced by
// ExtractRange and consumed by SpliceRange on the destination engine.
type RangeState struct {
	R    keys.Range
	KVs  []KV        // physically moved rows
	Warm []WarmRange // computed coverage to rebuild eagerly at the destination
}

// ExtractRange removes range r's state from the engine and returns the
// portion a destination engine needs: computed coverage is dropped and
// reported as Warm, presence records are clipped, and every row in r is
// cut out silently (no change notification, no updater cascade: the data
// is moving, not being deleted; dependent computed ranges are
// invalidated so they recompute against post-migration state). The
// extracting server is the range's home — in a symmetric mesh its own
// tables are presence-tracked too — so every row is the authoritative
// copy. The destination re-marks residency through its own loader
// (self-owned pieces mark without fetching).
func (e *Engine) ExtractRange(r keys.Range) RangeState {
	rs := RangeState{R: r, Warm: e.dropComputed(r)}
	e.clipPresence(r)
	e.s.RemoveRange(r.Lo, r.Hi, func(k string, v *store.Value) {
		rs.KVs = append(rs.KVs, KV{Key: k, Value: v.String()})
		e.invalidateDependents(k)
	})
	return rs
}

// SpliceRange folds an extracted range into this engine, which is about
// to become (or just became) the range's owner. Its own cached computed
// state overlapping the range is dropped first — the spliced rows are
// now the authority and stale local replicas must not shadow them — then
// the moved rows are installed silently, and the source's previously
// valid computed coverage is rebuilt eagerly from this engine's own
// sources so the range arrives warm.
func (e *Engine) SpliceRange(rs RangeState) {
	e.dropComputed(rs.R)
	for _, kv := range rs.KVs {
		e.s.Put(kv.Key, store.NewValue(kv.Value))
		e.invalidateDependents(kv.Key)
	}
	for _, w := range rs.Warm {
		if w.Join >= len(e.joins) {
			continue // source had joins this engine lacks; cannot happen via the pool
		}
		ij := e.joins[w.Join]
		if rr := w.R.Intersect(ij.j.Out.TableRange()); !rr.Empty() {
			e.ensure(ij, rr, 0)
		}
	}
	e.evictIfNeeded()
}

// RestoreRange folds a previously extracted range back into this
// engine without clobbering anything written since: only keys absent
// from the store are re-installed (with dependent invalidation, so
// computed coverage over them recomputes). It is the recovery half of
// the retained-extract buffer — when a published map hands a range back
// to the server that extracted it, without an accompanying splice, the
// retained rows are the freshest surviving copy, but any row the engine
// does hold is newer still.
func (e *Engine) RestoreRange(rs RangeState) {
	for _, kv := range rs.KVs {
		if _, ok := e.s.Get(kv.Key); !ok {
			e.s.Put(kv.Key, store.NewValue(kv.Value))
			e.invalidateDependents(kv.Key)
		}
	}
	e.evictIfNeeded()
}

// DropRange discards every cached trace of range r with §2.5 eviction
// semantics: computed join coverage is invalidated and its outputs
// removed as OpEvict, presence records are clipped (in-flight loads are
// abandoned; a late LoadComplete for a dropped record is a no-op), and
// the rows themselves are evicted with dependent invalidation. Members
// of a cluster run it when a published partition map moves a range they
// had loaded (or computed from) to a new home server: everything local
// is a stale replica the moment ownership flips, and the §2.5 rule —
// evicting cached data is always safe, because it can be re-fetched or
// recomputed — is exactly the invalidation-correct way to retire it.
// The next read re-loads from, and re-subscribes at, the new owner.
func (e *Engine) DropRange(r keys.Range) {
	e.dropComputed(r)
	e.clipPresence(r)
	e.evictRows(r, true)
}

// dropComputed drops every join status overlapping r — outputs removed
// as OpEvict — and returns the coverage that was valid inside r. A
// status straddling r's edge is dropped whole (its outputs outside r
// would otherwise linger uncovered); the next read of the retained side
// recomputes it.
func (e *Engine) dropComputed(r keys.Range) []WarmRange {
	var warm []WarmRange
	for idx, ij := range e.joins {
		ij.status.walk(r, func(st *JoinStatus) bool {
			warm = append(warm, WarmRange{Join: idx, R: st.r.Intersect(r)})
			e.stats.Invalidations++
			e.detachStatus(st)
			e.removeOutputsOp(ij, st.r, OpEvict)
			return false
		}, nil)
	}
	return warm
}

// clipPresence retires the residency of loader-backed tables inside r.
// A resident record is clipped to its sides outside r and the
// dependents of the cut are invalidated; rows are the caller's to evict
// or move. A record still loading is dropped whole (LoadComplete matches
// ranges exactly; a clipped record would never be marked resident): the
// late result is discarded, and the reads parked on the load retry —
// bouncing if the range left the server — and refetch whatever the
// post-migration owner needs.
func (e *Engine) clipPresence(r keys.Range) {
	for table, pt := range e.presence {
		rr := r.Intersect(keys.Range{Lo: table, Hi: keys.RangeEnd(table)})
		if rr.Empty() {
			continue
		}
		pt.walk(rr, func(pr *presRange) bool {
			cut := pr.r.Intersect(rr)
			if pr.loading {
				e.dropLoading(pt, pr)
			} else {
				e.presLRU.remove(&pr.lru)
				pt.drop(pr)
				sides := []keys.Range{{Lo: pr.r.Lo, Hi: cut.Lo}}
				if cut.Hi != "" { // a cut to +inf leaves nothing above
					sides = append(sides, keys.Range{Lo: cut.Hi, Hi: pr.r.Hi})
				}
				for _, side := range sides {
					if side.Empty() {
						continue
					}
					np := &presRange{table: table, r: side, held: pr.held}
					pt.add(np)
					e.presTouch(np)
				}
				e.invalidateRangeDependents(table, cut)
			}
			return false
		}, nil)
	}
}

// evictRows removes every stored row in r with eviction semantics:
// OpEvict notification (ignored by replication and subscription
// forwarding) and, with perRow, dependent invalidation key by key. A
// caller retiring a whole presence range passes false: its
// invalidateRangeDependents covers every row's dependents at once.
func (e *Engine) evictRows(r keys.Range, perRow bool) {
	e.s.RemoveRange(r.Lo, r.Hi, func(k string, old *store.Value) {
		e.notify(Change{Op: OpEvict, Key: k, Value: old.String()})
		if perRow {
			e.invalidateDependents(k)
		}
	})
}
