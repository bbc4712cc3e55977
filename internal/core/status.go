package core

import (
	"time"

	"pequod/internal/interval"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/store"
)

// JoinStatus is a join status range (§3.2): it records whether a range of
// output keys is up to date with respect to one cache join. Status ranges
// for a join are disjoint; keys outside every status range are simply not
// materialized yet.
type JoinStatus struct {
	ij *installedJoin
	r  keys.Range

	// valid holds from creation — a status exists only once its whole
	// range has been computed (§3.3 restarts install nothing) — until
	// the status is detached; updater contexts and dirty marks that
	// still reach a detached status are ignored.
	valid   bool
	expires time.Time // snapshot joins: recompute after this instant

	// scanB is the slot set derived from r at creation; updater contexts
	// are compressed against it (§3.2's context compression).
	scanB pattern.Binding

	// logs holds partially-invalidating source modifications to be
	// applied on the next read (§3.2 lazy maintenance).
	logs []logEntry

	// dirty lists sub-intervals of r whose outputs are stale: a source
	// write landed whose effect on this range could not (or chose not
	// to) be applied incrementally, and the affected output
	// sub-interval — keyed through the join's key transform — was
	// marked instead of invalidating the whole range, so sibling
	// coverage stays valid and warm. A fresh read recomputes the dirty
	// intersection before serving; a bounded read may serve a span's
	// rows as they stand while the span's age is within its budget.
	dirty []dirtySpan

	// hint is the output hint (§4.2).
	hint store.Hint

	// updaters lists the updaters carrying contexts for this status, so
	// invalidation can uninstall them.
	updaters []*Updater

	lru lruEntry[*JoinStatus]
}

func (st *JoinStatus) span() keys.Range { return st.r }

// logEntry records one modification to a lazily-maintained (check) source.
type logEntry struct {
	srcIdx int
	key    string
	op     ChangeOp
	had    bool      // key existed before the change (update vs insert)
	at     time.Time // when the modification landed (staleness bookkeeping)
}

// logged reports whether an entry of source srcIdx is pending.
func (st *JoinStatus) logged(srcIdx int) bool {
	for i := range st.logs {
		if st.logs[i].srcIdx == srcIdx {
			return true
		}
	}
	return false
}

// dirtySpan is one stale sub-interval of a join status range.
type dirtySpan struct {
	r  keys.Range
	at time.Time // when the span first went stale (its oldest unapplied write)
}

// maxDirtySpans bounds per-status dirty bookkeeping. Past it the spans
// collapse into one covering span — degrading to whole-range
// granularity for that status, never losing an invalidation.
const maxDirtySpans = 32

// markDirty records that outputs of st inside r are stale as of `at`.
// Overlapping spans coalesce, keeping the earliest stamp so a span's
// age always reflects its oldest unapplied write.
func (e *Engine) markDirty(st *JoinStatus, r keys.Range, at time.Time) {
	r = r.Intersect(st.r)
	if r.Empty() || !st.valid {
		return // detached: its outputs are gone already
	}
	e.stats.PartialInvalidations++
	out := st.dirty[:0]
	for _, d := range st.dirty {
		if d.r.Overlaps(r) {
			r = spanUnion(d.r, r)
			if d.at.Before(at) {
				at = d.at
			}
			continue
		}
		out = append(out, d)
	}
	st.dirty = append(out, dirtySpan{r: r, at: at})
	if len(st.dirty) > maxDirtySpans {
		oldest := st.dirty[0].at
		for _, d := range st.dirty[1:] {
			if d.at.Before(oldest) {
				oldest = d.at
			}
		}
		st.dirty = append(st.dirty[:0], dirtySpan{r: st.r, at: oldest})
	}
}

// spanUnion returns the smallest range containing both a and b.
func spanUnion(a, b keys.Range) keys.Range {
	lo := a.Lo
	if b.Lo < lo {
		lo = b.Lo
	}
	hi := a.Hi
	if keys.HiLess(hi, b.Hi) {
		hi = b.Hi
	}
	return keys.Range{Lo: lo, Hi: hi}
}

// ensure brings the join's coverage of rr up to date within maxStale:
// applies pending logs, recomputes invalid or expired ranges and dirty
// sub-intervals, and forward-executes uncovered gaps (Fig 5). maxStale
// zero is a fresh read (today's semantics). A positive maxStale lets
// the read skip applying logs and recomputing dirty spans whose oldest
// unapplied write is younger than the budget — the materialized rows
// are served as they stand, stale by at most maxStale. Coverage gaps
// always compute fresh regardless of budget: a bounded read may serve
// old state, never fabricate or lose rows. It returns the number of
// base-data loads in flight that kept parts of rr from being brought up
// to date; those parts are unchanged (gaps stay gaps, logs and dirty
// spans stay pending) and the caller retries once the loads resolve.
// It also returns the output hint of the status that contains rr, if
// one does: the leaf that status last wrote, where a scan of rr may
// start (§4.2). The hint is a start position only, one the store checks
// before using, so it needs no invalidation of its own.
func (e *Engine) ensure(ij *installedJoin, rr keys.Range, maxStale time.Duration) (pending int, start *store.Hint) {
	// Pass 0: freshen cascaded sources. A valid status here may have been
	// computed from another join's output whose own maintenance was
	// lazily logged (check sources, §3.2); reading only this join would
	// otherwise serve results the pending log entries invalidate. Ensure
	// source joins over their containing ranges first — their eager
	// updaters then propagate any late changes into this range before we
	// trust it. Joins over base tables alone (cascaded unset) skip this.
	if ij.cascaded {
		if b, clip := ij.j.Out.ScanBinding(rr); !clip.Empty() {
			for _, src := range ij.j.Sources {
				table := src.Pat.Table()
				if len(e.outJoins[table]) == 0 {
					continue
				}
				cr := pattern.ContainingRange(src.Pat, ij.j.Out, b, rr)
				if cr.Empty() {
					continue
				}
				pending += e.ensureSourceJoins(table, cr, maxStale)
			}
		}
	}

	// One walk over the join's cover of rr: bring each status up to date
	// (or drop it, expired), and forward-execute what no status covers.
	now := e.now()
	ij.status.walk(rr, func(st *JoinStatus) bool {
		if ij.j.Maint == join.Snapshot && !st.expires.IsZero() && now.After(st.expires) {
			e.invalidateStatus(st) // snapshot expired
			return false
		}
		if len(st.logs) > 0 {
			if maxStale > 0 && now.Sub(st.logs[0].at) <= maxStale {
				// Bounded read: the oldest unapplied log entry is within
				// budget. Serve the materialized rows as they stand and
				// leave the log for a fresh (or over-budget) read.
				e.stats.BoundedStaleServes++
			} else {
				pending += e.applyLogs(st)
			}
		}
		if len(st.dirty) > 0 {
			pending += e.recomputeDirty(st, rr, maxStale, now)
		}
		if st.r.ContainsRange(rr) {
			start = &st.hint
		}
		e.lruTouch(st)
		return true
	}, func(gap keys.Range) {
		pending += e.forwardExec(ij, gap)
	})
	return pending, start
}

// invalidateStatus completely invalidates a status range: outputs matching
// the join's pattern are removed, updater contexts uninstalled, and the
// status discarded so the next read recomputes from scratch (§3.2).
func (e *Engine) invalidateStatus(st *JoinStatus) {
	e.stats.Invalidations++
	e.detachStatus(st)
	e.removeOutputs(st.ij, st.r)
}

// detachStatus removes bookkeeping (status node, updater contexts, LRU)
// without touching output data.
func (e *Engine) detachStatus(st *JoinStatus) {
	st.ij.status.drop(st)
	for _, u := range st.updaters {
		u.removeContextsOf(st)
		if len(u.contexts) == 0 {
			e.dropUpdater(u)
		}
	}
	st.updaters = nil
	st.valid = false
	st.logs = nil
	st.dirty = nil
	e.statusLRU.remove(&st.lru)
}

// recomputeDirty refreshes st's dirty sub-intervals overlapping rr: each
// over-budget span has its outputs removed and re-derived in place — the
// rest of the status's coverage stays untouched and warm. Spans within a
// positive maxStale budget are served as they stand and stay dirty for
// the next fresh read. A span whose recompute needs base data that is
// not resident stays dirty, outputs untouched, and is retried by the
// read after the loads land. Returns loads in flight.
func (e *Engine) recomputeDirty(st *JoinStatus, rr keys.Range, maxStale time.Duration, now time.Time) (pending int) {
	var redo []dirtySpan
	kept := st.dirty[:0]
	for _, d := range st.dirty {
		switch {
		case !d.r.Overlaps(rr):
			kept = append(kept, d)
		case maxStale > 0 && now.Sub(d.at) <= maxStale:
			// Within the read's staleness budget: serve the span's rows
			// stale (by at most maxStale) instead of recomputing.
			e.stats.BoundedStaleServes++
			kept = append(kept, d)
		default:
			redo = append(redo, d)
		}
	}
	st.dirty = kept
	for _, d := range redo {
		if n := e.recomputeSpan(st, d.r); n > 0 {
			pending += n
			st.dirty = append(st.dirty, d)
		}
	}
	return pending
}

// recomputeSpan re-derives st's outputs inside r: the dirty-interval
// twin of forwardExec, executing into the *existing* status so its
// scanB-compressed updater contexts stay correct (installUpdater
// deduplicates re-installations). Like forwardExec it discovers first:
// with base data missing it touches nothing and returns the loads in
// flight.
func (e *Engine) recomputeSpan(st *JoinStatus, r keys.Range) (pending int) {
	e.stats.DirtyRecomputes++
	r = r.Intersect(st.r)
	if r.Empty() {
		return 0
	}
	b, clip := st.ij.j.Out.ScanBinding(r)
	if !clip.Empty() {
		if pending = e.probe(st.ij, r, b, -1); pending > 0 {
			return pending
		}
	}
	e.removeOutputs(st.ij, r)
	e.dropContextsWithin(st, r)
	if clip.Empty() {
		return 0 // nothing in the span can match the output pattern
	}
	ex := &exec{
		e:          e,
		ij:         st.ij,
		st:         st,
		clip:       r,
		installUpd: st.ij.j.Maint == join.Push,
		skipIdx:    -1,
	}
	if st.ij.j.IsAggregate() {
		ex.aggs = make(map[string]*aggState)
	}
	ex.run(0, b, nil)
	ex.flushAggs()
	return 0
}

// dropContextsWithin uninstalls st's updater contexts that feed only
// outputs inside r, ahead of re-deriving r: the execution re-installs
// the ones that still hold. A span that went dirty because a source
// range stopped being resident may have missed check-source removals
// while it was away, and a context surviving from before them would
// keep resurrecting their outputs.
func (e *Engine) dropContextsWithin(st *JoinStatus, r keys.Range) {
	j := st.ij.j
	kept := st.updaters[:0]
	for _, u := range st.updaters {
		mine := 0
		u.removeContextsMatching(st, func(c *updCtx) bool {
			if r.ContainsRange(outAffectedRange(j, mergeBinding(st.scanB, c.extra), st.r)) {
				return true
			}
			mine++
			return false
		})
		if mine > 0 {
			kept = append(kept, u)
		}
		if len(u.contexts) == 0 {
			e.dropUpdater(u)
		}
	}
	for i := len(kept); i < len(st.updaters); i++ {
		st.updaters[i] = nil
	}
	st.updaters = kept
}

// removeOutputs deletes stored outputs of ij within r (only keys matching
// the join's output pattern — interleaved joins share ranges, §2.3) and
// invalidates dependent downstream joins rather than updating them, as
// eviction/invalidation semantics require (§2.5).
func (e *Engine) removeOutputs(ij *installedJoin, r keys.Range) {
	e.removeOutputsOp(ij, r, OpRemove)
}

// removeOutputsOp is removeOutputs notifying the given op: migration
// drops computed ranges with OpEvict, which subscription forwarding
// ignores — the data stays valid, it just stops being cached here. When
// every row in r is ij's output — no other join or client row is
// interleaved with them (§2.3) — the rows leave in one Store.RemoveRange
// cut; otherwise they leave key by key.
func (e *Engine) removeOutputsOp(ij *installedJoin, r keys.Range, op ChangeOp) {
	gone := func(k string, old *store.Value) {
		e.notify(Change{Op: op, Key: k, Value: old.String()})
		e.invalidateDependents(k)
	}
	mine := func(k string) bool { _, ok := ij.j.Out.Match(k, st0); return ok }
	interleaved := false
	e.s.Scan(r.Lo, r.Hi, func(k string, _ *store.Value) bool {
		interleaved = !mine(k)
		return !interleaved
	})
	if !interleaved {
		e.s.RemoveRange(r.Lo, r.Hi, gone)
		return
	}
	var doomed []string
	e.s.Scan(r.Lo, r.Hi, func(k string, _ *store.Value) bool {
		if mine(k) {
			doomed = append(doomed, k)
		}
		return true
	})
	for _, k := range doomed {
		if old, ok := e.s.Remove(k); ok {
			gone(k, old)
		}
	}
}

// st0 is the empty binding shared by read-only matches.
var st0 pattern.Binding

// invalidateDependents marks the computed sub-intervals depending on key
// dirty in every join status whose updaters cover it (transitive effects
// happen when those spans recompute). This is the range-granular
// replacement for whole-status invalidation: the affected output
// sub-interval is derived by projecting the source key through the
// join's key transform (the output pattern under the context's merged
// binding), so sibling coverage in the same status stays valid and warm.
// A context whose binding conflicts with the key is skipped outright —
// the key cannot contribute tuples through it.
func (e *Engine) invalidateDependents(key string) {
	var hit []updCtx
	e.updaters.Stab(key, func(en *interval.Entry[*Updater]) bool {
		hit = append(hit, en.Val.contexts...)
		return true
	})
	if len(hit) == 0 {
		return
	}
	now := e.now()
	for i := range hit {
		c := &hit[i]
		js := c.js
		if !js.valid {
			continue // detached while this loop ran
		}
		src := js.ij.j.Sources[c.srcIdx]
		b2, ok := src.Pat.Match(key, mergeBinding(js.scanB, c.extra))
		if !ok {
			continue
		}
		e.markDirty(js, outAffectedRange(js.ij.j, b2, js.r), now)
	}
}

// invalidateRangeDependents is invalidateDependents for a whole range of
// a loader-backed table that stops being resident: every status with an
// updater over part of r goes dirty across the outputs that updater's
// context feeds, whether or not r held any rows. Losing the range loses
// the subscription that kept it fresh, so a key inserted there later
// would never reach the status; the recompute of the dirty span is what
// reloads — and re-subscribes — the whole source range it reads.
func (e *Engine) invalidateRangeDependents(table string, r keys.Range) {
	r = r.Intersect(keys.RangeOf(table)) // a direct scan's presence range can reach past the table
	var hit []updCtx
	e.updaters.Overlap(r.Lo, r.Hi, func(en *interval.Entry[*Updater]) bool {
		hit = append(hit, en.Val.contexts...)
		return true
	})
	now := e.now()
	for i := range hit {
		if js := hit[i].js; js.valid {
			e.markDirty(js, outAffectedRange(js.ij.j, mergeBinding(js.scanB, hit[i].extra), js.r), now)
		}
	}
}

// outAffectedRange returns the sub-interval of clip that outputs
// depending on binding b can occupy: the output key itself when b
// determines it completely (for aggregates that complete key IS the
// group key, since source-only slots never appear in the output
// pattern), otherwise the range under the longest determined output
// prefix — the join's key transform applied to what is known. An
// unbound leading slot widens to the whole clip.
func outAffectedRange(j *join.Join, b pattern.Binding, clip keys.Range) keys.Range {
	if k, ok := j.Out.BuildKey(b); ok {
		return pattern.PointRange(k).Intersect(clip)
	}
	prefix, _ := j.Out.BuildPrefix(b)
	if prefix == "" {
		return clip
	}
	return keys.Range{Lo: prefix, Hi: keys.PrefixEnd(prefix)}.Intersect(clip)
}
