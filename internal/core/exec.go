package core

import (
	"sort"
	"strconv"
	"time"

	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/store"
)

// exec carries the state of one join execution: forward (materializing
// into the store under a join status range) or pull (into an overlay).
type exec struct {
	e    *Engine
	ij   *installedJoin
	st   *JoinStatus // nil for pull executions
	clip keys.Range  // emission clip: st.r, or the requested range for pull

	overlay *[]KV // pull destination

	// out collects a forward execution's rows for land to write in key
	// order; nil writes each row as it is emitted.
	out *outRun

	// aggs accumulates aggregate groups during the run and is flushed at
	// the end; non-aggregate joins leave it nil.
	aggs map[string]*aggState

	installUpd bool // install updaters (push joins only, Fig 5)
	skipIdx    int  // source to skip during log delta application (-1 none)

	// probe marks a discovery pass (see discover): nothing is emitted
	// or installed; missing counts the in-flight loads the execution
	// needs and gaps collects the ones to start.
	probe   bool
	missing int
	gaps    *[]Load
}

// aggState folds one output group for count/sum/min/max.
type aggState struct {
	op  join.Op
	n   int64
	set bool
}

func (a *aggState) add(v string) {
	switch a.op {
	case join.Count:
		a.n++
		a.set = true
	case join.Sum:
		a.n += atoi(v)
		a.set = true
	case join.Min:
		x := atoi(v)
		if !a.set || x < a.n {
			a.n = x
		}
		a.set = true
	case join.Max:
		x := atoi(v)
		if !a.set || x > a.n {
			a.n = x
		}
		a.set = true
	}
}

// atoi parses an aggregate operand; unparsable values count as 0, matching
// the store's schema-free tolerance.
func atoi(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// discover is the first half of every execution over loader-backed
// sources (§3.3): it walks the nested loop the emitting pass will walk,
// but only to make each source range readable — recursing into feeding
// joins and collecting base gaps into *gaps — and emits nothing and
// installs nothing. A source range with loads in flight cannot be
// enumerated yet, so the walk stops there and the next round of
// discovery (after those loads land) finds what lies below it. It
// returns the number of in-flight loads the execution needs; zero means
// everything is resident and the emitting pass runs to completion. The
// invariant this buys: an execution that finds data missing leaves no
// output row and no updater behind, so the restart has nothing to tear
// down and the join's emitting pass runs exactly once per cold read.
func (e *Engine) discover(ij *installedJoin, clip keys.Range, b pattern.Binding, skipIdx int, gaps *[]Load) (missing int) {
	ex := &exec{e: e, ij: ij, clip: clip, skipIdx: skipIdx, probe: true, gaps: gaps}
	ex.run(0, b, nil)
	if ex.missing > 0 {
		e.stats.Restarts++
	}
	return ex.missing
}

// probe is discover for one whole execution, starting its gaps' loads
// as one batch. Joins with no loader-backed source skip it.
func (e *Engine) probe(ij *installedJoin, clip keys.Range, b pattern.Binding, skipIdx int) (missing int) {
	if !ij.probes {
		return 0
	}
	var gaps []Load
	missing = e.discover(ij, clip, b, skipIdx, &gaps)
	e.startLoads(gaps)
	return missing
}

// forwardExec materializes the join over gap: once everything it reads
// is resident it creates a join status range, installs updaters as it
// goes (Fig 5), and emits outputs into the store. While base data is
// missing it only starts the loads and returns how many are in flight —
// the restart context is the caller's LoadWait, nothing in the store.
func (e *Engine) forwardExec(ij *installedJoin, gap keys.Range) (pending int) {
	e.stats.JoinExecs++
	b, clip := ij.j.Out.ScanBinding(gap)
	if !clip.Empty() {
		if pending = e.probe(ij, gap, b, -1); pending > 0 {
			return pending
		}
	}
	st := &JoinStatus{ij: ij, r: gap, scanB: b, valid: true}
	ij.status.add(st)
	if ij.j.Maint == join.Snapshot {
		st.expires = e.now().Add(ij.j.SnapshotT)
	}
	e.lruTouch(st)

	if clip.Empty() {
		// Nothing in this gap can match the output pattern (e.g. a scan
		// over an interleaving literal the pattern doesn't produce); the
		// range is trivially valid and stays empty.
		return 0
	}

	ex := &exec{
		e:          e,
		ij:         ij,
		st:         st,
		clip:       gap,
		installUpd: ij.j.Maint == join.Push,
		skipIdx:    -1,
	}
	switch {
	case ij.j.IsAggregate():
		ex.aggs = make(map[string]*aggState)
	case !e.opts.DisableOutputHints && !e.emitOrder:
		ex.out = e.takeOut()
	}
	ex.run(0, b, nil)
	ex.flushAggs()
	ex.land()
	return 0
}

// land writes the rows a forward execution collected through its output
// hint (§4.2) in key order, each through applyValue, so the last emit of
// a key wins and the rows fill the leaves they go to one after another.
func (ex *exec) land() {
	o := ex.out
	if o == nil {
		return
	}
	ks, vs := o.sorted()
	for i, k := range ks {
		ex.e.applyValue(k, vs[i], &ex.st.hint)
	}
	o.reset()
	ex.e.outBuf = o
}

// takeOut returns the engine's row buffer for a forward execution, or
// a new one when an execution further up the stack holds it.
func (e *Engine) takeOut() *outRun {
	o := e.outBuf
	e.outBuf = nil
	if o == nil {
		o = &outRun{}
	}
	return o
}

// execPull computes a pull join over rr, appending to overlay (§3.4):
// from scratch, no caching, no updaters. It returns the grown overlay.
func (e *Engine) execPull(ij *installedJoin, rr keys.Range, overlay []KV) ([]KV, int) {
	e.stats.PullExecs++
	b, clip := ij.j.Out.ScanBinding(rr)
	if clip.Empty() {
		return overlay, 0
	}
	if pending := e.probe(ij, rr, b, -1); pending > 0 {
		return overlay, pending
	}
	ex := &exec{e: e, ij: ij, clip: rr, overlay: &overlay, skipIdx: -1}
	if ij.j.IsAggregate() {
		ex.aggs = make(map[string]*aggState)
	}
	start := len(overlay)
	ex.run(0, b, nil)
	ex.flushAggs()
	// Keep the overlay sorted: each pull execution emits in source order,
	// which for a single value source follows output order per binding
	// group but not across groups; sort the fresh segment.
	seg := overlay[start:]
	sort.Slice(seg, func(i, k int) bool { return seg[i].Key < seg[k].Key })
	return overlay, 0
}

// run is the nested-loop join (Fig 3): enumerate sources in user order,
// clipping each to its containing range, and emit when every source has
// contributed a consistent key.
func (ex *exec) run(idx int, b pattern.Binding, val *store.Value) {
	j := ex.ij.j
	if idx == len(j.Sources) {
		ex.emit(b, val)
		return
	}
	if idx == ex.skipIdx {
		// Delta application: this source is pinned to the logged key,
		// already folded into b.
		ex.run(idx+1, b, val)
		return
	}
	src := j.Sources[idx]
	cr := pattern.ContainingRange(src.Pat, j.Out, b, ex.clip)
	if cr.Empty() {
		return
	}

	switch {
	case ex.probe:
		// Resolve missing data (§3.3): the source range may be another
		// join's output (recursive execution) or uncached base data
		// (async fetch). Keys still on their way cannot be enumerated,
		// and below the last source there is nothing left to discover.
		if m := ex.e.ensureSource(src.Pat.Table(), cr, ex.gaps); m > 0 {
			ex.missing += m
			return
		}
		if !ex.sourcesAfter(idx) {
			return
		}
	case !ex.ij.probes:
		// No discovery pass ran (nothing upstream can be missing), so
		// feeding joins are freshened here instead.
		ex.e.ensureSourceJoins(src.Pat.Table(), cr, 0)
	}

	// Fig 5: add updater from the containing range to the join status,
	// before enumerating.
	if ex.installUpd {
		ex.e.installUpdater(ex.st, idx, b, cr)
	}

	isValue := idx == j.ValueSource
	visit := func(k string, v *store.Value) {
		b2, ok := src.Pat.Match(k, b)
		if !ok {
			return // schema-free store: foreign keys in range
		}
		if isValue {
			ex.run(idx+1, b2, v)
		} else {
			ex.run(idx+1, b2, val)
		}
	}
	if len(ex.e.outJoins[src.Pat.Table()]) > 0 {
		// The scanned table is itself some join's output: cascaded eager
		// maintenance triggered by our emissions could mutate it while we
		// iterate. Snapshot the (small, usually point-sized) range first.
		var snap []KV
		ex.e.s.Scan(cr.Lo, cr.Hi, func(k string, v *store.Value) bool {
			snap = append(snap, KV{k, v.String()})
			return true
		})
		for _, kv := range snap {
			visit(kv.Key, store.NewValue(kv.Value))
		}
		return
	}
	ex.e.s.Scan(cr.Lo, cr.Hi, func(k string, v *store.Value) bool {
		visit(k, v)
		return true
	})
}

// sourcesAfter reports whether the loop visits a source below idx.
func (ex *exec) sourcesAfter(idx int) bool {
	for i := idx + 1; i < len(ex.ij.j.Sources); i++ {
		if i != ex.skipIdx {
			return true
		}
	}
	return false
}

// emit produces one output for the tuple bound by b. Aggregates fold into
// groups; copies install (or overlay) the value.
func (ex *exec) emit(b pattern.Binding, val *store.Value) {
	if ex.probe {
		return
	}
	j := ex.ij.j
	outKey, ok := j.Out.BuildKey(b)
	if !ok || !ex.clip.Contains(outKey) {
		return
	}
	if ex.aggs != nil {
		a := ex.aggs[outKey]
		if a == nil {
			a = &aggState{op: j.ValueOp()}
			ex.aggs[outKey] = a
		}
		a.add(val.String())
		return
	}
	ex.install(outKey, val)
}

// install writes one output pair to the store (forward) or overlay (pull),
// honoring value sharing (§4.3) and output hints (§4.2).
func (ex *exec) install(outKey string, val *store.Value) {
	if ex.overlay != nil {
		*ex.overlay = append(*ex.overlay, KV{outKey, val.String()})
		return
	}
	v := val
	if ex.e.opts.DisableValueSharing {
		v = store.NewValue(val.String())
	}
	if ex.out != nil {
		ex.out.add(outKey, v)
		return
	}
	ex.e.applyValue(outKey, v, &ex.st.hint)
}

// flushAggs installs accumulated aggregate groups.
func (ex *exec) flushAggs() {
	if ex.aggs == nil {
		return
	}
	// Deterministic order aids tests and keeps hint locality.
	ks := make([]string, 0, len(ex.aggs))
	for k := range ex.aggs {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		a := ex.aggs[k]
		if !a.set {
			continue
		}
		if ex.overlay != nil {
			*ex.overlay = append(*ex.overlay, KV{k, itoa(a.n)})
		} else {
			ex.e.applyValue(k, store.NewValue(itoa(a.n)), &ex.st.hint)
		}
	}
}

// ensureSource makes a source range readable: recursively computing any
// joins that output into it, and collecting the gaps of loader-backed
// base tables into *gaps. Returns the number of loads in flight. Always
// fresh (zero budget): it feeds forward executions and dirty
// recomputes, and newly derived coverage is computed from current
// sources even on a bounded read — the bounded win applies to
// already-materialized coverage.
func (e *Engine) ensureSource(table string, cr keys.Range, gaps *[]Load) (missing int) {
	missing = e.ensureSourceJoins(table, cr, 0)
	if pt := e.presence[table]; pt != nil {
		missing += e.ensurePresent(table, pt, cr, gaps)
	}
	return missing
}

// ensureSourceJoins recursively freshens the joins that output into a
// source table over cr — shared by ensureSource and ensure's Pass 0,
// which deliberately skips the presence/loader half. maxStale cascades
// a bounded read's budget: a source join's within-budget staleness may
// be served, keeping the dependent's result stale by the same bound.
func (e *Engine) ensureSourceJoins(table string, cr keys.Range, maxStale time.Duration) (missing int) {
	for _, sub := range e.outJoins[table] {
		if sub.j.Maint == join.Pull {
			// Pull joins never materialize, so they cannot feed other
			// joins; feeders (like the celebrity ct| helper range) are
			// push or snapshot joins. Documented limitation.
			continue
		}
		n, _ := e.ensure(sub, cr, maxStale)
		missing += n
	}
	return missing
}

// applyLogs applies pending partial-invalidation entries to a status
// (§3.2): each logged check-source modification is turned into the
// minimal delta join. Discovery runs first over every entry, as one
// batch of loads; if any delta needs base data that is not resident the
// whole log stays pending, in order, and the status — still valid,
// still readable under a staleness budget — retries it on the read
// after the loads land. Entries whose shape the delta join cannot
// handle (aggregates through check changes) fall back range-granularly:
// only the output sub-interval the logged key can affect is marked
// dirty — stamped at the write's landing time, so bounded reads age it
// honestly — and the caller's dirty recompute re-derives it, leaving
// the rest of the status's coverage warm.
func (e *Engine) applyLogs(st *JoinStatus) (pending int) {
	if st.ij.probes {
		var gaps []Load
		for _, le := range st.logs {
			pending += e.discoverDelta(st, le, &gaps)
		}
		e.startLoads(gaps)
		if pending > 0 {
			return pending
		}
	}
	logs := st.logs
	st.logs = nil
	for _, le := range logs {
		e.stats.LogsApplied++
		if e.applyCheckDelta(st, le) {
			continue
		}
		src := st.ij.j.Sources[le.srcIdx]
		if b2, ok := src.Pat.Match(le.key, st.scanB); ok {
			e.markDirty(st, outAffectedRange(st.ij.j, b2, st.r), le.at)
		}
	}
	return 0
}

// deltaReads reports whether applying le runs a delta join over the
// other sources — a fresh key on a non-aggregate join — and under which
// binding. Every other shape only touches outputs already stored.
func deltaReads(st *JoinStatus, le logEntry) (pattern.Binding, bool) {
	j := st.ij.j
	if le.op != OpPut || le.had || j.IsAggregate() {
		return pattern.Binding{}, false
	}
	return j.Sources[le.srcIdx].Pat.Match(le.key, st.scanB)
}

// discoverDelta is the discovery pass of one logged modification's
// delta join.
func (e *Engine) discoverDelta(st *JoinStatus, le logEntry, gaps *[]Load) (missing int) {
	bk, ok := deltaReads(st, le)
	if !ok {
		return 0
	}
	return e.discover(st.ij, st.r, bk, le.srcIdx, gaps)
}

// deltaBlocked runs the discovery of an eager check delta, starting the
// loads it needs, and reports whether any are in flight.
func (e *Engine) deltaBlocked(st *JoinStatus, le logEntry) bool {
	bk, ok := deltaReads(st, le)
	return ok && e.probe(st.ij, st.r, bk, le.srcIdx) > 0
}

// applyCheckDelta applies one check-source modification to a status:
// the delta-join core shared by lazy log application and eager check
// maintenance (§3.2 and the "more control over maintenance type" the
// paper asks for). The caller has run its discovery: everything the
// delta reads is resident. Returns false when the shape is unsupported
// (aggregate joins through check changes) and the affected outputs must
// recompute.
func (e *Engine) applyCheckDelta(st *JoinStatus, le logEntry) bool {
	j := st.ij.j
	srcIdx := le.srcIdx
	src := j.Sources[srcIdx]
	bk, ok := src.Pat.Match(le.key, st.scanB)
	if !ok {
		return true // outside this status's slot context
	}
	switch le.op {
	case OpPut:
		if le.had {
			// Value update on a check source: key set unchanged, and
			// check values are uninteresting — nothing to do.
			return true
		}
		if j.IsAggregate() {
			// Aggregate deltas through check-source changes need the
			// group recomputed; fall back.
			return false
		}
		ex := &exec{
			e:          e,
			ij:         st.ij,
			st:         st,
			clip:       st.r,
			installUpd: true,
			skipIdx:    srcIdx,
		}
		ex.run(0, bk, nil)
	case OpRemove, OpEvict:
		if j.IsAggregate() {
			return false
		}
		// Remove outputs derived from this check key: output keys
		// matching the pattern under bk inside the status range.
		var doomed []string
		e.s.Scan(st.r.Lo, st.r.Hi, func(k string, v *store.Value) bool {
			if _, ok := j.Out.Match(k, bk); ok {
				doomed = append(doomed, k)
			}
			return true
		})
		for _, k := range doomed {
			e.removeInternal(k)
		}
		// Uninstall value-source updater contexts so future source
		// writes don't resurrect the outputs. Contexts are stored
		// compressed, so identify them by their updater's source
		// range: it must lie within the containing range the removed
		// check key implies — the same formula installation used.
		vs := j.Sources[j.ValueSource]
		rmRange := pattern.ContainingRange(vs.Pat, j.Out, bk, st.r)
		for _, u := range st.updaters {
			if !rmRange.ContainsRange(u.entry.Range()) {
				continue
			}
			u.removeContextsMatching(st, func(c *updCtx) bool {
				if c.srcIdx != j.ValueSource {
					return false
				}
				// Merged updaters carry contexts for other tuples
				// (e.g. other users following the same poster); only
				// drop contexts consistent with the removed check key.
				return bindingConsistent(c.binding(st.scanB), bk)
			})
			if len(u.contexts) == 0 {
				e.dropUpdater(u)
			}
		}
	}
	return true
}

// mergeBinding overlays extra onto base (extra wins on conflicts; none
// occur in practice since compression removes overlap).
func mergeBinding(base, extra pattern.Binding) pattern.Binding {
	out := base
	for i := 0; i < pattern.MaxSlots; i++ {
		if v, ok := extra.Get(i); ok {
			out = out.With(i, v)
		}
	}
	return out
}

// bindingConsistent reports whether a and b agree on every slot bound in
// both.
func bindingConsistent(a, b pattern.Binding) bool {
	for i := 0; i < pattern.MaxSlots; i++ {
		if bv, ok := b.Get(i); ok {
			if av, ok2 := a.Get(i); ok2 && av != bv {
				return false
			}
		}
	}
	return true
}
