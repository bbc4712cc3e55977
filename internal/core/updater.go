package core

import (
	"slices"
	"strings"

	"pequod/internal/interval"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/store"
)

// updCtx is one updater context: "a cache join, a slot set, and a join
// status range" (§3.2). The slot set is stored compressed: slots
// derivable from the status's scan binding or from the matched source key
// are omitted ("compressing or eliminating the context information stored
// with updaters", §3.2). What compression leaves is extra, nil when it
// leaves nothing (every Twip context), so a context stays a few words
// and a write's snapshot of its updaters' contexts copies little.
type updCtx struct {
	js     *JoinStatus
	srcIdx int
	extra  *pattern.Binding
	lazy   bool
}

// binding is the context's slot set: base, its status's scan binding,
// with the compressed-away extra slots put back.
func (c *updCtx) binding(base pattern.Binding) pattern.Binding {
	if c.extra == nil {
		return base
	}
	return mergeBinding(base, *c.extra)
}

// Updater links a range of source keys with one or more contexts.
// Overlapping installations against the same source range merge into a
// single Updater by appending contexts — the paper's updater-merging
// optimization. A source range lies inside its table, so the range alone
// names the updater.
type Updater struct {
	entry    *interval.Entry[*Updater]
	contexts []updCtx
}

func (u *Updater) removeContextsOf(js *JoinStatus) {
	u.removeContextsMatching(js, func(*updCtx) bool { return true })
}

// removeContextsMatching removes js's contexts that pred accepts. A
// removed context is replaced by the last one (an updater's context order
// carries no meaning), so a detach moves at most one context per removal
// instead of copying every survivor.
func (u *Updater) removeContextsMatching(js *JoinStatus, pred func(*updCtx) bool) {
	cs := u.contexts
	for i := 0; i < len(cs); {
		if c := &cs[i]; c.js == js && pred(c) {
			last := len(cs) - 1
			cs[i] = cs[last]
			cs[last] = updCtx{} // drop the pointers it held
			cs = cs[:last]
			continue
		}
		i++
	}
	u.contexts = cs
}

// installUpdater attaches an updater covering cr for source srcIdx of
// st's join, with context binding b (Fig 5). Check sources get lazy
// (invalidating) updaters; all others are eager — the paper's prototype
// policy (§3.2).
func (e *Engine) installUpdater(st *JoinStatus, srcIdx int, b pattern.Binding, cr keys.Range) {
	if cr.Empty() {
		return
	}
	j := st.ij.j
	src := j.Sources[srcIdx]
	// Maintenance policy (§3.2): lazy invalidation for check sources,
	// eager for all others — unless the join overrides it per source
	// with an eager/lazy prefix (the control the paper's discussion
	// asks for).
	lazy := src.Op == join.Check
	switch src.Mode {
	case join.ModeEager:
		lazy = false
	case join.ModeLazy:
		lazy = true
	}

	// Context compression: drop slots recoverable from the status's scan
	// binding or from any matched source key. A slot kept is cloned: it
	// may be part of a key a scan handed out, a view that holds a whole
	// leaf's arena alive (btree.Tree.Ascend), and the context outlives
	// the scan.
	derivable := st.scanB.Mask() | src.Pat.Slots()
	compressed := pattern.Binding{}
	for i := 0; i < pattern.MaxSlots; i++ {
		if v, ok := b.Get(i); ok && (derivable>>i)&1 == 0 {
			compressed = compressed.With(i, strings.Clone(v))
		}
	}
	var extra *pattern.Binding
	if compressed.Mask() != 0 {
		kept := compressed // a copy escapes; compressed stays on the stack
		extra = &kept
	}

	var u *Updater
	if en := e.updaters.Find(cr.Lo, cr.Hi); en != nil {
		u = en.Val
		e.stats.UpdatersMerged++
	} else {
		u = &Updater{}
		u.entry = e.updaters.Insert(cr.Lo, cr.Hi, u)
		e.stats.UpdatersInstalled++
	}
	// A status has contexts only in the updaters it lists, so only a
	// listed updater can already hold this one (a re-ensure of the same
	// status): a merged updater's contexts for other statuses — one per
	// follower of a poster — go unscanned.
	listed := slices.Contains(st.updaters, u)
	if listed {
		for i := range u.contexts {
			c := &u.contexts[i]
			if c.js == st && c.srcIdx == srcIdx && c.lazy == lazy && c.binding(pattern.Binding{}) == compressed {
				return
			}
		}
	}
	u.contexts = append(u.contexts, updCtx{js: st, srcIdx: srcIdx, extra: extra, lazy: lazy})
	if !listed {
		st.updaters = append(st.updaters, u) // for uninstallation
	}
}

// dropUpdater removes an updater with no live contexts. A status may
// still list an updater dropped earlier; dropping it again is a no-op.
func (e *Engine) dropUpdater(u *Updater) { e.updaters.Delete(u.entry) }

// fireUpdaters runs incremental maintenance for a modification of key:
// "Whenever Pequod modifies its store, it finds all updaters applicable
// to the modified key and runs the indicated incremental maintenance for
// each" (§3.2). old/new describe the change (nil old = insert, nil new =
// remove).
func (e *Engine) fireUpdaters(key string, old, new *store.Value) {
	// Collect first: firing may mutate the index (aggregate outputs
	// cascading, context uninstalls).
	var hits []*Updater
	e.updaters.Stab(key, func(en *interval.Entry[*Updater]) bool {
		hits = append(hits, en.Val)
		return true
	})
	for _, u := range hits {
		// Contexts may be appended during cascaded firing; iterate a
		// snapshot.
		ctxs := make([]updCtx, len(u.contexts))
		copy(ctxs, u.contexts)
		for i := range ctxs {
			e.fireContext(&ctxs[i], key, old, new)
		}
	}
}

func (e *Engine) fireContext(c *updCtx, key string, old, new *store.Value) {
	js := c.js
	if !js.valid {
		return // detached while the firing loop ran; its outputs are gone
	}
	e.stats.UpdaterFires++
	j := js.ij.j
	src := j.Sources[c.srcIdx]
	if c.lazy || c.srcIdx != j.ValueSource {
		op := OpPut
		if new == nil {
			op = OpRemove
		}
		le := logEntry{srcIdx: c.srcIdx, key: key, op: op, had: old != nil, at: e.now()}
		// Lazy maintenance for check sources: log a partial invalidation
		// to be applied on the next read (§3.2). The stamp lets bounded
		// reads age the unapplied entry against their budget. An eager
		// check source (per-source eager mode) applies the delta join
		// now — unless the delta needs base data that is not resident,
		// or an earlier entry of this source is still waiting for some:
		// then it joins the log, in order, and the next read retries it.
		if c.lazy || js.logged(c.srcIdx) || e.deltaBlocked(js, le) {
			js.logs = append(js.logs, le)
			return
		}
		if !e.applyCheckDelta(js, le) {
			// Unsupported shape (aggregates through check deltas):
			// range-granular fallback — only the output sub-interval the
			// key can affect goes dirty, not the whole status.
			if b2, ok := src.Pat.Match(key, js.scanB); ok {
				e.markDirty(js, outAffectedRange(j, b2, js.r), le.at)
			}
		}
		return
	}
	b2, ok := src.Pat.Match(key, c.binding(js.scanB))
	if !ok {
		return
	}
	switch j.ValueOp() {
	case join.Copy:
		outKey, ok := j.Out.BuildKey(b2)
		if !ok || !js.r.Contains(outKey) {
			return
		}
		if new == nil {
			e.removeInternal(outKey)
			return
		}
		v := new
		if e.opts.DisableValueSharing {
			v = store.NewValue(new.String())
		}
		e.applyValue(outKey, v, &js.hint)

	case join.Count, join.Sum:
		outKey, okk := e.aggOutKey(j, b2)
		if !okk || !js.r.Contains(outKey) {
			return
		}
		if len(j.Sources) > 1 && !e.checkTuplesExist(j, b2) {
			return
		}
		var delta int64
		isCount := j.ValueOp() == join.Count
		switch {
		case old == nil && new != nil: // insert
			if isCount {
				delta = 1
			} else {
				delta = atoi(new.String())
			}
		case old != nil && new == nil: // remove
			if isCount {
				delta = -1
			} else {
				delta = -atoi(old.String())
			}
		default: // update
			if !isCount {
				delta = atoi(new.String()) - atoi(old.String())
			}
		}
		if delta == 0 {
			return
		}
		cur := int64(0)
		exists := false
		if v, ok := e.s.Get(outKey); ok {
			cur = atoi(v.String())
			exists = true
		}
		next := cur + delta
		if isCount && next <= 0 {
			if exists {
				e.removeInternal(outKey)
			}
			return
		}
		e.applyValue(outKey, store.NewValue(itoa(next)), &js.hint)

	case join.Min, join.Max:
		outKey, okk := e.aggOutKey(j, b2)
		if !okk || !js.r.Contains(outKey) {
			return
		}
		if len(j.Sources) > 1 && !e.checkTuplesExist(j, b2) {
			return
		}
		isMin := j.ValueOp() == join.Min
		better := func(x, cur int64) bool {
			if isMin {
				return x < cur
			}
			return x > cur
		}
		curV, exists := e.s.Get(outKey)
		cur := int64(0)
		if exists {
			cur = atoi(curV.String())
		}
		switch {
		case old == nil && new != nil: // insert: extremum can only improve
			x := atoi(new.String())
			if !exists || better(x, cur) {
				e.applyValue(outKey, store.NewValue(itoa(x)), &js.hint)
			}
		case new == nil: // remove: recompute if the extremum departed
			if exists && atoi(old.String()) == cur {
				e.recomputeAggGroup(js, b2, outKey)
			}
		default: // update
			x := atoi(new.String())
			switch {
			case !exists || better(x, cur):
				e.applyValue(outKey, store.NewValue(itoa(x)), &js.hint)
			case atoi(old.String()) == cur && x != cur:
				// The previous extremum holder moved to a worse value.
				e.recomputeAggGroup(js, b2, outKey)
			}
		}
	}
}

// aggOutKey builds the aggregate output key from the binding restricted
// to output slots (source-only slots vary across the folded group).
func (e *Engine) aggOutKey(j *join.Join, b pattern.Binding) (string, bool) {
	group := pattern.Binding{}
	mask := j.Out.Slots()
	for i := 0; i < pattern.MaxSlots; i++ {
		if (mask>>i)&1 == 1 {
			v, ok := b.Get(i)
			if !ok {
				return "", false
			}
			group = group.With(i, v)
		}
	}
	return j.Out.BuildKey(group)
}

// checkTuplesExist verifies that every check source of an aggregate join
// has at least one matching tuple under b — guarding eager aggregate
// deltas against firing for tuples whose check constraints no longer
// hold.
func (e *Engine) checkTuplesExist(j *join.Join, b pattern.Binding) bool {
	for i, s := range j.Sources {
		if i == j.ValueSource {
			continue
		}
		cr := pattern.ContainingRange(s.Pat, j.Out, b, s.Pat.TableRange())
		found := false
		e.s.Scan(cr.Lo, cr.Hi, func(k string, v *store.Value) bool {
			if _, ok := s.Pat.Match(k, b); ok {
				found = true
				return false
			}
			return true
		})
		if !found {
			return false
		}
	}
	return true
}

// recomputeAggGroup recomputes one aggregate output key from scratch by
// folding its value-source containing range (used when a min/max extremum
// departs).
func (e *Engine) recomputeAggGroup(js *JoinStatus, b pattern.Binding, outKey string) {
	j := js.ij.j
	group := pattern.Binding{}
	mask := j.Out.Slots()
	for i := 0; i < pattern.MaxSlots; i++ {
		if (mask>>i)&1 == 1 {
			if v, ok := b.Get(i); ok {
				group = group.With(i, v)
			}
		}
	}
	src := j.Sources[j.ValueSource]
	cr := pattern.ContainingRange(src.Pat, j.Out, group, pattern.PointRange(outKey))
	a := &aggState{op: j.ValueOp()}
	e.s.Scan(cr.Lo, cr.Hi, func(k string, v *store.Value) bool {
		if _, ok := src.Pat.Match(k, group); ok {
			a.add(v.String())
		}
		return true
	})
	if !a.set {
		e.removeInternal(outKey)
		return
	}
	e.applyValue(outKey, store.NewValue(itoa(a.n)), &js.hint)
}
