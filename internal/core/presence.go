package core

import (
	"pequod/internal/keys"
	"pequod/internal/store"
)

// presenceTable tracks which ranges of a loader-backed base table are
// resident in the cache (§3.3: "the data is loaded and metadata is
// installed to indicate its presence"): disjoint presence records.
type presenceTable struct {
	cover[*presRange]
	tr keys.Range // the keys a read of the table can reach, built once
}

// presRange is one resident (or in-flight) base range. A held record
// (Hold) is resident for good: the LRU never sees it.
type presRange struct {
	table   string
	r       keys.Range
	loading bool
	held    bool
	// waiters lists the reads parked until this load resolves — lands,
	// fails, or is abandoned by a migration. Empty once resident.
	waiters []*LoadWait
	lru     lruEntry[*presRange]
}

func (pr *presRange) span() keys.Range { return pr.r }

// LoadWait is a read's restart context (§3.3): the read found base data
// missing, installed nothing, and retries when every load it is waiting
// for has resolved. Each in-flight range counts the wait down once, so
// a read blocked on k parallel loads wakes when the last one lands, not
// k times. The engine mutates it under the caller's serialization; only
// Done may be used outside it.
type LoadWait struct {
	n    int           // loads still outstanding
	done chan struct{} // closed when n reaches zero
}

// Done is closed once every load the read waits for has resolved.
func (w *LoadWait) Done() <-chan struct{} { return w.done }

// LoadWait detaches and returns the restart context of the read that
// just reported pending loads (nil if it reported none).
func (e *Engine) LoadWait() *LoadWait {
	w := e.wait
	e.wait = nil
	return w
}

// await parks the read in progress on pr's load.
func (e *Engine) await(pr *presRange) {
	if e.wait == nil || e.wait.n == 0 {
		// None yet, or one whose loads all resolved already (a loader
		// completing inline, or a context nobody collected).
		e.wait = &LoadWait{done: make(chan struct{})}
	}
	for _, w := range pr.waiters {
		if w == e.wait {
			return // one read meets the same load in its discovery and in cascades
		}
	}
	pr.waiters = append(pr.waiters, e.wait)
	e.wait.n++
}

// release counts pr's resolved load down on every read parked on it:
// work proportional to the waiters of this one range, whatever else the
// engine has materialized.
func (e *Engine) release(pr *presRange) {
	for _, w := range pr.waiters {
		if w.n--; w.n == 0 {
			close(w.done)
		}
	}
	pr.waiters = nil
}

// dropLoading abandons pr's in-flight load: the record goes (the late
// result's rows are dropped and its LoadComplete matches nothing) and
// parked reads retry, restarting the load if they still need it.
func (e *Engine) dropLoading(pt *presenceTable, pr *presRange) {
	pt.drop(pr)
	e.release(pr)
}

// ensurePresent checks residency of cr, appending the gaps to *gaps for
// the caller to start in one batch (startLoads). It returns the number
// of ranges still in flight (both the new gaps and loads already
// outstanding) and parks the read in progress on each.
func (e *Engine) ensurePresent(table string, pt *presenceTable, cr keys.Range, gaps *[]Load) (pending int) {
	pt.walk(cr, func(pr *presRange) bool {
		if pr.loading {
			pending++
			e.await(pr)
		} else {
			e.presTouch(pr)
		}
		return true
	}, func(gap keys.Range) {
		pr := &presRange{table: table, r: gap, loading: true}
		pt.add(pr)
		e.stats.LoadsStarted++
		pending++
		e.await(pr)
		*gaps = append(*gaps, Load{Table: table, R: gap})
	})
	return pending
}

// startLoads hands one execution's gaps to the loader in a single call.
func (e *Engine) startLoads(gaps []Load) {
	if len(gaps) == 0 {
		return
	}
	e.stats.LoadBatches++
	e.loader.StartLoads(gaps)
}

// loadingRecord returns the in-flight presence record a loader's result
// names, or nil when the load was abandoned meanwhile.
func (e *Engine) loadingRecord(table string, r keys.Range) (*presenceTable, *presRange) {
	pt := e.presence[table]
	if pt == nil {
		return nil, nil
	}
	if pr, ok := pt.at(r.Lo); ok && pr.r == r && pr.loading {
		return pt, pr
	}
	return nil, nil
}

// LoadRows installs the rows a loader fetched (running maintenance like
// any other base write), ahead of the LoadComplete calls that mark
// their ranges resident — how a load, or a batch of them, lands: all
// the rows, then the marks. Only rows inside a loading record land.
// Rows whose load was abandoned meanwhile (migration, failure) lie
// outside every presence record, where they would be unevictable and
// cut off from the subscription that keeps them fresh; rows of a load a
// hold took over (Hold) lie in a resident record, whose copy is newer
// than the late snapshot. Both are dropped.
func (e *Engine) LoadRows(kvs []KV) {
	for _, kv := range kvs {
		if pt := e.presence[keys.Table(kv.Key)]; pt != nil {
			if pr, ok := pt.at(kv.Key); ok && pr.loading {
				e.applyValue(kv.Key, store.NewValue(kv.Value), nil)
			}
		}
	}
}

// Hold makes r a member's replica copy of a range homed elsewhere,
// kept fresh by its hold's subscription: whatever the engine had in r
// is dropped (DropRange — an in-flight load is abandoned, its late rows
// dropped by LoadRows), then r is marked resident for good in every
// loader-backed table it reaches, for the copy's rows to land in. A
// held record never enters the LRU, so evictIfNeeded cannot reach the
// copy; joins find it resident and start no load for it, and Tracks
// admits the hold's pushes. DropRange and clipPresence remove it as
// they remove any record; a clipped record's sides stay held. Tables
// that are not loader-backed need no record: their rows are never
// evicted and Tracks admits them anyway. A member's tables become
// loader-backed with its first gate, before any hold is granted, so no
// hold lands ahead of its table's presence record.
func (e *Engine) Hold(r keys.Range) {
	e.DropRange(r)
	for table, pt := range e.presence {
		if rr := r.Intersect(pt.tr); !rr.Empty() {
			pt.add(&presRange{table: table, r: rr, held: true})
		}
	}
}

// LoadComplete marks a load the loader was handed by StartLoads, and
// whose rows LoadRows has installed, resident, and counts down the reads
// parked on it. A restarted read then behaves as if executed from
// scratch (§3.3) — and since it installed nothing while data was
// missing, it executes its join exactly once. A load abandoned
// meanwhile has no record left to mark.
func (e *Engine) LoadComplete(table string, r keys.Range) {
	if _, pr := e.loadingRecord(table, r); pr != nil {
		pr.loading = false
		e.presTouch(pr)
		e.release(pr)
	}
}

// LoadFailed abandons a load that could not be satisfied (the remote
// owner refused — e.g. the range migrated away mid-fetch — or the
// transport died): the loading record is dropped so nothing is falsely
// marked resident, and parked reads retry, which restarts the load — by
// then against a refreshed owner map.
func (e *Engine) LoadFailed(table string, r keys.Range) {
	if pt, pr := e.loadingRecord(table, r); pr != nil {
		e.stats.LoadsFailed++
		e.dropLoading(pt, pr)
	}
}

// Tracks reports whether a replicated change to key has somewhere to
// land: its table is not loader-backed, or key lies inside a presence
// record (resident, or loading — the snapshot in flight is older than
// the change). A subscription push for a range this engine has evicted
// must be dropped instead of applied; the row would be untracked by the
// LRU and go stale once the subscription lapses.
func (e *Engine) Tracks(key string) bool {
	pt := e.presence[keys.Table(key)]
	if pt == nil {
		return true
	}
	_, ok := pt.at(key)
	return ok
}

// evictPresence drops a resident base range under memory pressure: its
// keys are removed (with OpEvict, which subscription forwarding ignores)
// and dependent computed ranges are invalidated (§2.5).
func (e *Engine) evictPresence(pr *presRange) {
	pt := e.presence[pr.table]
	if pt == nil || !pt.drop(pr) {
		return
	}
	e.evictRows(pr.r, false)
	e.invalidateRangeDependents(pr.table, pr.r)
}
