// Package core implements the Pequod cache-join engine: query execution
// (§3.1), incremental maintenance (§3.2), missing-data resolution (§3.3),
// and performance annotations (§3.4), layered over the ordered store of
// package store.
//
// An Engine is single-writer, exactly like the paper's single-threaded
// event-driven server; the network server serializes access to it, and
// scale-out runs many engines partitioned by key range (§2.4, §5.5).
// GetClean and ScanClean alone write nothing, so they may run beside
// each other (clean.go).
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"pequod/internal/interval"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/pattern"
	"pequod/internal/store"
)

// KV is one key-value pair in a scan result.
type KV struct {
	Key   string
	Value string
}

// Lookup is one result of a batched point read: the value and whether
// the key existed.
type Lookup struct {
	Value string
	Found bool
}

// ChangeOp classifies a store mutation reported through OnChange.
type ChangeOp int

const (
	// OpPut is an insert of a new key or update of an existing one.
	OpPut ChangeOp = iota
	// OpRemove is a removal requested by a client or by maintenance.
	OpRemove
	// OpEvict is a removal due to memory pressure; replicas are not told
	// to drop evicted data (it remains valid, just no longer cached
	// here), so subscription forwarding ignores these.
	OpEvict
)

// Change describes one store mutation, for cross-server subscriptions.
type Change struct {
	Op    ChangeOp
	Key   string
	Value string // new value for OpPut; previous value otherwise
}

// Load names one missing range of a loader-backed base table.
type Load struct {
	Table string
	R     keys.Range
}

// BaseLoader loads missing base data from a backing database or a remote
// home server (§3.3). StartLoads receives every gap one execution
// discovered, in one call, and must not block: it runs on the goroutine
// driving the engine. Each load must eventually be resolved — LoadRows
// with what was fetched, then LoadComplete with the same table and
// range; or LoadFailed — under the same serialization as every other
// engine entry point (the shard lock). The slice belongs to the loader.
type BaseLoader interface {
	StartLoads(loads []Load)
}

// Options configure an Engine. The zero value enables every paper
// optimization; the ablation benchmarks switch them off individually.
type Options struct {
	// DisableOutputHints turns off §4.2 output hints: join outputs are
	// written by descent, and a warm scan no longer starts at its
	// status's hint either, so the ablation removes both.
	DisableOutputHints bool
	// DisableValueSharing turns off §4.3 value sharing for copy outputs.
	DisableValueSharing bool
	// MemLimit is the eviction threshold in accounted bytes (0 = never
	// evict), per §2.5.
	MemLimit int64
	// Clock overrides time.Now for snapshot joins and LRU; tests inject
	// a fake clock.
	Clock func() time.Time
}

// Stats counts engine activity; the evaluation harness reports these.
type Stats struct {
	Gets, Puts, Removes, Scans int64
	ScannedKeys                int64
	JoinExecs                  int64 // forward executions (Fig 5), restarted ones included
	Restarts                   int64 // executions (forward, delta, dirty span) that found base data missing and installed nothing
	PullExecs                  int64 // pull-join executions (§3.4)
	UpdatersInstalled          int64
	UpdatersMerged             int64 // §3.2 overlapping-updater merging
	UpdaterFires               int64
	LogsApplied                int64 // partial invalidation entries applied
	Invalidations              int64 // complete invalidations
	PartialInvalidations       int64 // range-granular dirty marks (vs whole-range)
	DirtyRecomputes            int64 // dirty sub-intervals recomputed in place
	BoundedStaleServes         int64 // within-budget staleness served by bounded reads
	Evictions                  int64
	LoadsStarted               int64 // §3.3 async base-data fetches
	LoadBatches                int64 // BaseLoader.StartLoads calls carrying them
	LoadsFailed                int64 // fetches abandoned by the loader (LoadFailed)
	NotifiedChanges            int64
	UnchangedWrites            int64 // writes that found their value already stored, and so did nothing
}

// Add accumulates o into s — aggregation across shards and servers.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Puts += o.Puts
	s.Removes += o.Removes
	s.Scans += o.Scans
	s.ScannedKeys += o.ScannedKeys
	s.JoinExecs += o.JoinExecs
	s.Restarts += o.Restarts
	s.PullExecs += o.PullExecs
	s.UpdatersInstalled += o.UpdatersInstalled
	s.UpdatersMerged += o.UpdatersMerged
	s.UpdaterFires += o.UpdaterFires
	s.LogsApplied += o.LogsApplied
	s.Invalidations += o.Invalidations
	s.PartialInvalidations += o.PartialInvalidations
	s.DirtyRecomputes += o.DirtyRecomputes
	s.BoundedStaleServes += o.BoundedStaleServes
	s.Evictions += o.Evictions
	s.LoadsStarted += o.LoadsStarted
	s.LoadBatches += o.LoadBatches
	s.LoadsFailed += o.LoadsFailed
	s.NotifiedChanges += o.NotifiedChanges
	s.UnchangedWrites += o.UnchangedWrites
}

// Engine is a single Pequod cache engine.
type Engine struct {
	s    *store.Store
	opts Options

	joins    []*installedJoin
	outJoins map[string][]*installedJoin // by output table
	updaters interval.Tree[*Updater]     // over every source table (§3.2)

	presence map[string]*presenceTable // loader-backed base tables
	loader   BaseLoader
	wait     *LoadWait // restart context of the read in progress (presence.go)

	onChange func(Change)

	// outBuf is the row buffer forward executions collect their output
	// in (exec.land), kept between them.
	outBuf *outRun
	// emitOrder makes forward executions write each row as it is
	// emitted instead of in key order: a test seam only.
	emitOrder bool

	statusLRU lruList[*JoinStatus] // computed: evicted first (evict.go)
	presLRU   lruList[*presRange]  // fetched base ranges: evicted last
	stats     Stats

	// shared counts the reads GetClean and ScanClean served, which run
	// beside each other under a shared lock (clean.go); Stats folds
	// them in.
	shared struct{ gets, scans, scannedKeys atomic.Int64 }
}

// New returns an engine over a fresh store.
func New(opts Options) *Engine {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Engine{
		s:        store.New(),
		opts:     opts,
		outJoins: make(map[string][]*installedJoin),
		presence: make(map[string]*presenceTable),
	}
}

// Store exposes the underlying store (read-only use: stats, tests).
func (e *Engine) Store() *store.Store { return e.s }

// Stats returns a snapshot of the engine counters, the shared reads'
// folded in.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Gets += e.shared.gets.Load()
	s.Scans += e.shared.scans.Load()
	s.ScannedKeys += e.shared.scannedKeys.Load()
	return s
}

// SetChangeHook registers the cross-server subscription callback, invoked
// for every store mutation (§2.4).
func (e *Engine) SetChangeHook(fn func(Change)) { e.onChange = fn }

// SetLoader registers the base-data loader and marks the given tables as
// loader-backed: scans touching uncached ranges of these tables trigger
// asynchronous fetches with restart contexts (§3.3).
func (e *Engine) SetLoader(l BaseLoader, tables ...string) {
	e.loader = l
	for _, t := range tables {
		if e.presence[t] == nil {
			e.presence[t] = &presenceTable{tr: keys.Range{Lo: t, Hi: keys.PrefixEnd(t + keys.SepString)}}
		}
	}
	e.markJoins()
}

// SetSubtableDepth forwards to the store (§4.1).
func (e *Engine) SetSubtableDepth(table string, depth int) {
	e.s.SetSubtableDepth(table, depth)
}

// installedJoin is a join plus its runtime bookkeeping.
type installedJoin struct {
	j *join.Join
	// status holds this join's join status ranges keyed by range start;
	// ranges are disjoint and cover exactly the materialized portions of
	// the output space (§3.2).
	status cover[*JoinStatus]
	// probes is set when some source is loader-backed, directly or
	// through a join feeding it: only then can an execution find base
	// data missing, so only then does it run a discovery pass before
	// emitting (exec.go). Joins over resident data pay nothing.
	probes bool
	// cascaded is set when some source table is another installed join's
	// output: only then does a read freshen source joins first (ensure's
	// pass 0). Joins over base tables alone pay nothing.
	cascaded bool
}

// markJoins recomputes every join's probes and cascaded flags; the
// join graph is acyclic (Install rejects cycles), so the recursion
// terminates.
func (e *Engine) markJoins() {
	var backed func(table string) bool
	backed = func(table string) bool {
		if e.presence[table] != nil {
			return true
		}
		for _, sub := range e.outJoins[table] {
			for _, t := range sub.j.SourceTables() {
				if backed(t) {
					return true
				}
			}
		}
		return false
	}
	for _, ij := range e.joins {
		ij.probes, ij.cascaded = false, false
		for _, t := range ij.j.SourceTables() {
			ij.probes = ij.probes || backed(t)
			ij.cascaded = ij.cascaded || len(e.outJoins[t]) > 0
		}
	}
}

// Install compiles bookkeeping for a parsed join and activates it. It
// rejects joins that would create a cycle through the installed join
// graph ("Users should not install circular cache joins" — Pequod checks
// for errors such as recursive queries at installation time, §3).
func (e *Engine) Install(j *join.Join) error {
	// Cycle check on the table graph: edge src-table -> out-table for
	// every installed join plus the candidate.
	edges := map[string][]string{}
	add := func(jj *join.Join) {
		for _, st := range jj.SourceTables() {
			edges[st] = append(edges[st], jj.Out.Table())
		}
	}
	for _, ij := range e.joins {
		add(ij.j)
	}
	add(j)
	// DFS from the candidate's output table; reaching any of its source
	// tables closes a cycle.
	srcSet := map[string]bool{}
	for _, t := range j.SourceTables() {
		srcSet[t] = true
	}
	seen := map[string]bool{}
	var stack []string
	stack = append(stack, j.Out.Table())
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[t] {
			continue
		}
		seen[t] = true
		if srcSet[t] {
			return fmt.Errorf("install %s: would create a recursive join cycle through table %q", j, t)
		}
		stack = append(stack, edges[t]...)
	}

	ij := &installedJoin{j: j}
	e.joins = append(e.joins, ij)
	e.outJoins[j.Out.Table()] = append(e.outJoins[j.Out.Table()], ij)
	e.markJoins()
	return nil
}

// InstallText parses and installs a join specification ("add-join" RPC).
func (e *Engine) InstallText(text string) error {
	js, err := join.ParseAll(text)
	if err != nil {
		return err
	}
	for _, j := range js {
		if err := e.Install(j); err != nil {
			return err
		}
	}
	return nil
}

// Joins returns the installed joins' texts.
func (e *Engine) Joins() []string {
	var out []string
	for _, ij := range e.joins {
		out = append(out, ij.j.Text)
	}
	return out
}

// Put installs value under key (client write or database notification)
// and runs incremental maintenance.
func (e *Engine) Put(key, value string) {
	e.stats.Puts++
	e.PutQuiet(key, value)
}

// PutQuiet is Put without the served-operation counter: a subscription
// push or a replica snapshot mirrors a write already counted at its
// home, so counting it again would double the cluster's apparent work.
func (e *Engine) PutQuiet(key, value string) {
	e.applyValue(key, store.NewValue(value), nil)
	e.evictIfNeeded()
}

// Remove deletes key and runs incremental maintenance.
func (e *Engine) Remove(key string) bool {
	e.stats.Removes++
	return e.RemoveQuiet(key)
}

// RemoveQuiet is Remove without the served-operation counter; see
// PutQuiet.
func (e *Engine) RemoveQuiet(key string) bool {
	old, ok := e.s.Remove(key)
	if !ok {
		return false
	}
	e.notify(Change{Op: OpRemove, Key: key, Value: old.String()})
	e.fireUpdaters(key, old, nil)
	return true
}

// applyValue is the single mutation path shared by client puts, applied
// pushes and replica copies, and join emission: store write (optionally
// hinted, §4.2), change notification, then updater firing so downstream
// joins cascade — unless the key already held an equal value. Such a
// write changes nothing, so it invalidates nothing: no notification, no
// updater, and a cascade stops there.
func (e *Engine) applyValue(key string, v *store.Value, hint *store.Hint) {
	if e.opts.DisableOutputHints {
		hint = nil
	}
	old, changed := e.s.PutHint(key, v, hint)
	if !changed {
		e.stats.UnchangedWrites++
		return
	}
	e.notify(Change{Op: OpPut, Key: key, Value: v.String()})
	e.fireUpdaters(key, old, v)
}

// removeInternal removes a key as part of maintenance (updater-driven),
// cascading like applyValue.
func (e *Engine) removeInternal(key string) {
	old, ok := e.s.Remove(key)
	if !ok {
		return
	}
	e.notify(Change{Op: OpRemove, Key: key, Value: old.String()})
	e.fireUpdaters(key, old, nil)
}

func (e *Engine) notify(c Change) {
	if e.onChange != nil {
		e.stats.NotifiedChanges++
		e.onChange(c)
	}
}

// Get returns the value for key, computing any covering cache joins on
// demand. pending is the number of outstanding base-data loads; when
// nonzero the result may be incomplete and the caller should retry after
// the loads finish (§3.3).
func (e *Engine) Get(key string) (val string, ok bool, pending int) {
	return e.GetBounded(pattern.PointRange(key), 0)
}

// GetBounded is Get of the key point holds — [key, key+"\x00"), which
// its caller has already built to route the read — with a staleness
// budget: maxStale zero reads fresh; a positive budget may serve key
// from a dirty span or ahead of unapplied lazy logs whose age is within
// the budget, skipping their recomputation. Coverage gaps still compute
// (and load) fresh — a bounded read serves old state, never absent
// state.
func (e *Engine) GetBounded(point keys.Range, maxStale time.Duration) (val string, ok bool, pending int) {
	e.stats.Gets++
	key := point.Lo
	overlay, _, pending := e.ensureRangeBounded(point, maxStale)
	if v, ok := e.s.Get(key); ok {
		return v.String(), true, pending
	}
	for _, kv := range overlay {
		if kv.Key == key {
			return kv.Value, true, pending
		}
	}
	return "", false, pending
}

// Scan returns up to limit (0 = unlimited) key-value pairs in [lo, hi),
// computing overlapping cache joins on demand. pending reports
// outstanding base-data loads as for Get.
func (e *Engine) Scan(lo, hi string, limit int) (kvs []KV, pending int) {
	return e.ScanInto(lo, hi, limit, nil)
}

// ScanInto is Scan appending into buf (reusing its capacity), the path
// servers use for large timeline reads. A warm read of joins over base
// tables allocates only when buf must grow to hold the result; a pull
// join's overlay, or a join fed by another join's output (whose sources
// are freshened first), allocates on top of that.
func (e *Engine) ScanInto(lo, hi string, limit int, buf []KV) (kvs []KV, pending int) {
	return e.ScanIntoBounded(lo, hi, limit, buf, 0)
}

// ScanIntoBounded is ScanInto with a staleness budget (see GetBounded).
func (e *Engine) ScanIntoBounded(lo, hi string, limit int, buf []KV, maxStale time.Duration) (kvs []KV, pending int) {
	e.stats.Scans++
	overlay, start, pending := e.ensureRangeBounded(keys.Range{Lo: lo, Hi: hi}, maxStale)
	kvs, n := e.scanOut(lo, hi, limit, buf[:0], overlay, start)
	e.stats.ScannedKeys += n
	e.evictAfterRead(pending)
	return kvs, pending
}

// scanOut appends up to limit (0 = all) pairs of [lo, hi) to kvs: the
// store's contents merged with a pull-join overlay (usually there is
// none), the store winning on duplicates. It is the copy-out of every
// scan, exclusive (ScanIntoBounded) or shared (ScanClean), and reports
// how many store keys it copied for the caller to count. It reads the
// engine and writes nothing but kvs.
func (e *Engine) scanOut(lo, hi string, limit int, kvs, overlay []KV, start *store.Hint) ([]KV, int64) {
	if e.opts.DisableOutputHints {
		start = nil // the §4.2 ablation: no finger for reads either
	}
	if len(overlay) > 1 {
		// Each pull execution sorted its own segment; merge across joins.
		sort.Slice(overlay, func(i, k int) bool { return overlay[i].Key < overlay[k].Key })
	}

	// Merge the store contents, a leaf-sized run at a time so the result
	// makes room once, with the overlays (both sorted). The scan starts at
	// the covering status's output hint when that leaf still holds lo.
	var scanned int64
	oi := 0
	full := func() bool { return limit > 0 && len(kvs) >= limit }
	e.s.ScanRuns(lo, hi, start, func(ks store.Keys, vs []*store.Value, rest int) bool {
		room := ks.Len() + rest
		if limit > 0 {
			room = min(room, limit-len(kvs))
		}
		kvs = slices.Grow(kvs, room)
		for i := range vs {
			k := ks.At(i)
			for oi < len(overlay) && overlay[oi].Key < k {
				kvs = append(kvs, overlay[oi])
				oi++
				if full() {
					return false
				}
			}
			if oi < len(overlay) && overlay[oi].Key == k {
				oi++ // store wins on duplicates
			}
			kvs = append(kvs, KV{k, vs[i].String()})
			scanned++
			if full() {
				return false
			}
		}
		return true
	})
	for oi < len(overlay) && !full() {
		kvs = append(kvs, overlay[oi])
		oi++
	}
	return kvs, scanned
}

// evictAfterRead enforces the memory limit once a read has completed. A
// read still waiting for loads installed nothing, and evicting on its
// behalf could only take away ranges its retry is about to need — with
// a limit below the read's working set, forever.
func (e *Engine) evictAfterRead(pending int) {
	if pending == 0 {
		e.evictIfNeeded()
	}
}

// ensureRangeBounded computes every installed join overlapping r and
// resolves direct reads of loader-backed base ranges ("If a request is
// made for a database-sourced key, Pequod will query the database and
// cache the result", §2). Pull-join results come back as the overlay
// (sorted per join; merged by caller), nil when no pull join overlaps r.
// start is the output hint of a join status containing r, for the
// caller's store scan to begin at (nil when there is none), and pending
// the number of outstanding loads. A bounded read's staleness budget
// rides into each join's ensure pass; loader-backed presence and pull
// joins are budget-blind: presence gaps must load regardless (absent
// rows are not stale rows), and pull joins recompute per read by design.
func (e *Engine) ensureRangeBounded(r keys.Range, maxStale time.Duration) (overlay []KV, start *store.Hint, pending int) {
	e.wait = nil // a new read: a new restart context
	var gaps []Load
	for table, pt := range e.presence {
		if rr := r.Intersect(pt.tr); !rr.Empty() {
			pending += e.ensurePresent(table, pt, rr, &gaps)
		}
	}
	e.startLoads(gaps)
	for _, ij := range e.joins {
		rr := r.Intersect(ij.j.Out.TableRange())
		if rr.Empty() {
			continue
		}
		if ij.j.Maint == join.Pull {
			var n int
			overlay, n = e.execPull(ij, rr, overlay)
			pending += n
			continue
		}
		n, h := e.ensure(ij, rr, maxStale)
		pending += n
		if start == nil {
			start = h
		}
	}
	return overlay, start, pending
}

// StalenessDebt reports the engine's lazy-maintenance backlog: the
// number of dirty spans and unapplied log batches across all join
// statuses, and the age of the oldest unapplied write among them — the
// staleness a bounded read with an infinite budget could observe.
// Health reporting walks every status; call it at monitoring cadence,
// not per read (reads age their own ranges inside ensure).
func (e *Engine) StalenessDebt(now time.Time) (spans int, oldest time.Duration) {
	for _, ij := range e.joins {
		ij.status.all(func(st *JoinStatus) {
			for _, d := range st.dirty {
				spans++
				if a := now.Sub(d.at); a > oldest {
					oldest = a
				}
			}
			if len(st.logs) > 0 {
				spans++
				if a := now.Sub(st.logs[0].at); a > oldest {
					oldest = a
				}
			}
		})
	}
	return spans, oldest
}

func (e *Engine) now() time.Time { return e.opts.Clock() }
