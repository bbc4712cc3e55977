package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/core"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/store"
)

// ErrDeadline is returned by the deadline-taking operations when the
// deadline expires while blocked on outstanding base-data loads (§3.3
// restart contexts that never complete in time).
var ErrDeadline = errors.New("shard: deadline exceeded waiting for base data")

// Config configures a Pool.
type Config struct {
	// Shards is the number of engines; <= 1 means one engine, which is
	// what every server member is (more engines are an embedded Cache's).
	Shards int
	// Bounds are explicit partition split points (len = Shards-1). When
	// empty and Shards > 1, DefaultBounds splits the raw byte space
	// evenly — fine for uniformly distributed binary keys, but ASCII
	// table-prefixed keys cluster onto one shard, so real workloads
	// should pass bounds matched to their key distribution
	// (partition.UserBounds).
	Bounds []string
	// Engine holds per-engine options. A MemLimit is divided evenly
	// across the shards so the configured total is preserved.
	Engine core.Options
	// Rebalance, when non-nil, runs the load-aware rebalancer: per-shard
	// load is sampled into an EWMA and hot ranges migrate live between
	// neighboring shards (rebalance.go). Ignored for single-shard pools.
	Rebalance *Rebalance
}

// DefaultBounds returns n-1 split points dividing the 16-bit key-prefix
// space evenly: the fallback partition when no workload-aware bounds are
// given. Split points are distinct for any practical n (up to 65536).
func DefaultBounds(n int) []string {
	var bounds []string
	for i := 1; i < n; i++ {
		v := 65536 * i / n
		bounds = append(bounds, string([]byte{byte(v >> 8), byte(v)}))
	}
	return bounds
}

// Pool is a set of partitioned engines served concurrently.
type Pool struct {
	// pmap is the current partition of the key space. It is replaced —
	// never mutated — by live migration (MoveBound), which holds both
	// affected shards' locks across the state transfer and the swap.
	// Every routed operation therefore re-validates ownership after
	// acquiring a shard lock: if the key (or scan piece) is no longer
	// owned by the locked shard, the operation reroutes against the
	// fresh map, so readers never observe a gap or duplicate and writes
	// can never land on a shard that has given the range away.
	pmap   atomic.Pointer[partition.Map]
	shards []*Shard

	// gate is the cluster-ownership view (clustergate.go): nil except on
	// cluster members, which are one-engine pools. When set, routed
	// operations re-validate cluster ownership under their shard lock
	// exactly as they re-validate pmap, so a server-to-server migration
	// can atomically stop this process serving a range.
	gate atomic.Pointer[partition.View]

	// reb is the load-aware rebalancer (rebalance.go); zero-valued and
	// inert unless Config.Rebalance was set.
	reb rebState

	// hook observes owner-authoritative changes (for cross-server
	// subscription forwarding at the network layer). Set before serving.
	hook func(c core.Change)

	// fwd is the set of base source tables replicated to sibling shards;
	// copy-on-write so the change hook reads it without extra locking.
	fwd atomic.Pointer[map[string]bool]

	// outs is the installed joins' output-table set, copy-on-write for
	// the durable write-behind hook (durable.go): derived rows travel
	// as warm coverage and are recomputed at recovery, never logged, so
	// the hook must classify tables without taking imu.
	outs atomic.Pointer[map[string]bool]

	// imu serializes install bookkeeping (join set, fwd recomputation,
	// backfill), live migrations (rebalance.go) and the gate's swaps, so
	// the forwarded-table set and partition map are stable across each.
	imu       sync.Mutex
	installed []*join.Join
	texts     []string // install texts, replayed to dry-run new ones

	// retained is the bounded buffer of extracted-but-unconfirmed range
	// states (clustergate.go); retmu guards it. Lock order: shard locks
	// may be held when taking retmu (extraction and demotion append
	// under them) — never acquire a shard lock while holding retmu.
	retmu           sync.Mutex
	retained        []retainedEntry
	retainedEvicted int

	wg sync.WaitGroup
}

// Shard is one engine plus its lock and apply queue.
type Shard struct {
	p   *Pool
	idx int

	mu sync.Mutex
	e  *core.Engine

	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []queuedChange
	busy    bool      // applier is mid-batch
	batchAt time.Time // oldest stamp of the in-flight batch (valid while busy)
	closed  bool

	// Load accounting for the rebalancers: unitsTotal counts work served
	// (one per op plus one per row scanned) since the pool started —
	// nothing resets it; the balancer differences successive readings;
	// samples is a ring of recently served keys (guarded by mu, which
	// every recording path already holds) from which boundary moves
	// pick their split points.
	unitsTotal atomic.Int64
	samples    [loadSampleRing]string
	samplePos  int
}

// loadSampleRing is the per-shard key-sample capacity (a power of two).
const loadSampleRing = 256

// applyChange applies one replicated or forwarded change to the engine.
// Called with sh.mu held. Every non-remove op applies as a put: evict
// ops never reach these paths (both the pool's forwarding and the
// server's subscription push filter them out), and treating an unknown
// op as a put in four call sites beats four diverging switches.
func (sh *Shard) applyChange(c core.Change) {
	if c.Op == core.OpRemove {
		sh.e.Remove(c.Key)
	} else {
		sh.e.Put(c.Key, c.Value)
	}
}

// applyReplicaChange is applyChange via the engine's quiet path:
// replica-range maintenance mirrors writes already counted at their
// owning member, so it must not inflate this member's op counters.
// Called with sh.mu held.
func (sh *Shard) applyReplicaChange(c core.Change) {
	if c.Op == core.OpRemove {
		sh.e.RemoveQuiet(c.Key)
	} else {
		sh.e.PutQuiet(c.Key, c.Value)
	}
}

// record notes one served operation for load accounting. Called with
// sh.mu held.
func (sh *Shard) record(key string, units int64) {
	sh.unitsTotal.Add(units)
	sh.samples[sh.samplePos&(loadSampleRing-1)] = key
	sh.samplePos++
}

// New builds a pool. Shards and Bounds must agree (n shards need n-1
// bounds); either may be omitted and is derived from the other.
func New(cfg Config) (*Pool, error) {
	n := cfg.Shards
	bounds := cfg.Bounds
	switch {
	case n <= 0 && len(bounds) == 0:
		n = 1
	case n <= 0:
		n = len(bounds) + 1
	case len(bounds) == 0 && n > 1:
		if n > 65536 {
			return nil, fmt.Errorf("shard: %d shards exceeds the default-bounds limit (65536); pass explicit Bounds", n)
		}
		bounds = DefaultBounds(n)
	}
	if len(bounds) != n-1 {
		return nil, fmt.Errorf("shard: %d shards need %d bounds, have %d", n, n-1, len(bounds))
	}
	pmap, err := partition.New(bounds...)
	if err != nil {
		return nil, err
	}
	opts := cfg.Engine
	if opts.MemLimit > 0 && n > 1 {
		opts.MemLimit = (opts.MemLimit + int64(n) - 1) / int64(n)
	}
	p := &Pool{}
	p.pmap.Store(pmap)
	empty := map[string]bool{}
	p.fwd.Store(&empty)
	p.outs.Store(&empty)
	for i := 0; i < n; i++ {
		sh := &Shard{p: p, idx: i, e: core.New(opts)}
		sh.qcond = sync.NewCond(&sh.qmu)
		i := i
		sh.e.SetChangeHook(func(c core.Change) { p.onChange(i, c) })
		p.shards = append(p.shards, sh)
	}
	if n > 1 {
		for _, sh := range p.shards {
			p.wg.Add(1)
			go sh.applyLoop()
		}
		if cfg.Rebalance != nil {
			p.startRebalancer(*cfg.Rebalance)
		}
	}
	return p, nil
}

// Close stops the rebalancer and the apply goroutines (after draining
// their queues).
func (p *Pool) Close() {
	p.stopRebalancer()
	for _, sh := range p.shards {
		sh.qmu.Lock()
		sh.closed = true
		sh.qmu.Unlock()
		sh.qcond.Broadcast()
	}
	p.wg.Wait()
}

// NumShards returns the number of engines in the pool.
func (p *Pool) NumShards() int { return len(p.shards) }

// Owner returns the index of the shard currently owning key. With the
// rebalancer running the answer may be stale by the time it is used;
// the routed operations re-validate under the shard lock.
func (p *Pool) Owner(key string) int { return p.pmap.Load().Owner(key) }

// Shard returns the i'th shard handle (loader wiring, tests).
func (p *Pool) Shard(i int) *Shard { return p.shards[i] }

// member returns the pool's one engine for an entry point only a server
// member calls — the cluster gate, loaders, peer and replica feeds, the
// durable store. A member is one engine; a multi-engine pool is an
// embedded Cache, which has none of these, so a call there is a bug.
func (p *Pool) member(op string) *Shard {
	if len(p.shards) != 1 {
		panic(fmt.Sprintf("shard: %s is member-only and needs a one-engine pool, not %d engines", op, len(p.shards)))
	}
	return p.shards[0]
}

// Map returns the pool's current partition map (immutable; rebalancing
// replaces it).
func (p *Pool) Map() *partition.Map { return p.pmap.Load() }

// SetHook registers the observer of owner-authoritative changes, called
// with the owning shard's lock held (it must only enqueue, like the
// server's subscription forwarding). Set before serving traffic.
func (p *Pool) SetHook(fn func(c core.Change)) { p.hook = fn }

// onChange is every engine's change hook, called during mutation with
// shard i's lock held. Only owner-authoritative changes propagate:
// locally computed replicas of ranges owned elsewhere (cascaded source
// joins clip to containing ranges, not ownership) stay local, so each
// logical change is forwarded by exactly one shard, in that shard's
// mutation order.
func (p *Pool) onChange(i int, c core.Change) {
	if len(p.shards) > 1 {
		if p.pmap.Load().Owner(c.Key) != i {
			return
		}
		// Evictions drop this shard's cached copy, not the data's
		// validity; siblings keep their replicas (§2.5).
		if c.Op != core.OpEvict && (*p.fwd.Load())[keys.Table(c.Key)] {
			at := time.Now() // one stamp per change, shared by every sibling
			for j, sh := range p.shards {
				if j != i {
					sh.enqueue(c, at)
				}
			}
		}
	}
	if p.hook != nil {
		p.hook(c)
	}
}

// queuedChange is one forwarded write awaiting application, stamped at
// enqueue so the shard's lag — the age of its oldest unapplied
// forwarded write — can be read off the queue head.
type queuedChange struct {
	c  core.Change
	at time.Time
}

// enqueue appends a forwarded change to this shard's apply queue. Called
// with the *sender's* lock held so the queue preserves owner order.
func (sh *Shard) enqueue(c core.Change, at time.Time) {
	sh.qmu.Lock()
	sh.queue = append(sh.queue, queuedChange{c: c, at: at})
	sh.qmu.Unlock()
	sh.qcond.Signal()
}

// Lag reports the age of the oldest forwarded write not yet applied at
// this shard (zero when forwarding is idle): the staleness a read
// served from the shard's current view inherits from in-process
// forwarding. Bounded reads compare it against their budget; the
// fresh-read semantics are unchanged (forwarding has always been
// asynchronous — Quiesce is the settlement fence).
func (sh *Shard) Lag(now time.Time) time.Duration {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	var oldest time.Time
	switch {
	case sh.busy:
		oldest = sh.batchAt // FIFO: the in-flight batch predates the queue
	case len(sh.queue) > 0:
		oldest = sh.queue[0].at
	default:
		return 0
	}
	if d := now.Sub(oldest); d > 0 {
		return d
	}
	return 0
}

// applyLoop drains forwarded base-data changes into the engine — the
// in-process twin of the server's MsgNotify path. The batch is popped
// only once the shard lock is held: a pending forwarded write is either
// still in the queue or already applied, never in limbo in between.
// Live migration depends on that invariant — holding the shard lock, it
// drains the queued writes for the moving range and knows none are
// hiding in a half-popped batch that would replay stale values after
// ownership flips.
func (sh *Shard) applyLoop() {
	defer sh.p.wg.Done()
	for {
		sh.qmu.Lock()
		for len(sh.queue) == 0 && !sh.closed {
			sh.qcond.Wait()
		}
		if len(sh.queue) == 0 && sh.closed {
			sh.qmu.Unlock()
			return
		}
		sh.qmu.Unlock()

		sh.mu.Lock()
		sh.qmu.Lock()
		batch := sh.queue
		sh.queue = nil
		sh.busy = len(batch) > 0
		if sh.busy {
			sh.batchAt = batch[0].at
		}
		sh.qmu.Unlock()
		for _, qc := range batch {
			sh.applyChange(qc.c)
		}
		sh.mu.Unlock()

		sh.qmu.Lock()
		sh.busy = false
		sh.qmu.Unlock()
		sh.qcond.Broadcast()
	}
}

// Quiesce blocks until every apply queue is drained and idle: after it
// returns, all previously forwarded base-data changes are visible on all
// shards. Replica applies never re-forward (they are not owner-
// authoritative at the receiver), so a single settled pass suffices; the
// outer loop re-checks in case an in-flight mutation raced the first
// pass.
func (p *Pool) Quiesce() {
	for {
		for _, sh := range p.shards {
			sh.qmu.Lock()
			for len(sh.queue) > 0 || sh.busy {
				sh.qcond.Wait()
			}
			sh.qmu.Unlock()
		}
		settled := true
		for _, sh := range p.shards {
			sh.qmu.Lock()
			if len(sh.queue) > 0 || sh.busy {
				settled = false
			}
			sh.qmu.Unlock()
		}
		if settled {
			return
		}
	}
}

// --- routed operations ---

// lockOwner locks and returns the shard owning key, re-validating
// ownership after acquiring the lock: a migration that moved the key
// completed while we waited (it held this shard's lock), so routing
// retries against the fresh map. Terminates because each retry follows
// an observed map change and migrations are finite.
func (p *Pool) lockOwner(key string) *Shard {
	for {
		sh := p.shards[p.pmap.Load().Owner(key)]
		sh.mu.Lock()
		if p.pmap.Load().Owner(key) == sh.idx {
			return sh
		}
		sh.mu.Unlock()
	}
}

// lockServing is lockOwner for a client write: under the lock it also
// re-validates cluster ownership, failing with *partition.NotOwnerError
// when a server-to-server migration has moved the key, so a racing
// client cannot land a write on a server that just gave the range away
// (it would be silently lost). Ungated pools have nothing to check.
func (p *Pool) lockServing(key string) (*Shard, error) {
	sh := p.lockOwner(key)
	if g := p.gate.Load(); g != nil && !g.Owns(key) {
		sh.mu.Unlock()
		return nil, &partition.NotOwnerError{View: g}
	}
	return sh, nil
}

// Put stores value under key at its owning shard and runs incremental
// maintenance there (forwarding to siblings via the change hook).
func (p *Pool) Put(key, value string) error {
	sh, err := p.lockServing(key)
	if err != nil {
		return err
	}
	sh.e.Put(key, value)
	sh.record(key, 1)
	sh.mu.Unlock()
	return nil
}

// Remove deletes key at its owning shard, reporting whether it existed.
func (p *Pool) Remove(key string) (bool, error) {
	sh, err := p.lockServing(key)
	if err != nil {
		return false, err
	}
	found := sh.e.Remove(key)
	sh.record(key, 1)
	sh.mu.Unlock()
	return found, nil
}

// errMoved reports that a read's range changed shards between routing
// and locking the shard (a live migration completed in between): the
// caller routes again against the fresh map, so no read is ever served
// by a shard that owns only part of it.
var errMoved = errors.New("shard: range migrated mid-read")

// step is the one locked attempt every read makes at a shard (DESIGN.md
// "A read, end to end"): under owner's lock, and again after every wait
// for base data — which releases it — [lo, hi) must still be wholly this
// shard's (else errMoved) and this process's (else NotOwner carrying the
// gate); then the engine call op runs with the staleness budget, cut to
// zero when the shard's forwarded-write queue already lags past it, and
// either completes (units of work are recorded) or reports loads in
// flight, which the step waits out, to dl at the latest, before trying
// again.
func (p *Pool) step(owner int, lo, hi string, maxStale time.Duration, dl time.Time,
	op func(e *core.Engine, budget time.Duration) (units int64, pending int)) error {
	r := keys.Range{Lo: lo, Hi: hi}
	sh := p.shards[owner]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if !p.pmap.Load().OwnsRange(owner, r) {
			return errMoved
		}
		if g := p.gate.Load(); g != nil && !g.OwnsRange(r) {
			return &partition.NotOwnerError{View: g}
		}
		budget := maxStale
		if budget > 0 && sh.Lag(time.Now()) > budget {
			budget = 0 // queue already over budget: fresh fallback
		}
		units, pending := op(sh.e, budget)
		if pending == 0 {
			sh.record(lo, units)
			return nil
		}
		if !sh.waitLoadsLocked(dl) {
			return deadlineErr(maxStale)
		}
	}
}

// deadlineErr attributes a deadline failure. A read that carried a
// staleness budget and still timed out could not be served even with
// the latitude the budget granted (the range needed base data, or the
// shard fell back to the fresh path), so the error carries both
// sentinels and callers can match either.
func deadlineErr(maxStale time.Duration) error {
	if maxStale > 0 {
		return fmt.Errorf("%w: %w", perrs.ErrOverBudget, ErrDeadline)
	}
	return ErrDeadline
}

// Get returns the value under key from its owning shard, blocking on
// outstanding base-data loads.
func (p *Pool) Get(key string) (string, bool) {
	v, ok, _ := p.GetBounded(key, 0, time.Time{})
	return v, ok
}

// GetBounded is Get bounded by a deadline (zero = none; ErrDeadline if
// base-data loads are still outstanding at dl) and carrying a staleness
// budget (zero = fully fresh): one step, routed again if the key changed
// shards meanwhile.
func (p *Pool) GetBounded(key string, maxStale time.Duration, dl time.Time) (v string, ok bool, err error) {
	point := keys.Range{Lo: key, Hi: key + "\x00"}
	for {
		err = p.step(p.pmap.Load().Owner(key), point.Lo, point.Hi, maxStale, dl, func(e *core.Engine, budget time.Duration) (int64, int) {
			var pending int
			v, ok, pending = e.GetBounded(point, budget)
			return 1, pending
		})
		switch err {
		case nil:
			return v, ok, nil
		case errMoved:
		default:
			return "", false, err
		}
	}
}

// Scan returns up to limit (0 = all) pairs in [lo, hi). buf's capacity
// is reused for the first piece. If sub is non-nil it is invoked for
// each piece while the owning shard's lock is still held, immediately
// after that piece's final (complete) scan — the atomic
// snapshot+subscribe window cross-server subscriptions need (§2.4).
func (p *Pool) Scan(lo, hi string, limit int, buf []core.KV, sub func(shard int, r keys.Range)) []core.KV {
	kvs, _ := p.ScanBounded(lo, hi, limit, buf, sub, 0, time.Time{})
	return kvs
}

// ScanBounded is Scan bounded by a deadline and carrying a staleness
// budget, as GetBounded: partition.Gather over the pool's map, one step
// per piece. Subscribing scans (sub != nil) always run fresh — the
// subscription snapshot must be exact or the subscriber would
// permanently miss the writes the budget skipped — and visit every
// piece, each subscription needing its piece's complete snapshot.
func (p *Pool) ScanBounded(lo, hi string, limit int, buf []core.KV, sub func(shard int, r keys.Range), maxStale time.Duration, dl time.Time) ([]core.KV, error) {
	if sub != nil {
		maxStale = 0
	}
	return partition.Gather(p.Map, keys.Range{Lo: lo, Hi: hi}, limit, sub != nil, buf,
		func(pc partition.Shard, limit int, buf []core.KV) ([]core.KV, error) {
			err := p.step(pc.Owner, pc.R.Lo, pc.R.Hi, maxStale, dl, func(e *core.Engine, budget time.Duration) (int64, int) {
				var pending int
				buf, pending = e.ScanIntoBounded(pc.R.Lo, pc.R.Hi, limit, buf, budget)
				if pending == 0 && sub != nil {
					sub(pc.Owner, pc.R)
				}
				return 1 + int64(len(buf)), pending
			})
			return buf, err
		},
		func(err error, _ int) bool { return err == errMoved })
}

// Count returns the number of keys in [lo, hi) after join computation.
func (p *Pool) Count(lo, hi string) int {
	n, _ := p.CountBounded(lo, hi, 0, time.Time{})
	return n
}

// CountBounded is the length of ScanBounded.
func (p *Pool) CountBounded(lo, hi string, maxStale time.Duration, dl time.Time) (int, error) {
	kvs, err := p.ScanBounded(lo, hi, 0, nil, nil, maxStale, dl)
	return len(kvs), err
}

// Apply applies a batch of replicated changes (peer pushes, database
// feeds) to a member's engine under one lock acquisition.
func (p *Pool) Apply(changes []core.Change) {
	sh := p.member("Apply")
	sh.mu.Lock()
	for _, c := range changes {
		sh.applyChange(c)
	}
	sh.mu.Unlock()
}

// ApplyReplica is Apply through the engine's quiet path: replica-range
// maintenance (failover warm copies) mirrors writes counted at their
// owning member.
func (p *Pool) ApplyReplica(changes []core.Change) {
	sh := p.member("ApplyReplica")
	sh.mu.Lock()
	for _, c := range changes {
		sh.applyReplicaChange(c)
	}
	sh.mu.Unlock()
}

// InstallText parses a join specification and installs it on every shard
// (each shard re-parses so engines share no mutable state). The text is
// first dry-run on a scratch engine replaying the pool's already
// installed joins, so a rejected join — even one late in a multi-join
// text — fails atomically before any shard is touched. Newly needed base
// source tables are backfilled to all shards and replicated from then on.
func (p *Pool) InstallText(text string) error {
	js, err := join.ParseAll(text)
	if err != nil {
		return err
	}
	p.imu.Lock()
	defer p.imu.Unlock()
	scratch := core.New(core.Options{})
	for _, prev := range p.texts {
		replay, err := join.ParseAll(prev)
		if err != nil {
			panic("shard: installed join text no longer parses: " + err.Error())
		}
		for _, j := range replay {
			if err := scratch.Install(j); err != nil {
				panic("shard: installed join text no longer installs: " + err.Error())
			}
		}
	}
	trial, err := join.ParseAll(text) // scratch gets its own copies too
	if err != nil {
		return err
	}
	for _, j := range trial {
		if err := scratch.Install(j); err != nil {
			return err
		}
	}
	for _, sh := range p.shards {
		own, err := join.ParseAll(text)
		if err != nil {
			panic("shard: validated join text no longer parses: " + err.Error())
		}
		sh.mu.Lock()
		for _, j := range own {
			if err := sh.e.Install(j); err != nil {
				sh.mu.Unlock()
				// The scratch replay accepted this exact sequence and all
				// engines see identical join sets, so this is
				// unreachable — but fail loudly rather than diverge.
				panic("shard: divergent join installation: " + err.Error())
			}
		}
		sh.mu.Unlock()
	}
	p.texts = append(p.texts, text)
	p.installed = append(p.installed, js...)
	outs := make(map[string]bool, len(p.installed))
	for _, j := range p.installed {
		outs[j.Out.Table()] = true
	}
	p.outs.Store(&outs)
	p.refreshForwardingLocked()
	return nil
}

// InstalledText returns the pool's installed join texts concatenated in
// install order, newline-separated — the form a JoinCluster RPC ships
// to a joining member, so a drained member re-joining the cluster can
// be recognized as already holding (a prefix of) the join set instead
// of failing on a duplicate install.
func (p *Pool) InstalledText() string {
	p.imu.Lock()
	defer p.imu.Unlock()
	out := ""
	for i, t := range p.texts {
		if i > 0 {
			out += "\n"
		}
		out += t
	}
	return out
}

// refreshForwardingLocked recomputes the forwarded-table set — base
// source tables of installed joins that are not some join's output
// (each shard computes those locally, recursively) — and backfills
// tables that just became forwarded. Caller holds imu.
func (p *Pool) refreshForwardingLocked() {
	if len(p.shards) == 1 {
		return
	}
	outputs := map[string]bool{}
	for _, j := range p.installed {
		outputs[j.Out.Table()] = true
	}
	next := map[string]bool{}
	for _, j := range p.installed {
		for _, t := range j.SourceTables() {
			if !outputs[t] {
				next[t] = true
			}
		}
	}
	prev := *p.fwd.Load()
	p.fwd.Store(&next)
	for t := range next {
		if !prev[t] {
			p.backfill(t)
		}
	}
}

// backfill replicates the current contents of a newly forwarded table
// from each owner to every sibling, walking the owner's store directly.
// Enqueueing happens under the owner's lock so concurrent writes forward
// in order behind the snapshot. The caller holds imu, which migration
// also takes, so the partition map is stable for the whole pass.
func (p *Pool) backfill(table string) {
	at := time.Now()
	for _, pc := range p.pmap.Load().Split(keys.RangeOf(table)) {
		sh := p.shards[pc.Owner]
		sh.mu.Lock()
		sh.e.Store().Scan(pc.R.Lo, pc.R.Hi, func(k string, v *store.Value) bool {
			c := core.Change{Op: core.OpPut, Key: k, Value: v.String()}
			for j, sib := range p.shards {
				if j != pc.Owner {
					sib.enqueue(c, at)
				}
			}
			return true
		})
		sh.mu.Unlock()
	}
}

// SetSubtableDepth marks a §4.1 boundary on every shard.
func (p *Pool) SetSubtableDepth(table string, depth int) {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.e.SetSubtableDepth(table, depth)
		sh.mu.Unlock()
	}
}

// Stats sums the engine counters across shards.
func (p *Pool) Stats() core.Stats {
	var total core.Stats
	for _, sh := range p.shards {
		sh.mu.Lock()
		total.Add(sh.e.Stats())
		sh.mu.Unlock()
	}
	return total
}

// Bytes sums the approximate memory footprint across shards.
func (p *Pool) Bytes() int64 {
	var total int64
	for _, sh := range p.shards {
		sh.mu.Lock()
		total += sh.e.Store().Bytes()
		sh.mu.Unlock()
	}
	return total
}

// Len sums the number of cached keys across shards.
func (p *Pool) Len() int {
	total := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		total += sh.e.Store().Len()
		sh.mu.Unlock()
	}
	return total
}

// StalenessDebt reports a member's staleness debt for health
// reporting: the number of deferred-maintenance spans (dirty
// sub-intervals plus unapplied lazy logs) and the age of the oldest —
// the worst staleness a bounded read could currently observe, since a
// member has no forwarded-write queue.
func (p *Pool) StalenessDebt() (spans int, oldest time.Duration) {
	sh := p.member("StalenessDebt")
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.e.StalenessDebt(time.Now())
}

// --- shard handle (loader wiring) ---

// SetLoader registers a base-data loader on a member's engine for the
// given tables (§3.3).
func (sh *Shard) SetLoader(l core.BaseLoader, tables ...string) {
	sh.p.member("Shard.SetLoader")
	sh.mu.Lock()
	sh.e.SetLoader(l, tables...)
	sh.mu.Unlock()
}

// LoadsDone delivers the outcome of one batch of asynchronous loads
// under a single lock acquisition: rows fetched for ranges still
// loading are installed, the landed ranges are marked resident, the
// failed ones (the remote owner refused, or the transport died) are
// abandoned. Each read blocked on these loads is woken once, when the
// last load it waits for resolves — to emit, or to retry and, if the
// failure was a migration, re-route.
func (sh *Shard) LoadsDone(rows []core.KV, landed, failed []core.Load) {
	sh.mu.Lock()
	sh.e.LoadRows(rows)
	for _, ld := range landed {
		sh.e.LoadComplete(ld.Table, ld.R)
	}
	for _, ld := range failed {
		sh.e.LoadFailed(ld.Table, ld.R)
	}
	sh.mu.Unlock()
}

// ApplyBatch applies subscription pushes (peer home servers, database
// update feeds) to this shard. A push for a loader-backed range the
// engine no longer holds — evicted since it subscribed — is dropped:
// applied, the row would sit outside any presence record, invisible to
// the LRU and stale as soon as the subscription lapses.
func (sh *Shard) ApplyBatch(changes []core.Change) {
	sh.mu.Lock()
	for _, c := range changes {
		if sh.e.Tracks(c.Key) {
			sh.applyChange(c)
		}
	}
	sh.mu.Unlock()
}

// WithEngine runs fn with the shard lock held — stats snapshots, tests,
// and warm-up phases that want direct engine access.
func (sh *Shard) WithEngine(fn func(e *core.Engine)) {
	sh.mu.Lock()
	fn(sh.e)
	sh.mu.Unlock()
}

// waitLoadsLocked parks the read that just reported pending loads until
// every load it needs has resolved, releasing sh.mu meanwhile, then
// lets the caller retry — the iterative evaluation of §3.3. A non-zero
// deadline bounds the wait; it reports false when the deadline expired
// first.
func (sh *Shard) waitLoadsLocked(dl time.Time) bool {
	w := sh.e.LoadWait()
	sh.mu.Unlock()
	defer sh.mu.Lock()
	if dl.IsZero() {
		<-w.Done()
		return true
	}
	t := time.NewTimer(time.Until(dl))
	defer t.Stop()
	select {
	case <-w.Done():
		return true
	case <-t.C:
		return false
	}
}
