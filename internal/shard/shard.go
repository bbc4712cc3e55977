package shard

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/core"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/store"
)

// LoadPending is a read's outcome when base data it needs is still
// loading (§3.3): W is its restart context, closed once every load the
// read met has resolved, when the read is worth retrying. The pool
// never waits for it; only a member can see one (a loader is
// member-only), and its server parks the request off the connection.
type LoadPending struct{ W *core.LoadWait }

func (*LoadPending) Error() string { return "shard: base data loading" }

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
	// pmap partitions the key space among the shards. It is fixed at
	// New: load moves between servers of a cluster, never between the
	// shards of one pool, so a routed operation's shard is still the
	// key's owner once it holds that shard's lock.
	pmap   *partition.Map
	shards []*Shard

	// gate is the cluster-ownership view (clustergate.go): nil except on
	// cluster members, which are one-engine pools. When set, routed
	// operations check cluster ownership under their shard lock, so a
	// server-to-server migration can atomically stop this process
	// serving a range.
	gate atomic.Pointer[partition.View]

	// mig counts the cluster migrations this member took part in
	// (clustergate.go); guarded by imu.
	mig MigrationStats

	// hook observes owner-authoritative changes (for cross-server
	// subscription forwarding at the network layer). Set before serving.
	hook func(c core.Change)

	// srcs is the installed joins' base source tables (join.SourceTables),
	// copy-on-write so the change hook reads it without extra locking: a
	// multi-engine pool forwards them to sibling shards, and a member's
	// server loads them from its peers and replicates them.
	srcs atomic.Pointer[[]string]

	// outs is the installed joins' output-table set, copy-on-write for
	// the durable write-behind hook (durable.go): derived rows travel
	// as warm coverage and are recomputed at recovery, never logged, so
	// the hook must classify tables without taking imu.
	outs atomic.Pointer[map[string]bool]

	// imu serializes install bookkeeping (join set, source tables,
	// backfill) and the gate's swaps, so the source-table set and the
	// cluster view are stable across each.
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

	// exclusiveReads turns off step's shared attempt, so a test can hold
	// the shared path's answers against the exclusive step's.
	exclusiveReads bool

	wg sync.WaitGroup
}

// Shard is one engine plus its lock and apply queue. mu is held
// exclusively by every engine call but a clean read, which holds it
// shared (Pool.step).
type Shard struct {
	p *Pool

	mu sync.RWMutex
	e  *core.Engine

	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []queuedChange
	busy    bool      // applier is mid-batch
	batchAt time.Time // oldest stamp of the in-flight batch (valid while busy)
	closed  bool
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
	p := &Pool{pmap: pmap}
	empty := map[string]bool{}
	p.srcs.Store(new([]string))
	p.outs.Store(&empty)
	for i := 0; i < n; i++ {
		sh := &Shard{p: p, e: core.New(opts)}
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
	}
	return p, nil
}

// Close stops the apply goroutines (after draining their queues).
func (p *Pool) Close() {
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

// Owner returns the index of the shard owning key.
func (p *Pool) Owner(key string) int { return p.pmap.Owner(key) }

// Shard returns the i'th shard handle (loader wiring, tests).
func (p *Pool) Shard(i int) *Shard { return p.shards[i] }

// member returns the pool's one engine for an entry point only a server
// member calls — the cluster gate, loaders, replica holds, the durable
// store. A member is one engine; a multi-engine pool is an
// embedded Cache, which has none of these, so a call there is a bug.
func (p *Pool) member(op string) *Shard {
	if len(p.shards) != 1 {
		panic(fmt.Sprintf("shard: %s is member-only and needs a one-engine pool, not %d engines", op, len(p.shards)))
	}
	return p.shards[0]
}

// Map returns the pool's partition map, fixed at New.
func (p *Pool) Map() *partition.Map { return p.pmap }

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
		if p.pmap.Owner(c.Key) != i {
			return
		}
		// Evictions drop this shard's cached copy, not the data's
		// validity; siblings keep their replicas (§2.5).
		if c.Op != core.OpEvict && slices.Contains(*p.srcs.Load(), keys.Table(c.Key)) {
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
// in-process twin of a member's peer feeds (server/upstream.go). Each
// batch is popped and applied under the shard lock; busy marks it in
// flight, so Lag and Quiesce count it until it is visible.
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
			// Evict ops never arrive: onChange forwards none.
			if qc.c.Op == core.OpRemove {
				sh.e.Remove(qc.c.Key)
			} else {
				sh.e.Put(qc.c.Key, qc.c.Value)
			}
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

// lockOwner locks and returns the shard owning key.
func (p *Pool) lockOwner(key string) *Shard {
	sh := p.shards[p.pmap.Owner(key)]
	sh.mu.Lock()
	return sh
}

// lockServing is lockOwner for a client write: under the lock it also
// checks cluster ownership, failing with *partition.NotOwnerError
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
	sh.mu.Unlock()
	return found, nil
}

// step is the one locked attempt every read makes at a shard (DESIGN.md
// "A read, end to end"). In an ungated pool (an embedded Cache's) it
// first offers the read to clean, under the shard's lock held shared:
// clean serves the read when it has nothing to compute — the engine's
// GetClean or ScanClean, which change nothing and need no budget — and
// readers of one shard then run side by side. Otherwise, and always on
// a gated member (whose connection serves its frames in order, so
// sharing buys it no parallel reads while its feed writer pays for the
// read lock), the read takes the exclusive step: under owner's lock,
// [lo, hi) must be this process's (else NotOwner carrying the gate);
// then the engine call op runs with the staleness budget, cut to zero
// when the shard's forwarded-write queue already lags past it, and
// either completes or reports loads in flight, which step returns as
// *LoadPending for the caller to retry on. A nil clean (a subscribing
// scan) goes straight to the exclusive step. The shard needs no
// ownership check: the pool's map never changes.
func (p *Pool) step(owner int, lo, hi string, maxStale time.Duration,
	clean func(e *core.Engine) bool,
	op func(e *core.Engine, budget time.Duration) (pending int)) error {
	sh := p.shards[owner]
	if clean != nil && !p.exclusiveReads && p.gate.Load() == nil {
		sh.mu.RLock()
		ok := clean(sh.e)
		sh.mu.RUnlock()
		if ok {
			return nil
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if g := p.gate.Load(); g != nil && !g.OwnsRange(keys.Range{Lo: lo, Hi: hi}) {
		return &partition.NotOwnerError{View: g}
	}
	budget := maxStale
	if budget > 0 && sh.Lag(time.Now()) > budget {
		budget = 0 // queue already over budget: fresh fallback
	}
	if op(sh.e, budget) > 0 {
		return &LoadPending{W: sh.e.LoadWait()}
	}
	return nil
}

// Get returns the value under key from its owning shard: GetBounded
// with no budget and the error dropped, for pools that cannot fail a
// read (an embedded Cache's: no gate, no loader).
func (p *Pool) Get(key string) (string, bool) {
	v, ok, _ := p.GetBounded(key, 0)
	return v, ok
}

// GetBounded is Get carrying a staleness budget (zero = fully fresh):
// one step at the key's shard.
func (p *Pool) GetBounded(key string, maxStale time.Duration) (v string, ok bool, err error) {
	point := keys.Range{Lo: key, Hi: key + "\x00"}
	err = p.step(p.pmap.Owner(key), point.Lo, point.Hi, maxStale, func(e *core.Engine) (clean bool) {
		v, ok, clean = e.GetClean(point)
		return clean
	}, func(e *core.Engine, budget time.Duration) (pending int) {
		v, ok, pending = e.GetBounded(point, budget)
		return pending
	})
	if err != nil {
		return "", false, err
	}
	return v, ok, nil
}

// Scan returns up to limit (0 = all) pairs in [lo, hi), as Get drops
// ScanBounded's error. buf's capacity is reused for the first piece. If
// sub is non-nil it is invoked for each piece while the owning shard's
// lock is still held, immediately after that piece's final (complete)
// scan — the atomic snapshot+subscribe window cross-server
// subscriptions need (§2.4).
func (p *Pool) Scan(lo, hi string, limit int, buf []core.KV, sub func(shard int, r keys.Range)) []core.KV {
	kvs, _ := p.ScanBounded(lo, hi, limit, buf, sub, 0)
	return kvs
}

// ScanBounded is Scan carrying a staleness budget, as GetBounded:
// partition.Gather over the pool's map, one step per piece. Subscribing
// scans (sub != nil) always run fresh — the subscription snapshot must
// be exact or the subscriber would permanently miss the writes the
// budget skipped — and visit every piece, each subscription needing its
// piece's complete snapshot.
func (p *Pool) ScanBounded(lo, hi string, limit int, buf []core.KV, sub func(shard int, r keys.Range), maxStale time.Duration) ([]core.KV, error) {
	if sub != nil {
		maxStale = 0
	}
	return partition.Gather(p.Map, keys.Range{Lo: lo, Hi: hi}, limit, sub != nil, buf,
		func(pc partition.Shard, limit int, buf []core.KV) ([]core.KV, error) {
			var clean func(e *core.Engine) bool
			if sub == nil {
				clean = func(e *core.Engine) (ok bool) {
					buf, ok = e.ScanClean(pc.R.Lo, pc.R.Hi, limit, buf)
					return ok
				}
			}
			err := p.step(pc.Owner, pc.R.Lo, pc.R.Hi, maxStale, clean, func(e *core.Engine, budget time.Duration) (pending int) {
				buf, pending = e.ScanIntoBounded(pc.R.Lo, pc.R.Hi, limit, buf, budget)
				if pending == 0 && sub != nil {
					sub(pc.Owner, pc.R)
				}
				return pending
			})
			return buf, err
		},
		func(error, int) bool { return false })
}

// Count returns the number of keys in [lo, hi) after join computation,
// as Get drops CountBounded's error.
func (p *Pool) Count(lo, hi string) int {
	n, _ := p.CountBounded(lo, hi, 0)
	return n
}

// CountBounded is the length of ScanBounded.
func (p *Pool) CountBounded(lo, hi string, maxStale time.Duration) (int, error) {
	kvs, err := p.ScanBounded(lo, hi, 0, nil, nil, maxStale)
	return len(kvs), err
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
	p.refreshSourcesLocked()
	return nil
}

// InstalledText returns the pool's installed join texts concatenated in
// install order, newline-separated — the form a joiner's first
// MapUpdate ships it, so a drained member re-joining the cluster can
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

// SourceTables returns the installed joins' base source tables in
// order of first appearance (join.SourceTables). The slice is shared:
// callers must not modify it.
func (p *Pool) SourceTables() []string { return *p.srcs.Load() }

// refreshSourcesLocked recomputes the source-table set and, on a
// multi-engine pool, backfills the tables that just became forwarded.
// Caller holds imu.
func (p *Pool) refreshSourcesLocked() {
	next := join.SourceTables(p.installed)
	prev := *p.srcs.Load()
	p.srcs.Store(&next)
	if len(p.shards) == 1 {
		return
	}
	for _, t := range next {
		if !slices.Contains(prev, t) {
			p.backfill(t)
		}
	}
}

// backfill replicates the current contents of a newly forwarded table
// from each owner to every sibling, walking the owner's store directly.
// Enqueueing happens under the owner's lock so concurrent writes forward
// in order behind the snapshot.
func (p *Pool) backfill(table string) {
	at := time.Now()
	for _, pc := range p.pmap.Split(keys.RangeOf(table)) {
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
// abandoned. Each read parked on these loads has its restart context
// resolved once, when the last load it waits for resolves — to retry
// and emit or, if the range migrated away, bounce with NotOwner.
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
// update feeds) to this shard under one lock acquisition. It counts no
// served operation — a shard counts only the writes its own clients
// make — so the engine's quiet path applies it: a peer's push was
// counted at its home, a database's update by no server. A push for a
// loader-backed range the engine does not hold — evicted since it
// subscribed, or a replica copy dropped since — is dropped: applied,
// the row would sit outside any presence record, invisible to the LRU
// and stale as soon as the subscription lapses.
func (sh *Shard) ApplyBatch(changes []core.Change) {
	sh.mu.Lock()
	for _, c := range changes {
		switch {
		case !sh.e.Tracks(c.Key):
		case c.Op == core.OpRemove:
			sh.e.RemoveQuiet(c.Key)
		default:
			sh.e.PutQuiet(c.Key, c.Value)
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
