package shard

// Load-aware shard rebalancing with live range migration. The static
// partition PR 1 introduced caps read scaling under skew: whatever
// bounds the operator picked, a hot shard stays hot (the paper's §2.4
// deployment assumes well-chosen bounds up front). The rebalancer
// closes that gap inside the process: every shard accounts the work it
// serves, a background goroutine folds the counts into an EWMA, and
// when one shard runs hot it migrates a slice of that shard's range —
// live, under both shards' locks, without stopping reads elsewhere — to
// a cooler neighbor by moving the partition bound between them.
//
// Migration protocol (MoveBound), for a range r moving src -> dst:
//
//  1. Take imu: migrations serialize with each other and with join
//     installation/backfill, so the forwarded-table set and the map are
//     stable.
//  2. Lock both shards (in index order; scans lock one shard at a time,
//     so the pool-wide hierarchy stays acyclic).
//  3. Drain dst's queued replica writes for r into its engine, in
//     order. dst is about to become r's owner: a stale forwarded write
//     replayed after the flip would clobber newer owner writes and
//     re-forward the stale value. applyLoop's pop-under-lock guarantees
//     every unapplied forward is still in the queue here.
//  4. ExtractRange at src / SpliceRange at dst (internal/core): owned
//     rows move; replicated source-table rows stay put on both sides
//     (ownership alone flips); computed and loader-backed ranges drop
//     with eviction semantics and the previously valid computed
//     coverage is rebuilt eagerly at dst, so the hot range arrives
//     warm.
//  5. Publish the successor partition map. Routed operations
//     re-validate ownership after locking a shard, so a request that
//     raced the migration reroutes instead of reading a gap or writing
//     to the old owner.
//
// Readers never observe a gap or duplicate: every key is owned by
// exactly one shard under every published map (fuzzed in
// internal/partition), data moves while both owners are locked, and
// every read path re-checks ownership under the lock it holds.

import (
	"fmt"
	"sort"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
)

// Rebalance configures the load-aware rebalancer.
type Rebalance struct {
	// Interval between load samples / rebalance decisions.
	// Default 100ms.
	Interval time.Duration
	// Ratio is how far above the mean per-shard load the hottest shard
	// must run before a migration triggers. Default 1.5.
	Ratio float64
	// MinOps is the per-interval pool-wide load floor below which the
	// pool is considered idle and no move happens. Default 128.
	MinOps int64
	// HalfLife weights the EWMA: the fraction of each new sample folded
	// in per interval, in (0, 1]. Default 0.5.
	HalfLife float64
}

// withDefaults fills unset knobs.
func (r Rebalance) withDefaults() Rebalance {
	if r.Interval <= 0 {
		r.Interval = 100 * time.Millisecond
	}
	if r.Ratio <= 1 {
		r.Ratio = 1.5
	}
	if r.MinOps <= 0 {
		r.MinOps = 128
	}
	if r.HalfLife <= 0 || r.HalfLife > 1 {
		r.HalfLife = 0.5
	}
	return r
}

// RebalanceStats snapshots the rebalancer's activity.
type RebalanceStats struct {
	Enabled    bool      `json:"enabled"`
	Migrations int64     `json:"migrations"` // boundary moves executed
	KeysMoved  int64     `json:"keys_moved"` // owned rows physically moved
	WarmMoved  int64     `json:"warm_moved"` // computed ranges rebuilt warm at the destination
	Version    int64     `json:"version"`    // current partition map version
	Bounds     []string  `json:"bounds"`     // current split points
	Loads      []float64 `json:"loads"`      // per-shard EWMA load (ops + rows per interval)
}

// rebState is the pool's rebalancer bookkeeping. Counters update on
// every MoveBound, including manual ones, so tests and operators see
// forced moves too.
type rebState struct {
	running    bool
	stop       chan struct{}
	done       chan struct{}
	migrations int64
	keysMoved  int64
	warmMoved  int64
	ewma       []float64

	// Hysteresis: a shard must run hot for hotPersist consecutive ticks
	// before a migration triggers, and after a migration the rebalancer
	// sits out cooldownTicks ticks. Without this, transient skew — a
	// burst draining, closed-loop workers finishing at different times —
	// causes migration thrash that costs more than the imbalance it
	// chases.
	hotStreak int
	cooldown  int
}

// hotPersist and cooldownTicks are the hysteresis constants (see
// rebState). A migration can run at most once every
// cooldownTicks+hotPersist intervals.
const (
	hotPersist    = 2
	cooldownTicks = 5
)

// startRebalancer launches the rebalance goroutine (called from New for
// multi-shard pools with Config.Rebalance set).
func (p *Pool) startRebalancer(cfg Rebalance) {
	cfg = cfg.withDefaults()
	p.reb.running = true
	p.reb.stop = make(chan struct{})
	p.reb.done = make(chan struct{})
	go p.rebalanceLoop(cfg)
}

// stopRebalancer stops the goroutine and waits for it (idempotent).
func (p *Pool) stopRebalancer() {
	p.imu.Lock()
	running := p.reb.running
	p.reb.running = false
	p.imu.Unlock()
	if running {
		close(p.reb.stop)
		<-p.reb.done
	}
}

func (p *Pool) rebalanceLoop(cfg Rebalance) {
	defer close(p.reb.done)
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.reb.stop:
			return
		case <-t.C:
			p.rebalanceTick(cfg)
		}
	}
}

// rebalanceTick takes one load sample and migrates at most one range.
// It reports whether a migration ran (tests poll it indirectly through
// RebalanceStats).
func (p *Pool) rebalanceTick(cfg Rebalance) bool {
	n := len(p.shards)
	p.imu.Lock()
	if p.reb.ewma == nil {
		p.reb.ewma = make([]float64, n)
	}
	var raw int64
	hot, total := 0, 0.0
	for i, sh := range p.shards {
		d := sh.units.Swap(0)
		raw += d
		p.reb.ewma[i] = (1-cfg.HalfLife)*p.reb.ewma[i] + cfg.HalfLife*float64(d)
		total += p.reb.ewma[i]
		if p.reb.ewma[i] > p.reb.ewma[hot] {
			hot = i
		}
	}
	ewma := append([]float64(nil), p.reb.ewma...)
	mean := total / float64(n)
	idle := raw < cfg.MinOps || total == 0
	over := !idle && ewma[hot] > cfg.Ratio*mean
	if p.reb.cooldown > 0 {
		p.reb.cooldown--
		over = false
	} else if over {
		p.reb.hotStreak++
		over = p.reb.hotStreak >= hotPersist
	} else {
		// Idle ticks break the streak too: two hot bursts separated by
		// hours of idleness are not "persistently hot", and the key
		// samples from the first burst would be stale by the second.
		p.reb.hotStreak = 0
	}
	p.imu.Unlock()

	if !over {
		return false
	}

	// Shed load to the cooler neighbor: enough to meet it halfway.
	nb := hot + 1
	if hot == n-1 || (hot > 0 && ewma[hot-1] < ewma[nb]) {
		nb = hot - 1
	}
	frac := (ewma[hot] - ewma[nb]) / (2 * ewma[hot])
	if frac <= 0 {
		return false
	}

	bound, ok := p.pickBound(hot, nb, frac)
	if !ok {
		return false
	}
	boundIdx := hot
	if nb < hot {
		boundIdx = hot - 1
	}
	moved := p.MoveBound(boundIdx, bound) == nil
	if moved {
		p.imu.Lock()
		p.reb.hotStreak = 0
		p.reb.cooldown = cooldownTicks
		p.imu.Unlock()
	}
	return moved
}

// pickBound chooses the new split point between the hot shard and its
// neighbor from the hot shard's recent key samples: the quantile that
// sheds roughly frac of the hot shard's load. Returns false when there
// are too few samples in the hot shard's current range to trust.
func (p *Pool) pickBound(hot, nb int, frac float64) (string, bool) {
	const minSamples = 16
	m := p.pmap.Load()
	sh := p.shards[hot]
	var keysIn []string
	sh.mu.Lock()
	for _, k := range sh.samples {
		if k != "" && m.Owner(k) == hot {
			keysIn = append(keysIn, k)
		}
	}
	sh.mu.Unlock()
	if len(keysIn) < minSamples {
		return "", false
	}
	sort.Strings(keysIn)
	var q string
	if nb > hot {
		// Move the top frac of the hot shard's keys right: the new
		// bound is the (1-frac) quantile.
		q = keysIn[clampIndex(int(float64(len(keysIn))*(1-frac)), len(keysIn))]
	} else {
		// Move the bottom frac left: the bound above the neighbor rises
		// to the frac quantile.
		q = keysIn[clampIndex(int(float64(len(keysIn))*frac), len(keysIn))]
	}
	return q, true
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// MoveBound executes one live migration: bound i of the partition map
// moves to bound, and the range between the old and new split points
// migrates between shards i and i+1 (whichever direction the move
// implies) without readers observing a gap or duplicate. It validates
// like partition.Map.MoveBound and is safe to call concurrently with
// traffic; the rebalancer uses it, and tests force it directly.
func (p *Pool) MoveBound(i int, bound string) error {
	if len(p.shards) == 1 {
		return fmt.Errorf("shard: single-shard pool has no bounds to move")
	}
	p.imu.Lock()
	defer p.imu.Unlock()
	m := p.pmap.Load()
	next, err := m.MoveBound(i, bound)
	if err != nil {
		return err
	}
	old := m.Bound(i)
	var src, dst int
	var r keys.Range
	if bound < old {
		src, dst, r = i, i+1, keys.Range{Lo: bound, Hi: old}
	} else {
		src, dst, r = i+1, i, keys.Range{Lo: old, Hi: bound}
	}
	a, b := p.shards[src], p.shards[dst]
	lo, hi := a, b
	if dst < src {
		lo, hi = b, a
	}
	lo.mu.Lock()
	hi.mu.Lock()

	// Step 3: settle dst's pending forwarded writes for r before it
	// becomes owner (see the protocol comment at the top of this file).
	b.applyQueuedRange(r)

	// Step 4: move state. Replicated source tables stay in place on
	// both sides; imu (held) keeps the forwarded set stable.
	fwdSet := *p.fwd.Load()
	rs := a.e.ExtractRange(r, func(table string) bool { return fwdSet[table] }, false)
	b.e.SpliceRange(rs)

	// Step 5: publish. From here every routed operation that locks
	// either shard re-validates against this map.
	p.pmap.Store(next)

	p.reb.migrations++
	p.reb.keysMoved += int64(len(rs.KVs))
	p.reb.warmMoved += int64(len(rs.Warm))

	hi.mu.Unlock()
	lo.mu.Unlock()
	return nil
}

// applyQueuedRange applies (in queue order) and removes every queued
// forwarded change whose key lies in r. Called with sh.mu held; entries
// outside r stay queued for the applier. The qcond broadcast keeps
// Quiesce honest about the shrunken queue.
func (sh *Shard) applyQueuedRange(r keys.Range) {
	sh.qmu.Lock()
	var mine []core.Change
	rest := sh.queue[:0]
	for _, qc := range sh.queue {
		if r.Contains(qc.c.Key) {
			mine = append(mine, qc.c)
		} else {
			rest = append(rest, qc)
		}
	}
	sh.queue = rest
	sh.qmu.Unlock()
	for _, c := range mine {
		sh.applyChange(c)
	}
	if len(mine) > 0 {
		sh.qcond.Broadcast()
	}
}

// ShardLoads returns each shard's cumulative served load (ops + rows
// since the pool started) — the raw material for skew measurements.
func (p *Pool) ShardLoads() []float64 {
	out := make([]float64, len(p.shards))
	for i, sh := range p.shards {
		out[i] = float64(sh.unitsTotal.Load())
	}
	return out
}

// RebalanceStats snapshots rebalancer activity and per-shard load.
func (p *Pool) RebalanceStats() RebalanceStats {
	p.imu.Lock()
	defer p.imu.Unlock()
	m := p.pmap.Load()
	return RebalanceStats{
		Enabled:    p.reb.running,
		Migrations: p.reb.migrations,
		KeysMoved:  p.reb.keysMoved,
		WarmMoved:  p.reb.warmMoved,
		Version:    m.Version(),
		Bounds:     m.Bounds(),
		Loads:      append([]float64(nil), p.reb.ewma...),
	}
}
