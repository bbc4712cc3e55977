package shard

// Load-aware shard rebalancing with live range migration. A static
// partition caps read scaling under skew: whatever bounds the operator
// picked, a hot shard stays hot (the paper's §2.4 deployment assumes
// well-chosen bounds up front). The rebalancer closes that gap inside
// the process: every shard accounts the work it serves, a background
// goroutine feeds the counts to the balancing policy
// (partition.Balancer, shared with the cluster client), and when one
// shard runs hot it migrates a slice of that shard's range — live,
// under both shards' locks, without stopping reads elsewhere — to a
// cooler neighbor by moving the partition bound between them.
//
// MoveBound is the in-process instance of the one extract → fence →
// splice protocol (internal/cluster/migrate.go tells it once; DESIGN.md
// "Moving a range" says what each layer adds). Here the fence is the
// pair of shard locks held across the move, and every routed operation
// re-validates ownership after locking a shard, so a request that raced
// the migration reroutes instead of reading a gap or writing to the old
// owner.

import (
	"fmt"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
)

// Rebalance configures the load-aware rebalancer; the knobs and the
// policy they tune are shared with the cluster-level rebalancer
// (partition.Balancer).
type Rebalance = partition.Rebalance

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

// rebState is the pool's rebalancer bookkeeping, guarded by imu.
// Counters update on every MoveBound, including manual ones, so tests
// and operators see forced moves too.
type rebState struct {
	running    bool
	stop       chan struct{}
	done       chan struct{}
	migrations int64
	keysMoved  int64
	warmMoved  int64
	bal        partition.Balancer[int] // owner identity = shard index
}

// startRebalancer launches the rebalance goroutine (called from New for
// multi-shard pools with Config.Rebalance set).
func (p *Pool) startRebalancer(cfg Rebalance) {
	cfg = cfg.WithDefaults()
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

// rebalanceTick takes one load sample and migrates at most one range,
// reporting whether a migration ran.
func (p *Pool) rebalanceTick(cfg Rebalance) bool {
	owners := make([]int, len(p.shards))
	units := make(map[int]int64, len(p.shards))
	for i, sh := range p.shards {
		owners[i] = i
		units[i] = sh.unitsTotal.Load()
	}
	p.imu.Lock()
	i, bound, ok := p.reb.bal.Decide(cfg, p.pmap.Load(), owners, units,
		func(hot int) []string { return p.shards[hot].sampleKeys() })
	p.imu.Unlock()
	if !ok || p.MoveBound(i, bound) != nil {
		return false
	}
	p.imu.Lock()
	p.reb.bal.Moved()
	p.imu.Unlock()
	return true
}

// sampleKeys snapshots the shard's ring of recently served keys.
func (sh *Shard) sampleKeys() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []string
	for _, k := range sh.samples {
		if k != "" {
			out = append(out, k)
		}
	}
	return out
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

	// The forwards queued for r settle on both sides first, so the cut
	// captures them in replication order, and none replays after the flip
	// to clobber newer owner writes and re-forward a stale value
	// (applyLoop's pop-under-lock guarantees every unapplied forward is
	// still queued here). Replicated source tables stay in place on both
	// sides — every shard holds them already; imu (held) keeps the
	// forwarded set stable.
	fwdSet := *p.fwd.Load()
	a.applyQueuedRange(r)
	rs := a.e.ExtractRange(r, func(table string) bool { return fwdSet[table] })
	b.applyQueuedRange(r)
	b.e.SpliceRange(rs)

	// Publish. From here every routed operation that locks either shard
	// re-validates against this map.
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
	st := RebalanceStats{
		Enabled:    p.reb.running,
		Migrations: p.reb.migrations,
		KeysMoved:  p.reb.keysMoved,
		WarmMoved:  p.reb.warmMoved,
		Version:    m.Version(),
		Bounds:     m.Bounds(),
	}
	for i := range p.shards {
		st.Loads = append(st.Loads, p.reb.bal.Load(i))
	}
	return st
}
