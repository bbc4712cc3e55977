package shard

// Member durable store support: the snapshot walk the server's durable
// subsystem drives, the recovery-side restore, and the warm rebuild. A
// member is one engine, so every row it holds is owner-authoritative —
// logged and snapshotted exactly once — while internal/durable owns the
// disk format and internal/server owns when any of this runs.

import "pequod/internal/core"

// JoinOutput reports whether table is some installed join's output.
// Safe from change hooks: the set is copy-on-write.
func (p *Pool) JoinOutput(table string) bool { return (*p.outs.Load())[table] }

// SnapshotDurable walks a member's durable state for one snapshot:
// every base row (join outputs are skipped — they are derived, captured
// as warm coverage instead) and every valid computed range per join. It
// holds imu for the duration, which serializes against migrations and
// join installs so the join indexes are stable across the whole walk;
// the engine is scanned under its lock.
func (p *Pool) SnapshotDurable(emitKV func(k, v string), emitWarm func(join int, lo, hi string)) {
	sh := p.member("SnapshotDurable")
	p.imu.Lock()
	defer p.imu.Unlock()
	outs := *p.outs.Load()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.e.SnapshotWalk(func(t string) bool { return outs[t] }, emitKV,
		func(w core.WarmRange) { emitWarm(w.Join, w.R.Lo, w.R.Hi) })
}

// RestoreDurable folds recovered rows back into a member, installing
// only keys the store does not already hold — a write that landed after
// recovery began is newer than anything on disk and must win. Each row
// takes the lock on its own, so writes keep flowing through a big
// restore. Call it before the server's change hook is set, or every
// restored row would be re-logged. Returns the number of rows installed.
func (p *Pool) RestoreDurable(kvs []core.KV) int {
	sh := p.member("RestoreDurable")
	n := 0
	for _, kv := range kvs {
		sh.mu.Lock()
		if _, ok := sh.e.Store().Get(kv.Key); !ok {
			sh.e.PutQuiet(kv.Key, kv.Value)
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// RebuildWarm eagerly re-derives previously valid computed coverage on a
// member, so ranges that were hot before a restart come back hot. Call
// it only once the member's sources are wired (joins installed, and on a
// gated member the loader that its gate implies registered): ensure()
// computes from whatever sources exist, and coverage computed before a
// loader is attached would be marked valid over partial data. A loader
// whose homes are down fails the loads, and the coverage recomputes on
// demand.
func (p *Pool) RebuildWarm(ws []core.WarmRange) {
	sh := p.member("RebuildWarm")
	if len(ws) == 0 {
		return
	}
	p.imu.Lock()
	defer p.imu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.e.RebuildWarm(ws)
}
