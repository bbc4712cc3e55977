package core

// Durable snapshot support: a non-destructive walk of the engine's
// persistent-worthy state (base rows + valid computed coverage), and the
// recovery-side warm rebuild. Unlike ExtractRange these leave the engine
// untouched — they feed the durable store's periodic snapshots, which
// must not perturb serving.
//
// Both must run under the shard's lock, like every engine entry point.

import (
	"pequod/internal/keys"
	"pequod/internal/store"
)

// SnapshotWalk emits every stored row whose table skip does not exclude,
// then every valid computed range per installed join (by join index, the
// same indexing WarmRange uses everywhere else). Join output rows are
// the canonical skip: they are derived state, captured as warm coverage
// and recomputed at recovery instead of being persisted row by row.
func (e *Engine) SnapshotWalk(skip func(table string) bool, emitKV func(k, v string), emitWarm func(w WarmRange)) {
	e.s.Scan("", "", func(k string, v *store.Value) bool {
		if skip == nil || !skip(keys.Table(k)) {
			emitKV(k, v.String())
		}
		return true
	})
	for idx, ij := range e.joins {
		ij.status.all(func(st *JoinStatus) { emitWarm(WarmRange{Join: idx, R: st.r}) })
	}
}

// RebuildWarm eagerly re-derives previously valid computed coverage
// after a recovery restore, so ranges that were hot before the restart
// come back hot instead of being recomputed by the first unlucky
// reader. Entries indexing joins this engine lacks (the recovered join
// set diverged from the snapshot's) are skipped — they recompute on
// demand, which is only a cold start, never a correctness problem.
func (e *Engine) RebuildWarm(ws []WarmRange) {
	for _, w := range ws {
		if w.Join < 0 || w.Join >= len(e.joins) {
			continue
		}
		ij := e.joins[w.Join]
		if rr := w.R.Intersect(ij.j.Out.TableRange()); !rr.Empty() {
			e.ensure(ij, rr, 0)
		}
	}
}
