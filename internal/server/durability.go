package server

// Durable store wiring: the write-behind hook that logs every
// owner-authoritative base write, the periodic snapshot loop, the meta
// persistence that lets a restarted member re-gate and re-wire itself,
// and the recovery path New runs before serving. All of it is inert —
// zero hot-path cost — unless Config.DataDir is set.
//
// Recovery ordering matters and is centralized here:
//
//  1. Replay snapshot+log into the recovered row set (durable.Recover).
//  2. Re-install the persisted join set (the configured joins first;
//     the recovered text must extend them, mirroring JoinCluster's
//     prefix rule, or the warm coverage is dropped).
//  3. Re-install the persisted gate, so a restarted member — including
//     a drained one — answers NotOwner with its last published bounds
//     from the first byte it serves.
//  4. Restore rows the member should still hold (its gate-owned ranges
//     plus its derived replica-held ranges), quietly, BEFORE the write
//     hook is set — restored rows must not be re-logged.
//  5. Set the write hook; from here every write is durable again.
//  6. Re-wire the mesh and replica assignment from meta; peers that are
//     still down are retried in the background.
//  7. Rebuild previously valid computed coverage — only once the mesh
//     is wired, so coverage is never marked valid over partial sources.

import (
	"context"
	"errors"
	"log"
	"reflect"
	"sort"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/durable"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
)

// DefaultSnapshotInterval paces the periodic snapshot loop when the
// config leaves it zero.
const DefaultSnapshotInterval = 30 * time.Second

// DefaultScrubInterval and DefaultCompactInterval pace the durable
// store's background lineage scrub and log compaction when the config
// leaves them zero; a negative config value disables the loop.
const (
	DefaultScrubInterval   = time.Minute
	DefaultCompactInterval = 10 * time.Second
)

// durableHook is the pool change hook with durability on: log the
// change (write-behind — enqueue only, the engine's lock is held), then
// forward to subscribers exactly as forwardChange would.
func (s *Server) durableHook(c core.Change) {
	// Evictions drop a cached copy, not the data's validity (§2.5), and
	// join outputs are derived — both recompute at recovery, neither is
	// logged.
	if c.Op != core.OpEvict && !s.pool.JoinOutput(keys.Table(c.Key)) {
		if c.Op == core.OpRemove {
			s.dur.Append(durable.OpRemove, c.Key, "")
		} else {
			s.dur.Append(durable.OpPut, c.Key, c.Value)
		}
	}
	s.forwardChange(c)
}

// durableLogKVs logs rows that entered the pool without a change
// notification (a cluster splice installs silently); without this the
// destination of a migration would not own its new rows durably.
func (s *Server) durableLogKVs(kvs []rpc.KV) {
	if s.dur == nil {
		return
	}
	for _, kv := range kvs {
		if !s.pool.JoinOutput(keys.Table(kv.Key)) {
			s.dur.Append(durable.OpPut, kv.Key, kv.Value)
		}
	}
}

// snapshotDurable writes one durable snapshot of the pool's current
// state, returning the rows captured.
func (s *Server) snapshotDurable() (int64, error) {
	var rows int64
	err := s.dur.Snapshot(func(addKV func(k, v string), addWarm func(join int, lo, hi string)) error {
		s.pool.SnapshotDurable(func(k, v string) {
			rows++
			addKV(k, v)
		}, addWarm)
		return nil
	})
	return rows, err
}

// snapshotLoop drives periodic snapshots (and refreshes meta alongside
// them) until Close.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.durDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.durStop:
			return
		case <-t.C:
			if _, err := s.snapshotDurable(); err != nil {
				log.Printf("pequod server %s: durable snapshot: %v", s.name, err)
			}
			s.persistMeta()
		}
	}
}

// persistMeta saves the member's current cluster position — gate,
// joins, mesh tables, replica assignment — to the durable store when it
// differs from the last one saved (a save is a rename and a directory
// fsync; the failure detector's anti-entropy republishes an unchanged
// assignment every tick). Called after every control-plane event that
// may change any of them, and from the snapshot loop as a backstop.
// No-op without a data dir.
func (s *Server) persistMeta() {
	if s.dur == nil {
		return
	}
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	m := s.buildMeta()
	if s.saved != nil {
		m.SavedUnixNano = s.saved.SavedUnixNano
		if reflect.DeepEqual(m, s.saved) {
			return
		}
	}
	if err := s.dur.SaveMeta(m); err != nil {
		log.Printf("pequod server %s: persist meta: %v", s.name, err)
		return
	}
	s.saved = m
}

// buildMeta snapshots the member's cluster position. Close captures it
// before tearing down the mesh and replica manager — persisting after
// teardown would erase the mesh record and leave a restarted compute
// member with no loader for its join sources.
func (s *Server) buildMeta() *durable.Meta {
	m := &durable.Meta{Name: s.name, ID: s.id, Joins: s.pool.InstalledText()}
	if g := s.pool.Gate(); g != nil {
		w := g.Wire()
		m.HasGate = true
		m.Epoch, m.Version, m.Bounds, m.Peers, m.Self = w.Epoch, w.Version, w.Bounds, w.Peers, w.Self
	}
	s.mmu.Lock()
	switch {
	case s.mesh != nil:
		m.HasMesh = true
		for t := range s.mesh.tables {
			m.MeshTables = append(m.MeshTables, t)
		}
		sort.Strings(m.MeshTables)
	case s.rewire != nil:
		// Recovered from disk and not dialed yet (retryMesh): still this
		// member's mesh. Saving "none" here would leave a second restart
		// with no loader for its join sources.
		m.HasMesh, m.MeshTables = true, s.rewire.MeshTables
	}
	s.mmu.Unlock()
	s.rmu.Lock()
	if st := s.repl; st != nil {
		st.mu.Lock()
		m.ReplicaCopies, m.ReplicaTables = st.copies, st.tables
		st.mu.Unlock()
	}
	s.rmu.Unlock()
	return m
}

// recoverDurable runs recovery steps 1-4 (see file comment): open the
// store, replay, re-install joins and gate, restore rows quietly. It
// returns the recovered meta (nil if none was ever saved) and the warm
// coverage still to rebuild once the mesh is wired.
func (s *Server) recoverDurable(cfg Config) (*durable.Meta, []core.WarmRange, error) {
	scrub := cfg.ScrubInterval
	if scrub == 0 {
		scrub = DefaultScrubInterval
	}
	compact := cfg.CompactInterval
	if compact == 0 {
		compact = DefaultCompactInterval
	}
	st, err := durable.OpenWith(cfg.DataDir, durable.Options{
		SyncEvery:    cfg.SyncInterval,
		ScrubEvery:   max(scrub, 0),
		CompactEvery: max(compact, 0),
	})
	if err != nil {
		return nil, nil, err
	}
	rec, err := st.Recover()
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	if len(rec.CorruptSegments) > 0 || len(rec.CorruptSnapshots) > 0 {
		log.Printf("pequod server %s: recovery found mid-lineage corruption (segments %v, snapshots %v); serving what replayed — replicas and the mesh backfill the rest",
			s.name, rec.CorruptSegments, rec.CorruptSnapshots)
	}
	// An unreadable meta file costs warm gating/wiring, not data — the
	// rows and log are intact — so start ungated rather than refusing to
	// start at all.
	meta, ok, err := st.LoadMeta()
	if err != nil {
		log.Printf("pequod server %s: recovered meta unusable (%v); starting ungated", s.name, err)
		ok = false
	}
	if !ok {
		meta = nil
	}
	s.dur = st
	rs := &client.RecoveryStat{
		SnapshotRows:     rec.SnapshotRows,
		LogSegments:      rec.LogSegments,
		LogRecords:       rec.LogRecords,
		Torn:             rec.Torn,
		CorruptSegments:  rec.CorruptSegments,
		CorruptSnapshots: rec.CorruptSnapshots,
	}
	s.recovery = rs
	warm := coreWarm(rec.Warm)

	// Joins: the recovered set must equal or extend the configured one
	// (the JoinCluster prefix rule); a conflicting set means the
	// operator reconfigured the server, so the configured joins win and
	// the recovered computed coverage — indexed against the old set —
	// is dropped. Rows are unaffected either way.
	if meta != nil {
		if err := s.extendJoins(meta.Joins); err != nil {
			log.Printf("pequod server %s: recovered join set: %v; recomputing coverage cold", s.name, err)
			warm = nil
		}
	}

	// Gate: re-install the last published map, so the member — drained
	// members included (Self empty) — answers with current bounds from
	// its first served byte.
	var g *partition.View
	if meta != nil && meta.HasGate {
		w := partition.Wire{Epoch: meta.Epoch, Version: meta.Version, Bounds: meta.Bounds, Peers: meta.Peers, Self: meta.Self}
		if g, err = w.View(); err != nil {
			log.Printf("pequod server %s: recovered cluster map unusable (%v); starting ungated", s.name, err)
		} else {
			s.pool.ApplyMapUpdate(g)
		}
	}

	// Rows: restore what this member should still hold — everything if
	// it is not a cluster member, otherwise its gate-owned ranges plus
	// its derived replica-held ranges. Rows outside both linger on disk
	// only (they are the last-resort Repair rebuild source) and would
	// be stale to serve.
	keep := recoveredKeyFilter(g, meta)
	kept := make([]core.KV, 0, len(rec.KVs))
	for _, kv := range rec.KVs {
		if keep(kv.Key) {
			kept = append(kept, core.KV{Key: kv.Key, Value: kv.Value})
		}
	}
	rs.RestoredRows = s.pool.RestoreDurable(kept)
	warm = clipWarm(warm, g)
	return meta, warm, nil
}

// wireRecovered runs recovery steps 6-7: mesh, replica assignment, and
// the warm rebuild. The write hook is already set, so everything from
// here is durable again. Mesh peers that have not come back yet (a
// whole-cluster restart) are retried in the background; the warm
// rebuild waits for the mesh, so coverage is never computed over
// partial sources.
func (s *Server) wireRecovered(meta *durable.Meta, warm []core.WarmRange) {
	// A recovered gate came from meta, so g != nil implies meta != nil.
	g := s.pool.Gate()
	if g != nil && meta.ReplicaCopies > 1 {
		s.assignReplicas(meta.ReplicaCopies, meta.ReplicaTables)
		s.reshapeReplicas()
	}
	if g != nil && meta.HasMesh {
		if err := s.ConnectMesh(g, meta.MeshTables...); err != nil {
			log.Printf("pequod server %s: mesh rewire after restart: %v (retrying in background)", s.name, err)
			ctx, cancel := context.WithCancel(context.Background())
			s.rewireStop, s.rewireDone = cancel, make(chan struct{})
			s.mmu.Lock()
			s.rewire = meta
			s.mmu.Unlock()
			go s.retryMesh(ctx, meta, warm)
			return
		}
	}
	s.pool.RebuildWarm(warm)
	s.recovery.RestoredWarm = len(warm)
}

// retryMesh keeps attempting the post-restart mesh rewire until it
// lands or the server leaves the cluster (Close, Drain) — a
// whole-cluster restart converges as soon as enough peers are back to
// dial.
func (s *Server) retryMesh(ctx context.Context, meta *durable.Meta, warm []core.WarmRange) {
	defer close(s.rewireDone)
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := s.ConnectMesh(s.pool.Gate(), meta.MeshTables...); err != nil {
			continue
		}
		s.pool.RebuildWarm(warm)
		s.recovery.RestoredWarm = len(warm)
		return
	}
}

// recoveredKeyFilter decides which recovered rows a member restores
// into memory. Without a gate everything is local data. With one, the
// member restores rows it serves (gate-owned) and rows it holds as a
// replica for peers — derived from the gate and the persisted
// assignment by heldRanges, as the replica manager's reshape is, so the
// two can never disagree. The restored replica copies are
// promotion-warm immediately and the re-applied assignment re-syncs
// them against their homes (ghost rows and staleness are the sync's
// problem, exactly as after a home restart).
func recoveredKeyFilter(g *partition.View, meta *durable.Meta) func(key string) bool {
	if g == nil {
		return func(string) bool { return true }
	}
	var reps []keys.Range
	for r := range heldRanges(g, meta.ReplicaCopies) {
		reps = append(reps, subRanges(r, meta.ReplicaTables)...)
	}
	return func(key string) bool {
		if g.Owns(key) {
			return true
		}
		for _, r := range reps {
			if r.Contains(key) {
				return true
			}
		}
		return false
	}
}

// clipWarm restricts recovered warm coverage to the ranges the gate
// says this member serves — coverage over ranges owned elsewhere would
// be recomputed only to be dropped.
func clipWarm(ws []core.WarmRange, g *partition.View) []core.WarmRange {
	if g == nil || len(ws) == 0 {
		return ws
	}
	var out []core.WarmRange
	for _, w := range ws {
		for _, pc := range g.Map().Split(w.R) {
			if g.IsSelf(pc.Owner) && !pc.R.Empty() {
				out = append(out, core.WarmRange{Join: w.Join, R: pc.R})
			}
		}
	}
	return out
}

// coreWarm converts durable warm entries to the engine's form.
func coreWarm(ws []durable.Warm) []core.WarmRange {
	out := make([]core.WarmRange, 0, len(ws))
	for _, w := range ws {
		out = append(out, core.WarmRange{Join: w.Join, R: keys.Range{Lo: w.Lo, Hi: w.Hi}})
	}
	return out
}

// handleSnapshot serves MsgSnapshot: force one durable snapshot now.
func (s *Server) handleSnapshot(m *rpc.Message) *rpc.Message {
	if s.dur == nil {
		return rpc.ErrReply(m.Seq, errNoDataDir)
	}
	rows, err := s.snapshotDurable()
	if err != nil {
		return rpc.ErrReply(m.Seq, err)
	}
	s.persistMeta()
	r := rpc.OKReply(m.Seq)
	r.Count = rows
	return r
}

// handleRebuildRange serves MsgRebuildRange, the last-resort repair
// path: replay this member's own durable lineage restricted to the
// range and restore whatever final rows it still holds — replica
// copies from an earlier assignment, rows from an earlier ownership
// stint — installing only keys absent from memory, so writes accepted
// since the promotion always win over older disk state.
func (s *Server) handleRebuildRange(m *rpc.Message) *rpc.Message {
	if s.dur == nil {
		return rpc.ErrReply(m.Seq, errNoDataDir)
	}
	kvs, err := s.dur.ReadRange(m.Lo, m.Hi)
	if err != nil {
		return rpc.ErrReply(m.Seq, err)
	}
	restore := make([]core.KV, 0, len(kvs))
	for _, kv := range kvs {
		if !s.pool.JoinOutput(keys.Table(kv.Key)) {
			restore = append(restore, core.KV{Key: kv.Key, Value: kv.Value})
		}
	}
	n := s.pool.RestoreDurable(restore)
	r := rpc.OKReply(m.Seq)
	r.Count = int64(n)
	return r
}

var errNoDataDir = errors.New("pequod server: no data dir configured; durability is off")
