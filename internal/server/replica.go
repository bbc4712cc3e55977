package server

// Per-range replication, member side: warm copies of other members'
// ranges kept fresh through the subscription machinery the mesh uses
// for join sources, so a repair can promote this member to serve a dead
// peer's range without re-fetching anything.
//
// The coordinator's part is one integer: the copies per range, riding
// every MapUpdate it publishes (Limit) and kept whatever the view's age,
// so a member that missed a publish catches up at the coordinator's next
// anti-entropy round. Everything else is derived, not listed. Placement:
// each member walks the gate's ring of distinct member addresses
// (partition.View.ReplicaHolds) and keeps a copy of every range whose
// owner it directly succeeds, so the coordinator and every member always
// agree on who holds what without a second source of truth that could
// drift from the map; Server.advance reshapes the holds after every gate
// move. Tables: a copy holds the base source tables of the member's own
// joins (join.SourceTables, read off the pool) — computed tables are
// rebuilt from them at promotion — or whole ranges while no join is
// installed. A join install that changes the set starts every hold over,
// and closes the connections to their homes so each drops the
// subscriptions the old set took out; the keep rule drops keys outside
// the set meanwhile.
//
// A copy is the member's one copy of those rows: the joins that read
// them and the hold share it. A landed snapshot replaces the copy and
// marks it resident for good (Pool.Hold), so joins read it without
// loading it, eviction never reaches it, and pushes land through the
// one sink, Shard.ApplyBatch — the quiet path, counted at the home. The
// rows are invisible to clients — every serving operation re-validates
// cluster ownership and bounces with NotOwner — until a repaired map
// promotes this member, at which point the gate swap alone makes them
// authoritative.
//
// The copies ride the server's one upstream (upstream.go), beside mesh
// loads, with one keep rule: pushes racing an in-flight snapshot are
// buffered behind it, and both pushes and snapshot rows are dropped
// once the gate no longer names the feed's home as their keys' home — a
// promotion makes this member the home, so a late replica delivery can
// never clobber a post-promotion write.
//
// A held range is confirmed *synced* only once a full snapshot+
// subscribe pass lands. Unsynced ranges are re-scheduled by every
// reshape and by the server's watchdog pass, which also retires failed
// home connections (their push feeds died with them), so neither a
// republished assignment nor a home restart nor an exhausted retry loop
// can leave a copy permanently empty or silently stale.

import (
	"context"
	"slices"
	"sync"
	"time"

	"pequod/internal/keys"
	"pequod/internal/partition"
)

// replicaState is a member's replication bookkeeping: the copies per
// range the coordinator last published (0 until a map carries a count)
// and the ranges it holds. Where the copies live is not stored: it is
// the gate's ring walk for copies (heldRanges), reshaped after every
// gate move, so an ungated member and one the gate names for no range
// hold nothing.
type replicaState struct {
	s *Server

	syncs sync.WaitGroup // in-flight syncRange goroutines

	mu     sync.Mutex
	closed bool                     // stop ran (Close): no further syncs start
	copies int                      // total copies per range, including the owner's
	held   map[keys.Range]*replHold // assigned replica range -> sync state
}

// replHold is one assigned replica range's sync state. The home is
// fixed for the life of the entry — a reassignment replaces the entry —
// so a sync goroutine can verify it still owns its range by pointer
// identity alone. synced flips true only after a full snapshot+subscribe
// pass lands, and back to false when the home connection fails (pushes
// were missed; the copy must re-snapshot). An unsynced entry is
// re-scheduled by every reshape and by the watchdog, so no failure mode
// leaves a replica permanently empty or stale. done is made when a sync
// starts and closed when it exits, so quiesce can wait for a sync still
// dialing its home.
type replHold struct {
	home    string
	synced  bool
	syncing bool
	done    chan struct{}
}

// assignReplicas records the copies per range a MapUpdate (or the
// meta.json a restart recovers) carries. The holds follow from it and
// the gate: Server.advance reshapes them next.
func (s *Server) assignReplicas(copies int) {
	st := s.repl
	st.mu.Lock()
	st.copies = copies
	st.mu.Unlock()
}

// replicaKeep is the upstream's one keep rule: the gate still names addr
// as key's home, and key's table is one a copy holds — a join source, or
// any table while no join is installed — which covers every mesh load.
// A peer address is never this member's own, so a key the gate makes
// this member's — a promotion, a splice — stops flowing from the old
// home at once, and a late delivery cannot clobber a local write.
func (s *Server) replicaKeep(addr, key string) bool {
	tables := s.pool.SourceTables()
	return s.pool.Gate().OwnerAddr(key) == addr && (len(tables) == 0 || slices.Contains(tables, keys.Table(key)))
}

// heldRanges is where a member keeps copies under gate g with copies per
// range: every range whose owner it directly succeeds on the ring of
// distinct member addresses, mapped to that owner's address.
func heldRanges(g *partition.View, copies int) map[keys.Range]string {
	out := make(map[keys.Range]string)
	for _, o := range g.ReplicaHolds(copies) {
		out[g.Map().OwnerRange(o)] = g.Addrs()[o]
	}
	return out
}

// reshapeReplicas makes the held replica set match the gate and the
// copy count — drop ranges assigned away, snapshot+subscribe ranges
// gained. Holds are a function of (gate, copies), so a MapUpdate reshapes
// them at once. Idempotent: an unchanged gate and count diff to nothing.
// The gate is read under rmu, so whichever reshape runs last saw the
// newest gate. regrant starts every hold over, as if newly granted: the
// replicated table set changed. It restarts every feed too: closing a
// connection is how a home drops the subscriptions the old set took
// out, and the mesh coverage they carried goes with them (dropFedBy).
func (s *Server) reshapeReplicas(regrant bool) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	g := s.pool.Gate()
	if g == nil {
		return // ungated: no hold, no feed
	}
	st := s.repl
	st.mu.Lock()
	desired := heldRanges(g, st.copies)

	// Stale copies to drop before any sync starts: ranges assigned away,
	// and ranges newly granted — ghost rows from an earlier stint as
	// their replica (or subscriber) would shadow the fresh snapshot. A
	// hold kept across assignments is spared: its possibly-stale copy is
	// still the best available promotion source until a snapshot
	// replaces it (land drops ghosts before applying). New holds enter
	// held only after the drop, so a watchdog pass cannot sync one first
	// and have the drop wipe what it landed.
	drop := make(map[keys.Range]bool)
	for r, h := range st.held {
		if regrant || desired[r] != h.home {
			delete(st.held, r)
			drop[r] = true
		}
	}
	var granted []keys.Range
	for r := range desired {
		if st.held[r] == nil {
			granted = append(granted, r)
			drop[r] = true
		}
	}
	st.mu.Unlock()
	if regrant {
		s.up.retain(nil)
		s.dropFedBy(g.Addrs(), nil)
	}
	for r := range drop {
		s.pool.DropRangeAll(r) // sparing the pieces this member serves
	}
	st.mu.Lock()
	for _, r := range granted {
		st.held[r] = &replHold{home: desired[r]}
	}
	st.mu.Unlock()
	// Schedule a sync for every desired range not yet confirmed synced —
	// a fresh grant, an earlier sync that exhausted its attempts, or a
	// copy marked stale by a failed home connection. A reshape with a
	// sync already in flight for a kept hold adopts it instead of
	// cancelling and re-counting held as done.
	st.startSyncs()
}

// subRanges restricts a range to the given tables (all of it when there
// are none): the join sources a replica copies or the mesh loads.
func subRanges(r keys.Range, tables []string) []keys.Range {
	if len(tables) == 0 {
		return []keys.Range{r}
	}
	var out []keys.Range
	for _, t := range tables {
		tr := keys.Range{Lo: t + keys.SepString, Hi: keys.PrefixEnd(t + keys.SepString)}
		if sub := tr.Intersect(r); !sub.Empty() {
			out = append(out, sub)
		}
	}
	return out
}

// replicaAttempts bounds snapshot retries per scheduled sync; a range
// still unsynced after them is re-scheduled by the next reshape or the
// next watchdog pass, so a failing home is retried
// until it answers or a repair reassigns its ranges.
const replicaAttempts = 4

// startSyncs launches a sync for every held range that is neither
// synced nor already syncing.
func (st *replicaState) startSyncs() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	for r, h := range st.held {
		if !h.synced && !h.syncing {
			h.syncing, h.done = true, make(chan struct{})
			st.syncs.Add(1)
			go st.syncRange(h, r)
		}
	}
}

// syncRange snapshots+subscribes one assigned replica range at its
// home. Runs on its own goroutine, at most one per held entry (the
// syncing flag), so a reshape that still sources the range from the
// same home is adopted mid-sync rather than cancelling it; the range is
// confirmed synced only once a full pass lands (land).
func (st *replicaState) syncRange(h *replHold, r keys.Range) {
	defer st.syncs.Done()
	defer func() {
		st.mu.Lock()
		h.syncing = false
		close(h.done)
		st.mu.Unlock()
	}()
	for attempt := 0; attempt < replicaAttempts; attempt++ {
		st.mu.Lock()
		live := st.held[r] == h && !h.synced
		st.mu.Unlock()
		if !live {
			return // reassigned, torn down (or already synced) while we slept
		}
		if !st.fetch(h, r) {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// fetch runs one snapshot+subscribe round over hold h's replicated
// sub-ranges of r, reporting whether every piece landed.
func (st *replicaState) fetch(h *replHold, r keys.Range) bool {
	var pieces []*piece
	for _, sub := range subRanges(r, st.s.pool.SourceTables()) {
		pieces = append(pieces, &piece{r: sub})
	}
	if len(pieces) == 0 {
		return st.land(nil, h, r, nil)
	}
	p, err := st.s.up.conn(h.home)
	if err != nil {
		return false
	}
	done := make(chan bool, 1)
	p.fetch(pieces, func() { done <- st.land(p.feed, h, r, pieces) })
	return <-done
}

// land applies a round's snapshots for hold h of r, reporting — and
// recording as h.synced — whether every piece succeeded. A round
// whose hold was replaced while it was in flight — r reassigned to
// another home, its copy dropped and perhaps already re-synced from
// there — applies nothing and drops nothing: the late snapshot is no
// longer the copy's source. A successful (possibly empty) snapshot is
// the home's full state for the piece, so it replaces the copy and
// marks it held (Pool.Hold) — rows the snapshot lacks are deletions
// this feed missed while unsubscribed (a home restart, a resync) and
// must not survive as ghosts. A failed scan keeps whatever copy
// exists: still the best promotion source until a retry replaces it.
// Staleness is re-checked per key — the gate may have moved on while
// the snapshot was in flight. The hold check and the landing run
// under st.mu, so a reassignment (which replaces holds under st.mu
// before dropping their copies) orders wholly before or after them:
// the lock order is s.rmu, then st.mu, then the pool's.
func (st *replicaState) land(fd *feed, h *replHold, r keys.Range, pieces []*piece) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.held[r] != h {
		return false
	}
	ok := true
	for _, pc := range pieces {
		if pc.failed {
			ok = false
			continue
		}
		st.s.pool.Hold(pc.r, fd.rows(nil, pc))
	}
	h.synced = ok
	return ok
}

// awaitSyncs waits until every sync running now has exited, or until dl
// (zero: no bound) passes.
func (st *replicaState) awaitSyncs(dl time.Time) error {
	st.mu.Lock()
	var running []chan struct{}
	for _, h := range st.held {
		if h.syncing {
			running = append(running, h.done)
		}
	}
	st.mu.Unlock()
	var expired <-chan time.Time
	if !dl.IsZero() {
		t := time.NewTimer(time.Until(dl))
		defer t.Stop()
		expired = t.C
	}
	for _, done := range running {
		select {
		case <-done:
		case <-expired:
			return context.DeadlineExceeded
		}
	}
	return nil
}

// resync is the replica half of a watchdog pass: holds sourced from a
// home in lost, whose connection failed, are marked unsynced (a home
// restart or TCP reset kills the push feed silently — the copy would
// otherwise go stale while held still matched the assignment), and
// every hold not confirmed synced gets a sync. It returns the held
// ranges.
func (st *replicaState) resync(lost []string) []keys.Range {
	st.mu.Lock()
	held := make([]keys.Range, 0, len(st.held))
	for r, h := range st.held {
		held = append(held, r)
		if slices.Contains(lost, h.home) {
			h.synced = false // pushes were missed; re-snapshot
		}
	}
	st.mu.Unlock()
	st.startSyncs()
	return held
}

// snapshot reports the synced replica ranges (stats): copies actually
// landed, not merely assigned.
func (st *replicaState) snapshot() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, h := range st.held {
		if h.synced {
			n++
		}
	}
	return n
}

// stop ends the replica machinery at Close: no sync starts from here,
// and none in flight lands — every hold is gone.
func (st *replicaState) stop() {
	st.mu.Lock()
	st.closed = true
	st.held = make(map[keys.Range]*replHold)
	st.mu.Unlock()
}
