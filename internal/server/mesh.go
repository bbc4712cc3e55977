package server

// The subscription mesh, member side (§2.4, §3.3): the remote loader
// that fetches join-source ranges from their home servers over peer
// connections, the wiring that installs it, the watchdog that
// notices a peer process went away, and the teardown. Every routing
// decision here reads the pool's gate — the one cluster view a member
// holds — so a load started after an extract, a splice or a published
// map routes to the range's current home with no second view to follow.

import (
	"fmt"
	"sync"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/shard"
)

// meshState records a server's position in a partitioned mesh so later
// ConnectMesh calls (a join installed at runtime adding source tables)
// can reuse the dialed peer connections. Peer connections are keyed by
// *address* (one per peer), so they survive owner indexes shifting when
// a member joins or drains; advance resizes the connection set to the
// gate's members after every gate move.
type meshState struct {
	loader *remoteLoader
	tables map[string]bool
}

// remoteLoader fetches missing base ranges for the engine from home
// servers over peer connections, subscribing for future updates (§2.4,
// §3.3). Pieces whose owner is this server itself (a symmetric mesh,
// where every member is home for part of each table) are skipped: their
// data arrives as direct writes, and a network self-fetch would recurse
// into this same loader.
//
// Connections are keyed by peer *address*: ownership is read through
// the pool's gate, so a load started after a live migration — or after
// a membership change shifted owner indexes — routes to the range's
// current home. A fetch that races a migration gets a StatusNotOwner
// reply; the piece fails, the retry re-splits against the gate (which
// the coordinator's publish advances), and if pieces still cannot be
// fetched the load *fails* (Shard.LoadsDone's failed list) rather than
// marking an absent range resident — blocked readers retry and re-route
// instead of silently seeing a gap. Connections to members that left
// are closed by the resize that follows the gate; connections to fresh
// members dial on demand.
type remoteLoader struct {
	sh   *shard.Shard
	pool *shard.Pool // routing reads its gate
	up   *upstream   // peer connections, whose pushes apply to the engine
}

func newRemoteLoader(s *Server) *remoteLoader {
	sh := s.pool.Shard(0)
	return &remoteLoader{sh: sh, pool: s.pool, up: newUpstream(s.homedAt, sh.ApplyBatch)}
}

// allConns snapshots the loader's connections to addr — to every peer
// when addr is empty.
func (m *meshState) allConns(addr string) []*client.Client {
	var out []*client.Client
	for a, c := range m.loader.up.conns() {
		if addr == "" || a == addr {
			out = append(out, c)
		}
	}
	return out
}

// watchEvery paces the watchdog.
const watchEvery = 200 * time.Millisecond

// watch is the server's one watchdog goroutine, from New until Close.
func (s *Server) watch() {
	defer close(s.watchDone)
	t := time.NewTicker(watchEvery)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
			s.watchPass()
		}
	}
}

// watchPass notices upstream peers whose process went away — a
// connection a restarted peer cannot resurrect — and invalidates what
// the subscriptions that died with it were keeping fresh, which would
// otherwise go silently stale. Replica holds sourced from the peer are
// marked unsynced and re-snapshot, along with any hold whose earlier
// sync exhausted its attempts; mesh-table coverage loaded from the peer
// is dropped with eviction semantics, so the next read re-fetches from
// (and re-subscribes at) whatever process answers at the address now.
func (s *Server) watchPass() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.rmu.Lock()
	repl := s.repl
	s.rmu.Unlock()
	var held []keys.Range
	if repl != nil {
		held = repl.resync()
	}
	s.mmu.Lock()
	m := s.mesh
	var tables []string
	if m != nil {
		for tb := range m.tables {
			tables = append(tables, tb)
		}
	}
	s.mmu.Unlock()
	if m == nil {
		return
	}
	failed := make(map[string]bool)
	for _, a := range m.loader.up.retireFailed() {
		failed[a] = true
	}
	if len(failed) == 0 {
		return
	}
	v := s.pool.Gate()
	for o, a := range v.Addrs() {
		if !failed[a] || v.IsSelf(o) {
			continue
		}
	next:
		for _, rr := range subRanges(v.Map().OwnerRange(o), tables) {
			// A range held as a replica copy is the replica half's to
			// invalidate — it re-snapshots stale copies and they may be
			// the only surviving data for a repair to promote. Likewise
			// dropUnownedPieces spares pieces the gate already promoted
			// this member to serve.
			for _, h := range held {
				if rr.Overlaps(h) {
					continue next
				}
			}
			s.dropUnownedPieces(rr)
		}
	}
}

// leaveCluster tears down the mesh wiring and the replica machinery
// (shutdown, drain), returning only once no watchdog pass, replica sync
// or post-restart rewire that could still touch the pool — or wire a
// mesh behind the teardown — on their behalf is running.
func (s *Server) leaveCluster() {
	if s.rewireStop != nil {
		s.rewireStop()
		<-s.rewireDone
	}
	s.mmu.Lock()
	mesh := s.mesh
	s.mesh, s.rewire = nil, nil
	s.mmu.Unlock()
	if mesh != nil {
		mesh.loader.up.closeAll()
	}
	s.rmu.Lock()
	repl := s.repl
	s.repl = nil
	s.rmu.Unlock()
	if repl != nil {
		repl.closeAll()
	}
	s.wmu.Lock() // wait out a pass that snapshotted them before the teardown
	s.wmu.Unlock()
}

// ConnectMesh wires this server to the home servers of the loader-backed
// base tables. A mesh implies a gate: v becomes the pool's gate when it
// has none, and otherwise the gate stays the authority — a v older than
// it is harmless (a stale caller; the tables still extend), and a v at
// its position with another shape is rejected, on the first wiring and
// on later ones alike. Loads route by the gate, whose self set names the
// ranges this server serves itself from direct writes instead of remote
// fetches. Calling it again extends the table set (a join installed at
// runtime adding source tables) reusing the dialed connections. Wiring
// is atomic: if any peer dial fails, the connections dialed for this
// call are closed and the server is left exactly as before, so a retry
// does not leak or duplicate.
func (s *Server) ConnectMesh(v *partition.View, tables ...string) error {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	g, install := s.pool.Gate(), false
	if g == nil {
		g, install = v, true
	} else if !g.Newer(v) && !v.Newer(g) {
		if err := g.SameShape(v); err != nil {
			return fmt.Errorf("pequod server: mesh view disagrees with the cluster map at e%d v%d: %w",
				g.Map().Epoch(), g.Map().Version(), err)
		}
	}
	if s.mesh == nil {
		mesh := &meshState{loader: newRemoteLoader(s), tables: make(map[string]bool)}
		// Eager dial so a bad member address fails the wiring visibly
		// (and atomically) instead of surfacing later as load timeouts.
		for o, a := range g.Addrs() {
			if g.IsSelf(o) {
				continue // no connection to ourselves
			}
			if _, err := mesh.loader.up.conn(a); err != nil {
				mesh.loader.up.closeAll()
				return fmt.Errorf("pequod server: mesh peer %s: %w", a, err)
			}
		}
		if install {
			s.pool.ApplyMapUpdate(g)
		}
		s.mesh = mesh
	}
	var fresh []string
	for _, t := range tables {
		if !s.mesh.tables[t] {
			s.mesh.tables[t] = true
			fresh = append(fresh, t)
		}
	}
	if len(fresh) > 0 {
		s.mesh.loader.sh.SetLoader(s.mesh.loader, fresh...)
	}
	return nil
}

// StartLoads implements core.BaseLoader: fetch every home-server piece
// of every range with a subscription. The engine calls it under the
// shard lock, so it only hands the batch to a goroutine, which may have
// to dial; from there on nothing blocks — each home connection gets its
// pieces as pipelined frames behind one flush, and the replies complete
// the batch from the connection's reader goroutine.
func (l *remoteLoader) StartLoads(loads []core.Load) {
	go l.fetch(loads, loadAttempts)
}

// loadAttempts bounds re-splitting a load against the gate; each retry
// follows a short pause, so a load racing a migration converges on the
// new owner once the coordinator's publish reaches this member.
const loadAttempts = 4

// loadFetch tracks one load across the home-server pieces it split
// into; the batch mutex guards it.
type loadFetch struct {
	core.Load
	pieces int  // replies outstanding
	failed bool // some piece could not be fetched
}

// fetchGroup is the part of one batch bound for one home connection:
// the pieces of one snapshot round (peer.fetch) and the load each
// belongs to.
type fetchGroup struct {
	p      *peer
	pieces []*piece
	loads  []*loadFetch // parallel to pieces
}

// fetch starts one batch of loads: pieces this server homes itself need
// no fetch (only presence is missing), the rest go out grouped by home
// connection.
func (l *remoteLoader) fetch(loads []core.Load, attempts int) {
	v := l.pool.Gate()
	mu := new(sync.Mutex)                  // guards the loadFetches: loads may span groups
	groups := make(map[string]*fetchGroup) // by home address; nil = unreachable
	var landed, failed []core.Load
	for _, ld := range loads {
		lf := &loadFetch{Load: ld}
		for _, pc := range v.Map().Split(ld.R) {
			if v.IsSelf(pc.Owner) {
				continue // already local
			}
			addr := v.Addrs()[pc.Owner]
			g, tried := groups[addr]
			if !tried {
				if p, err := l.up.conn(addr); err == nil {
					g = &fetchGroup{p: p}
				}
				groups[addr] = g
			}
			if g == nil {
				lf.failed = true // unreachable home
				continue
			}
			lf.pieces++
			g.pieces = append(g.pieces, &piece{r: pc.R})
			g.loads = append(g.loads, lf)
		}
		switch {
		case lf.pieces > 0: // resolved by the groups' replies
		case lf.failed:
			failed = append(failed, ld)
		default:
			landed = append(landed, ld)
		}
	}
	l.deliver(nil, landed, failed, attempts)
	for _, g := range groups {
		if g != nil {
			g.p.fetch(g.pieces, func() { l.land(g, mu, attempts) })
		}
	}
}

// land applies a group's snapshots and resolves the loads it completes
// — a load whose pieces span connections is resolved by whichever group
// finishes it last. Only keys the peer still homes apply: a migration
// completing mid-flight may have moved part (a bound landed inside a
// piece) or all of a snapshot's range away, and the retry refetches
// that from the new home. A piece the peer refused (NotOwner: the range
// moved away mid-fetch) fails its load; the view the refusal carries is
// not adopted — moving the gate without the splice or promotion that
// accompanies an ownership flip would be wrong, and keeping it anywhere
// else would be a second view — so the retry re-splits against the gate.
func (l *remoteLoader) land(g *fetchGroup, mu *sync.Mutex, attempts int) {
	var rows []core.KV
	var landed, failed []core.Load
	mu.Lock()
	for i, pc := range g.pieces {
		lf := g.loads[i]
		if pc.failed {
			lf.failed = true
		}
		rows = g.p.feed.rows(rows, pc)
		if lf.pieces--; lf.pieces > 0 {
			continue
		}
		if lf.failed {
			failed = append(failed, lf.Load)
		} else {
			landed = append(landed, lf.Load)
		}
	}
	mu.Unlock()
	l.deliver(rows, landed, failed, attempts)
}

// deliver hands finished loads to the shard in one call. Failed loads
// are refetched whole while attempts remain — after a moment, giving a
// publishing coordinator time to finish its MapUpdate round before the
// re-split against the gate — and only then *fail*: marking an
// unfetched range resident would serve a silent gap, so blocked readers
// retry and re-route instead.
func (l *remoteLoader) deliver(rows []core.KV, landed, failed []core.Load, attempts int) {
	if len(failed) > 0 && attempts > 1 {
		retry := failed
		time.AfterFunc(2*time.Millisecond, func() { l.fetch(retry, attempts-1) })
		failed = nil
	}
	if len(rows)+len(landed)+len(failed) > 0 {
		l.sh.LoadsDone(rows, landed, failed)
	}
}
