package server

// The subscription mesh, member side (§2.4, §3.3): the remote loader
// that fetches join-source ranges from their home servers over peer
// connections, the wiring that installs it, and the watchdog that
// notices a peer process went away. Every routing decision here reads
// the pool's gate — the one cluster view a member holds — so a load
// started after an extract, a splice or a published map routes to the
// range's current home with no second view to follow.
// Which tables load remotely is the member's own joins' business too:
// their base source tables (join.SourceTables, read off the pool), wired
// when the first gate is installed and extended by every join install.

import (
	"slices"
	"sync"
	"time"

	"pequod/internal/core"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/shard"
)

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
// — to every member, once the gate names this one for no range — are
// closed by the resize that follows the gate (Server.advance);
// connections to fresh members dial on demand. The connections are the
// server's one upstream, which its replica holds share: a range a hold
// keeps is resident for good, so no load starts for it.
type remoteLoader struct {
	s  *Server // routing reads its pool's gate; fetches ride its upstream
	sh *shard.Shard
}

func newRemoteLoader(s *Server) *remoteLoader {
	return &remoteLoader{s: s, sh: s.pool.Shard(0)}
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
	lost := s.up.retireFailed()
	held := s.repl.resync(lost)
	if len(lost) > 0 {
		s.dropFedBy(lost, held)
	}
}

// dropFedBy drops, with eviction semantics, the join-source coverage
// this member loaded from the peers at addrs, whose subscriptions died
// with their connections: the next read re-fetches from, and
// re-subscribes at, whatever answers there now. Ranges in spare — held
// replica copies — are their holds' to invalidate: they re-snapshot
// stale copies, which may be the only surviving data for a repair to
// promote. Likewise DropRangeAll spares pieces the gate already
// promoted this member to serve.
func (s *Server) dropFedBy(addrs []string, spare []keys.Range) {
	v, tables := s.pool.Gate(), s.pool.SourceTables()
	for o, a := range v.Addrs() {
		if v.IsSelf(o) || !slices.Contains(addrs, a) {
			continue
		}
	next:
		for _, rr := range subRanges(v.Map().OwnerRange(o), tables) {
			for _, h := range spare {
				if rr.Overlaps(h) {
					continue next
				}
			}
			s.pool.DropRangeAll(rr)
		}
	}
}

// wireLoader keeps the one wiring invariant: a member's join source
// tables are loader-backed exactly when its pool has a gate — a gate is
// a mesh. It runs when the first gate is installed (Server.advance, and
// a restart applying its recovered gate), before any replica hold can
// land in those tables; installJoins extends it with every source table
// a join adds later. An ungated server stays loader-less. Loads dial
// their homes lazily, over the upstream replica holds share.
func (s *Server) wireLoader() {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	s.pool.Shard(0).SetLoader(newRemoteLoader(s), s.pool.SourceTables()...)
}

// installJoins installs join set text on this member. A gated member
// first makes the base source tables the text adds loader-backed, so no
// join computes over a source nobody fetches; when the source set
// changed, every replica hold starts over on the new set
// (reshapeReplicas).
func (s *Server) installJoins(text string) error {
	s.mmu.Lock()
	before := s.pool.SourceTables()
	all, err := join.ParseAll(s.pool.InstalledText() + "\n" + text)
	if err != nil {
		s.mmu.Unlock()
		return err
	}
	if s.pool.Gate() != nil {
		s.pool.Shard(0).SetLoader(newRemoteLoader(s), join.SourceTables(all)...)
	}
	err = s.pool.InstallText(text)
	s.mmu.Unlock()
	if err == nil && !slices.Equal(before, s.pool.SourceTables()) {
		s.reshapeReplicas(true)
	}
	return err
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
// connection. A member the gate names for no range fetches nothing —
// it holds no peer connection (Server.advance) — so its loads fail,
// a retry scheduled before its last range left included.
func (l *remoteLoader) fetch(loads []core.Load, attempts int) {
	v := l.s.pool.Gate()
	if len(v.Self()) == 0 {
		l.deliver(nil, nil, loads, 0)
		return
	}
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
				if p, err := l.s.up.conn(addr); err == nil {
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
