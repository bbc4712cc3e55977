package server

// Cluster-level live migration and elastic membership, server side: the
// RPCs that move a key range between servers — or a whole server in or
// out of the cluster — without stopping it.
//
//	ExtractRange  (at the source)       capture the range + flip ownership
//	SpliceRange   (at the destination)  fence stale pushes + install
//	MapUpdate     (at every member)     adopt the map, drop stale replicas
//	Replicate     (at every member)     a MapUpdate that also sets copies
//	JoinCluster   (at a fresh server)   wire mesh + joins + gate in one call
//	Drain         (at a drained server) tear down its mesh wiring
//
// Each moves the one cluster view a member holds, its pool's gate,
// through Server.advance; the mesh's peer connections, the replica
// holds and meta.json are derived from the gate and follow it there.
//
// The coordinator — pequod's cluster client, or the pequod-cli move /
// rebalance / add / drain subcommands — drives them;
// internal/cluster/migrate.go tells the protocol and DESIGN.md "Moving a
// range" what each layer adds. This layer adds the network-level
// fences: before the destination splices, and before a member drops a
// moved range, in-flight subscription pushes from the range's old owner
// are fenced with a ping — the reply follows every queued push on that
// connection, so nothing stale can be applied afterwards and overwrite
// a newer value. Fences are addressed by member address, which stays
// meaningful when a join or drain shifts owner indexes.

import (
	"context"
	"errors"
	"strings"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
)

// handleMapBearing serves the control-plane messages that carry a
// cluster view — position, bounds, the member address per owner index
// and the recipient's self set; membership changes reshape all of them,
// and they swap atomically with the data transfer. The view is decoded
// and validated here, once, before any state moves: a frame whose peers
// do not match its owner count, or whose self indexes fall outside it,
// gets an error reply and changes nothing.
func (s *Server) handleMapBearing(m *rpc.Message, dl time.Time) *rpc.Message {
	next, err := m.Map.View()
	if err != nil {
		return rpc.ErrReply(m.Seq, err)
	}
	switch m.Type {
	case rpc.MsgConnectPeers:
		err = s.advance(func() error { return s.ConnectMesh(next, m.Tables...) })
	case rpc.MsgExtractRange:
		return s.handleExtractRange(m, next)
	case rpc.MsgSpliceRange:
		err = s.handleSpliceRange(m, next, dl)
	case rpc.MsgJoinCluster:
		err = s.advance(func() error { return s.joinCluster(next, m.Tables, m.Text) })
	default: // rpc.MsgMapUpdate, rpc.MsgReplicate
		return s.handleMapUpdate(m, next, dl)
	}
	if err != nil {
		return errReply(m.Seq, err)
	}
	return rpc.OKReply(m.Seq)
}

// advance is the one way this server's view — the pool's gate — moves.
// apply runs the transition the message asks for: a gate swap (extract,
// splice, map update), the mesh wiring, a join. If it took, what derives
// from the gate follows it: the mesh's peer connections shrink to the
// gate's members, the replica holds are reshaped to its ring walk, and
// the position is persisted when it changed. The gate is read under the
// locks, so the last to run sees the newest gate.
func (s *Server) advance(apply func() error) error {
	if err := apply(); err != nil {
		return err
	}
	s.mmu.Lock()
	if s.mesh != nil {
		g := s.pool.Gate()
		want := make(map[string]bool)
		for _, m := range g.Members() {
			want[m.Addr] = !g.SelfAddr(m.Addr)
		}
		// Only close departed members' connections here; fresh members dial
		// lazily on the load path. An eager dial under mmu would stall this
		// server's quiesce/fence/map-update handling for the full connect
		// timeout whenever a published view still names an unreachable
		// address (a revert after a member died does exactly that).
		s.mesh.loader.up.retain(want)
	}
	s.mmu.Unlock()
	s.reshapeReplicas()
	s.persistMeta()
	return nil
}

// handleExtractRange serves MsgExtractRange: remove [m.Lo, m.Hi) from
// this server and return its owned rows and warm computed coverage,
// atomically ceasing to serve the range. The request carries the
// successor view (exactly one version ahead); a stale coordinator gets
// StatusNotOwner with the current one. The extracted state is retained
// pool-side until a published map confirms the destination serves the
// range.
func (s *Server) handleExtractRange(m *rpc.Message, next *partition.View) *rpc.Message {
	var rs core.RangeState
	// The extracted rows are NOT logged as removes: they linger in the
	// durable lineage until the next snapshot, which is what makes this
	// member a last-resort rebuild source if the destination dies before
	// anyone else holds a copy (see handleRebuildRange).
	err := s.advance(func() (err error) {
		rs, err = s.pool.ExtractClusterRange(keys.Range{Lo: m.Lo, Hi: m.Hi}, next)
		return err
	})
	if err != nil {
		return errReply(m.Seq, err)
	}
	r := rpc.OKReply(m.Seq)
	r.KVs = rs.KVs
	r.Warm = rs.Warm
	return r
}

// handleSpliceRange serves MsgSpliceRange: install an extracted range
// and atomically start serving it. m.Src names the member address the
// range came from; pushes in flight from that peer are fenced first so a
// stale replicated write cannot land after the splice and overwrite a
// newer owner write here.
func (s *Server) handleSpliceRange(m *rpc.Message, next *partition.View, dl time.Time) error {
	if m.Src != "" {
		if err := s.fenceAddr(m.Src, dl); err != nil {
			return err
		}
	}
	rs := core.RangeState{R: keys.Range{Lo: m.Lo, Hi: m.Hi}, KVs: m.KVs, Warm: m.Warm}
	if err := s.advance(func() error { return s.pool.SpliceClusterRange(rs, next) }); err != nil {
		return err
	}
	// A splice installs rows silently (no change notifications, so
	// subscribers don't see them as fresh writes), which also bypasses
	// the write-behind hook — log them explicitly or the migrated range
	// would not survive a restart here.
	s.durableLogKVs(m.KVs)
	return nil
}

// handleMapUpdate serves MsgMapUpdate and MsgReplicate, the one path
// by which a coordinator frame without a transfer moves the gate: adopt
// a newer cluster view. On first contact it installs the member's gate;
// on a migration or membership change it fences the old owners of every
// range that changed hands between two other servers, then lets the pool
// reconcile its cached state (drop stale replicas, demote ranges lost
// without an extraction, restore retained ranges handed back) so the
// next read re-fetches from — and re-subscribes at — the new home. A
// Replicate frame also sets the replica assignment (copies and tables),
// whatever its view's age: placement derives from the gate, so an older
// view — a coordinator started from the deployment's original bounds
// replicates with the last map it published — still carries a current
// assignment. A member that missed a publish converges at the
// coordinator's next anti-entropy round.
func (s *Server) handleMapUpdate(m *rpc.Message, next *partition.View, dl time.Time) *rpc.Message {
	if g := s.pool.Gate(); g != nil && next.Newer(g) {
		// Fence before the drop: every change the old owners pushed for
		// the departing ranges must be applied (or discarded as stale by
		// the feeds) before the local copies go, or a late push would
		// resurrect dropped data.
		fenced := map[string]bool{}
		for _, d := range partition.DiffAddrs(g, next) {
			oldA, newA := g.OwnerAddr(d.Lo), next.OwnerAddr(d.Lo)
			if next.SelfAddr(oldA) || next.SelfAddr(newA) || fenced[oldA] {
				continue
			}
			fenced[oldA] = true
			if err := s.fenceAddr(oldA, dl); err != nil {
				return rpc.ErrReply(m.Seq, err)
			}
		}
	}
	_ = s.advance(func() error { // this apply cannot fail
		s.pool.ApplyMapUpdate(next)
		if m.Type == rpc.MsgReplicate {
			s.assignReplicas(m.Limit, m.Tables)
		}
		return nil
	})
	if m.Type == rpc.MsgReplicate {
		return rpc.OKReply(m.Seq)
	}
	// Teach the publisher the map this server actually holds: a client
	// that starts from the deployment's original bounds (version 0)
	// after migrations have run publishes a stale map, which the pool
	// ignores — the reply carries the newer one so the client adopts it
	// instead of discovering it through NotOwner bounces.
	return s.gateReply(m.Seq)
}

// gateReply is an OK reply carrying the cluster view this server holds.
func (s *Server) gateReply(seq uint64) *rpc.Message {
	r := rpc.OKReply(seq)
	if g := s.pool.Gate(); g != nil {
		r.Map = g.Wire()
	}
	return r
}

// joinCluster serves MsgJoinCluster at a fresh server: one call installs
// the current cluster view as its gate (owning nothing yet, so it
// answers NotOwner until a splice grants it a range), wires it into the
// subscription mesh, and installs the cluster's join set. The
// coordinator then grants it an initial slice through the ordinary
// extract/splice/publish protocol — by the time any client routes to
// the new member, it is gated, meshed, and computing.
func (s *Server) joinCluster(v *partition.View, tables []string, text string) error {
	// Gate first: from this point every operation outside the (empty)
	// self set bounces with NotOwner instead of landing on an unwired
	// server.
	s.pool.ApplyMapUpdate(v)
	if err := s.ConnectMesh(v, tables...); err != nil {
		return err
	}
	// Install the cluster's join set — idempotently, so a drained member
	// re-joining with the joins already installed (or holding a prefix
	// of a join set that grew since) does not fail on duplicates.
	return s.extendJoins(text)
}

// errJoinConflict refuses a join set that neither equals nor extends the
// one installed.
var errJoinConflict = errors.New("pequod server: a conflicting join set is already installed")

// extendJoins installs the part of join set text beyond the installed
// one, which it must equal or extend: a cluster's join set only grows,
// appended to in install order.
func (s *Server) extendJoins(text string) error {
	have := s.pool.InstalledText()
	switch {
	case text == "" || text == have:
		return nil
	case have == "":
	case strings.HasPrefix(text, have+"\n"):
		text = text[len(have)+1:]
	default:
		return errJoinConflict
	}
	return s.pool.InstallText(text)
}

// handleDrain serves MsgDrain at a member whose last range has moved
// out: its mesh wiring (peer connections, remote loaders' feeds) is
// torn down, while the gate — now owning nothing under the published
// post-drain map — stays, so stale clients still get NotOwner replies
// carrying that map and re-route instead of failing. The process keeps
// running; re-adding it later goes through JoinCluster again.
func (s *Server) handleDrain(m *rpc.Message) *rpc.Message {
	// A drained member holds replicas for no one; re-adding it later
	// publishes a fresh assignment through JoinCluster's publish round.
	s.leaveCluster()
	// Persist the post-drain position: a restarted drained member must
	// still answer NotOwner with the current bounds, not serve stale
	// data it no longer owns.
	s.persistMeta()
	return s.gateReply(m.Seq)
}

// fenceAddr fences this server's connections to the peer at addr, if
// any.
func (s *Server) fenceAddr(addr string, dl time.Time) error {
	s.mmu.Lock()
	var conns []*client.Client
	if s.mesh != nil {
		conns = s.mesh.allConns(addr)
	}
	s.mmu.Unlock()
	return fence(conns, dl)
}

// fence pings conns, bounded by dl (zero = none): each reply follows
// every subscription push the peer had queued for us, and our readers
// apply pushes in order, so afterwards nothing sent before the fence is
// still in flight. A transport error means a dead peer, which owes us
// nothing; a context error means the deadline cut the fence short.
func fence(conns []*client.Client, dl time.Time) error {
	ctx := context.Background()
	if !dl.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	for _, c := range conns {
		if err := c.Ping(ctx); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}
