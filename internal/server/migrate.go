package server

// Cluster-level live migration and elastic membership, server side: the
// RPCs that move a key range between servers — or a whole server in or
// out of the cluster — without stopping it.
//
//	ExtractRange  (at the source)       capture the range + flip ownership
//	SpliceRange   (at the destination)  fence stale pushes + install
//	MapUpdate     (at every member)     adopt the map, copies and joins, reshape replicas
//
// Each moves the one cluster view a member holds, its pool's gate,
// through Server.advance; the peer connections, the replica holds and
// meta.json are derived from the gate and follow it there, and the
// first gate wires the mesh loader (wireLoader). Joining and draining
// are no frames of their own: a joiner's first MapUpdate carries the
// cluster's join set and names it for no range, and a drained member's
// last extract leaves it named for none — which holds no peer
// connection, no fed row and no replica copy.
//
// The coordinator — pequod's cluster client, or the pequod-cli move /
// add / drain subcommands — drives them;
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
	case rpc.MsgExtractRange:
		return s.handleExtractRange(m, next)
	case rpc.MsgSpliceRange:
		err = s.handleSpliceRange(m, next, dl)
	default: // rpc.MsgMapUpdate
		return s.handleMapUpdate(m, next, dl)
	}
	if err != nil {
		return errReply(m.Seq, err)
	}
	return rpc.OKReply(m.Seq)
}

// advance is the one way this server's view — the pool's gate — moves.
// apply runs the transition the message asks for: a gate swap (extract,
// splice, map update). If it took, what derives from the gate follows
// it: the first gate wires the mesh loader (wireLoader) before any
// replica hold is granted, the peer connections shrink to the gate's
// members — to none when it names this member for no range — the
// replica holds are reshaped to its ring walk, and the position is
// persisted when it changed. The gate is read under the locks, so the
// last to run sees the newest gate.
func (s *Server) advance(apply func() error) error {
	before := s.pool.Gate()
	if err := apply(); err != nil {
		return err
	}
	if g := s.pool.Gate(); g != nil {
		if before == nil {
			s.wireLoader()
		}
		named := len(g.Self()) > 0
		var want map[string]bool
		if named {
			want = make(map[string]bool)
			for _, m := range g.Members() {
				want[m.Addr] = !g.SelfAddr(m.Addr)
			}
		}
		// Only close connections here; fresh members dial lazily on the
		// load and sync paths. An eager dial would stall this server's
		// quiesce/fence/map-update handling for the full connect timeout
		// whenever a published view still names an unreachable address (a
		// revert after a member died does exactly that).
		s.up.retain(want)
		if !named && before != nil && len(before.Self()) > 0 {
			// The subscriptions that kept its loaded sources fresh closed
			// with the connections: drop what they fed, so a member named
			// again loads it anew instead of computing over a stale copy.
			s.dropFedBy(g.Addrs(), nil)
		}
	}
	s.reshapeReplicas(false)
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

// handleMapUpdate serves MsgMapUpdate, the one path by which a
// coordinator frame without a transfer moves the gate: adopt a newer
// cluster view. On first contact it installs the member's gate; on a
// migration or membership change it fences the old owners of every range
// that changed hands between two other servers, then lets the pool
// reconcile its cached state (drop stale replicas, demote ranges lost
// without an extraction, restore retained ranges handed back) so the
// next read re-fetches from — and re-subscribes at — the new home. A
// non-zero Limit also sets the copies per range, whatever the view's
// age: placement derives from the gate, so an older view — a coordinator
// started from the deployment's original bounds publishes the last map
// it minted — still carries a current copy count. A member that missed a
// publish converges at the coordinator's next anti-entropy round. A
// joiner's first map also carries the cluster's join set (Text),
// installed first, so that gate wires the loader for its sources; it
// too is taken whatever the view's age (extendJoins is idempotent), and
// a conflicting one is refused before anything moves.
func (s *Server) handleMapUpdate(m *rpc.Message, next *partition.View, dl time.Time) *rpc.Message {
	if err := s.extendJoins(m.Text); err != nil {
		return rpc.ErrReply(m.Seq, err)
	}
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
		if m.Limit > 0 {
			s.assignReplicas(m.Limit)
		}
		return nil
	})
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

// errJoinConflict refuses a join set that neither equals nor extends the
// one installed.
var errJoinConflict = errors.New("pequod server: a conflicting join set is already installed")

// extendJoins installs the part of join set text beyond the installed
// one, which it must equal or extend: a cluster's join set only grows,
// appended to in install order.
func (s *Server) extendJoins(text string) error {
	if text == "" {
		return nil
	}
	have := s.pool.InstalledText()
	switch {
	case text == have:
		return nil
	case have == "":
	case strings.HasPrefix(text, have+"\n"):
		text = text[len(have)+1:]
	default:
		return errJoinConflict
	}
	return s.installJoins(text)
}

// fenceAddr fences this server's connection to the peer at addr, if
// any.
func (s *Server) fenceAddr(addr string, dl time.Time) error {
	return fence(s.up.conns(addr), dl)
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
