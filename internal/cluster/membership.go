package cluster

// Elastic cluster membership: AddServer splices a fresh server into the
// mesh live, DrainServer streams every range a member owns to its
// neighbors and removes it — both under traffic, both the transfer of
// migrate.go (which tells the protocol) under a map that changes
// *shape* (partition.InsertBound / RemoveBound) instead of moving a
// bound.
//
// A join first wires the fresh server with one MapUpdate — the current
// map as its gate (naming it for no range, so it answers NotOwner until
// granted one, and holds no peer connection), which wires its loader,
// and the cluster's join set — then transfers the upper slice of a
// donor's range, split at a bound picked from its load samples (or
// given explicitly), under the grown map. Every member's MapUpdate
// resizes its mesh to include the new peer; clients that never heard of
// it learn its address from the peers carried on NotOwner replies.
//
// A drain transfers once per owned range: a shrunk map merges the
// departing member's range into a neighbor's, with the other neighbor
// as the alternative destination should the first have died. The last
// extract is the teardown: its successor map names the departing
// server for no range, so it closes its peer connections and drops
// what they fed, and the last publish confirms it. Its gate stays, so
// stale clients still get NotOwner replies carrying the post-drain map.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
)

// joinScanLimit bounds the fallback scan used to pick a split bound
// when the donor has too few load samples (partition.MinSamples).
const joinScanLimit = 256

// AddServer splices the server at addr into the cluster live: the new
// member is wired into the subscription mesh and granted an initial
// slice — the upper half of the busiest member's hottest range, split
// at the median of its load samples (falling back to a key scan when
// the cluster is quiet). Further rebalancing is the rebalancer's job;
// the join only has to give the new member a non-empty range to serve.
// Use AddServerAt to control the donor and bound explicitly.
func (cl *Cluster) AddServer(ctx context.Context, addr string) error {
	cl.mvmu.Lock()
	defer cl.mvmu.Unlock()
	donor, bound, err := cl.pickJoinSplit(ctx, addr)
	if err != nil {
		return err
	}
	return cl.addServerAt(ctx, addr, donor, bound)
}

// AddServerAt is AddServer with an explicit initial grant: donor owner
// index `owner`'s range splits at bound, the new member taking
// [bound, hi).
func (cl *Cluster) AddServerAt(ctx context.Context, addr string, owner int, bound string) error {
	cl.mvmu.Lock()
	defer cl.mvmu.Unlock()
	return cl.addServerAt(ctx, addr, owner, bound)
}

// addServerAt runs the join under mvmu.
func (cl *Cluster) addServerAt(ctx context.Context, addr string, owner int, bound string) error {
	v := cl.v.Load()
	if v.OwnersOf(addr) != nil {
		return fmt.Errorf("cluster: %s is already a member", addr)
	}
	if owner < 0 || owner >= v.Map().Servers() {
		return fmt.Errorf("cluster: donor owner %d out of range [0,%d)", owner, v.Map().Servers())
	}
	donorA := v.Addrs()[owner]
	// Validate the grant before touching the fresh server: its first map
	// gates and meshes it irreversibly, so a bad bound must fail here,
	// not after.
	if _, err := v.Map().InsertBound(owner, bound); err != nil {
		return err
	}
	// Wire the fresh server first: gate (owning nothing), mesh, joins.
	// Until the grown map publishes, no client routes to it. The join
	// set comes from the donor (the cluster is the authority; this
	// coordinator may never have installed anything itself).
	if _, err := cl.do(ctx, addr, &rpc.Message{
		Type: rpc.MsgMapUpdate, Map: v.For(addr).Wire(), Text: cl.joinText(ctx, donorA),
	}); err != nil {
		return fmt.Errorf("cluster: joining %s: %w", addr, err)
	}
	// Mint the grown map: donor keeps [lo, bound), the new member (owner
	// index owner+1; higher indexes shift up) takes [bound, hi).
	next, err := v.Map().InsertBound(owner, bound)
	if err != nil {
		return err
	}
	grownAddrs := make([]string, 0, len(v.Addrs())+1)
	grownAddrs = append(grownAddrs, v.Addrs()[:owner+1]...)
	grownAddrs = append(grownAddrs, addr)
	grownAddrs = append(grownAddrs, v.Addrs()[owner+1:]...)
	nv, err := cl.successor(v, next.Bounds(), grownAddrs, 0)
	if err != nil {
		return err
	}
	return cl.transfer(ctx, v, nv, next.OwnerRange(owner+1), donorA, addr, "")
}

// pickJoinSplit chooses the donor owner index and split bound for a
// join: the busiest member's owner range with the most load samples,
// split at the samples' median (partition.SplitKey) — so the new member
// lands where the load is. A quiet cluster falls back to scanning the
// busiest members' ranges for their middle key. Caller holds mvmu.
func (cl *Cluster) pickJoinSplit(ctx context.Context, addr string) (int, string, error) {
	v := cl.v.Load()
	loads, err := cl.MemberLoads(ctx)
	if err != nil {
		return 0, "", fmt.Errorf("cluster: polling loads to place %s: %w", addr, err)
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Units > loads[j].Units })
	for _, ml := range loads {
		bestOwner, bestKey, bestN := -1, "", 0
		for _, o := range v.OwnersOf(ml.Addr) {
			if k, n := partition.SplitKey(v.Map().OwnerRange(o), ml.Samples, 0.5); n > bestN {
				bestOwner, bestKey, bestN = o, k, n
			}
		}
		if bestN >= partition.MinSamples {
			return bestOwner, bestKey, nil
		}
	}
	// Quiet cluster: scan each owner range (cheapest first attempt: the
	// busiest member's first range) for keys and split at the middle.
	for _, ml := range loads {
		for _, o := range v.OwnersOf(ml.Addr) {
			or := v.Map().OwnerRange(o)
			m, err := cl.do(ctx, ml.Addr, &rpc.Message{Type: rpc.MsgScan, Lo: or.Lo, Hi: or.Hi, Limit: joinScanLimit})
			if err != nil {
				continue
			}
			ks := make([]string, 0, len(m.KVs))
			for _, kv := range m.KVs {
				ks = append(ks, kv.Key)
			}
			if k, n := partition.SplitKey(or, ks, 0.5); n > 0 {
				return o, k, nil
			}
		}
	}
	return 0, "", fmt.Errorf("cluster: no key range with enough data to split for %s; use AddServerAt with an explicit bound", addr)
}

// DrainServer streams every range the member at addr owns to its
// neighbors and removes it from the map — live, under traffic; the last
// extract closes its mesh connections. The drained server keeps
// running (and keeps answering NotOwner with the post-drain map, so
// stale clients re-route); re-adding it later is a fresh AddServer.
// Draining the last member is refused.
func (cl *Cluster) DrainServer(ctx context.Context, addr string) error {
	cl.mvmu.Lock()
	defer cl.mvmu.Unlock()
	if cl.v.Load().OwnersOf(addr) == nil {
		return fmt.Errorf("cluster: %s is not a member", addr)
	}
	// One owned range leaves per iteration; owner indexes shift under
	// us, so re-derive from the current view each round. A publish that
	// could not reach some third member does not stop the drain — the
	// map is already effective at the transfer participants, and a stale
	// member converges at the next map-bearing frame that reaches it —
	// but it is reported once the drain completes, so the operator knows
	// who missed it.
	var pubErr error
	for {
		v := cl.v.Load()
		owners := v.OwnersOf(addr)
		if owners == nil {
			break
		}
		if len(v.Members()) == 1 {
			return fmt.Errorf("cluster: cannot drain %s: it is the last member: %w", addr, perrs.ErrDraining)
		}
		err := cl.drainOneRange(ctx, v, addr, owners[0])
		var pe *publishError
		if errors.As(err, &pe) {
			if pubErr == nil {
				pubErr = pe.err
			}
			continue
		}
		if err != nil {
			return err
		}
	}
	if pubErr != nil {
		return fmt.Errorf("cluster: %s drained, but publishing the map did not reach every member (they converge at the next map-bearing frame): %w", addr, pubErr)
	}
	return nil
}

// drainOneRange moves the range at owner index o off addr: a shrunk map
// merges it into a neighbor — the other neighbor standing by as the
// alternative — and the transfer publishes to everyone including the
// draining member. A neighbor that is addr itself (the member owns
// adjacent ranges) merges with no transfer at all.
func (cl *Cluster) drainOneRange(ctx context.Context, v *partition.View, addr string, o int) error {
	// Shrinking at owner o: RemoveBound(o) merges o into its right
	// neighbor; RemoveBound(o-1) into its left. Either way the new
	// address list simply drops entry o.
	shrunkAddrs := make([]string, 0, len(v.Addrs())-1)
	shrunkAddrs = append(shrunkAddrs, v.Addrs()[:o]...)
	shrunkAddrs = append(shrunkAddrs, v.Addrs()[o+1:]...)
	type offer struct {
		boundIdx int    // bound removed from v.Map()
		dst      string // neighbor receiving the range
	}
	var offers []offer
	if o+1 < v.Map().Servers() {
		offers = append(offers, offer{o, v.Addrs()[o+1]})
	}
	if o > 0 {
		offers = append(offers, offer{o - 1, v.Addrs()[o-1]})
	}
	// The member owning an adjacent range too: merge within itself, no
	// data moves.
	for _, of := range offers {
		if of.dst == addr {
			offers = []offer{of}
			break
		}
	}
	next, err := v.Map().RemoveBound(offers[0].boundIdx)
	if err != nil {
		return err
	}
	nv, err := cl.successor(v, next.Bounds(), shrunkAddrs, 0)
	if err != nil {
		return err
	}
	alt := ""
	if len(offers) > 1 {
		alt = offers[1].dst
	}
	return cl.transfer(ctx, v, nv, v.Map().OwnerRange(o), addr, offers[0].dst, alt)
}

// reofferView derives a successor of nv assigning range r (currently
// merged into a dead neighbor's owner) to dst, which must own an
// adjacent range under nv.
func (cl *Cluster) reofferView(nv *partition.View, r keys.Range, dst string) (*partition.View, error) {
	m := nv.Map()
	deadOwner := m.Owner(r.Lo)
	var next2 *partition.Map
	var err error
	switch {
	case deadOwner > 0 && nv.Addrs()[deadOwner-1] == dst:
		// dst is left of the dead owner: raise the bound between them to
		// r.Hi, handing [r.Lo, r.Hi) leftward.
		if r.Hi == "" {
			return nil, fmt.Errorf("cluster: cannot re-offer an open tail leftward")
		}
		next2, err = m.MoveBound(deadOwner-1, r.Hi)
	case deadOwner < m.Servers()-1 && nv.Addrs()[deadOwner+1] == dst:
		// dst is right of the dead owner: lower the bound to r.Lo.
		next2, err = m.MoveBound(deadOwner, r.Lo)
	default:
		return nil, fmt.Errorf("cluster: %s is not adjacent to [%q, %q)", dst, r.Lo, r.Hi)
	}
	if err != nil {
		return nil, err
	}
	return cl.successor(nv, next2.Bounds(), nv.Addrs(), 0)
}
