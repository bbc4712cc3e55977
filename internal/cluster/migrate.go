package cluster

// Client-driven cluster migration: MoveBound relocates a key range
// between the servers on either side of a partition bound, live, with
// no lost writes, gaps, or duplicates. The cluster client is the
// coordinator — it drives three RPCs in order and publishes the result:
//
//  1. ExtractRange at the source. The source atomically stops serving
//     the range (its pool swaps the ownership gate under the owning
//     shards' locks), retains a recovery copy, and returns the owned
//     rows plus the warm computed coverage. Writes that raced the
//     extraction either landed before it (and are in the returned rows)
//     or bounce with NotOwner and retry at the destination.
//  2. SpliceRange at the destination. The destination fences in-flight
//     subscription pushes from the source (a ping; the reply follows
//     every queued push), drops its own subscriber-era cached copies of
//     the range, installs the moved rows, rebuilds the previously valid
//     computed coverage warm, and atomically starts serving the range.
//  3. MapUpdate at every member. Each member adopts the new map,
//     fences the old owner, and drops (with §2.5 eviction semantics)
//     its cached replicas of the moved range, so the next read
//     re-fetches from — and re-subscribes at — the new home. The
//     publish also confirms the source's retained copy.
//
// Between steps 1 and 2 the range is owned by nobody reachable:
// operations on it get NotOwner from both sides and retry with a short
// pause until the splice lands. That window is the transfer itself —
// bounded by one round trip carrying the range's rows.
//
// If step 2 fails (the destination died mid-transfer), the coordinator
// *reverts*: it mints a further successor assigning the range back to
// the source, splices the extracted state back in, and publishes — the
// cluster converges on a consistent map with no range stranded, and the
// failed move surfaces as an error. Elastic membership (membership.go)
// reuses every piece of this machinery, re-offering a drained range to
// the other neighbor before falling back to a revert.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
)

// spliceAttempts bounds retries of the splice RPC before the transfer
// is re-offered or reverted.
const spliceAttempts = 3

// MoveBound migrates the key range implied by moving partition bound i
// to bound between the two servers on either side of it, live. Lowering
// the bound moves [bound, old) from owner i to owner i+1; raising it
// moves [old, bound) from owner i+1 to owner i. When both owner indexes
// are served by the same member, only the map version moves. Migrations
// through one client serialize; a concurrent coordinator's move
// surfaces as a version-conflict error carrying the newer map, which
// this client adopts — the epoch tie-break guarantees exactly one of
// two racing coordinators' maps wins, so one retry after adopting
// re-proposes against the winner and succeeds.
func (cl *Cluster) MoveBound(ctx context.Context, i int, bound string) error {
	cl.mvmu.Lock()
	defer cl.mvmu.Unlock()
	err := cl.moveBoundOnce(ctx, i, bound)
	var noe *client.NotOwnerError
	if errors.As(err, &noe) {
		cur := cl.v.Load().pmap
		if partition.Compare(cur.Epoch(), cur.Version(), noe.Epoch, noe.Version) >= 0 {
			// Version conflict: the source holds a newer map than we
			// proposed against (another coordinator moved first, or this
			// client started from the deployment's original bounds). The
			// conflict reply carried that map and adopt installed it; one
			// retry re-proposes against it.
			err = cl.moveBoundOnce(ctx, i, bound)
		}
	}
	noe = nil
	if errors.As(err, &noe) {
		// Still conflicting after re-proposing against the adopted map:
		// a concurrent coordinator keeps winning. Matchable as
		// ErrConflict (and still as NotOwnerError, which carries the
		// winner's map).
		err = fmt.Errorf("cluster: moving bound %d: %w: %w", i, perrs.ErrConflict, err)
	}
	return err
}

// moveBoundOnce runs one migration attempt against the current view.
func (cl *Cluster) moveBoundOnce(ctx context.Context, i int, bound string) error {
	v := cl.v.Load()
	next, err := v.pmap.MoveBound(i, bound)
	if err != nil {
		return err
	}
	if next, err = next.WithEpoch(cl.mintEpoch(v.pmap.Epoch())); err != nil {
		return err
	}
	nv, err := newView(next, v.addrs)
	if err != nil {
		return err
	}
	old := v.pmap.Bound(i)
	var src, dst int
	var r keys.Range
	if bound < old {
		src, dst, r = i, i+1, keys.Range{Lo: bound, Hi: old}
	} else {
		src, dst, r = i+1, i, keys.Range{Lo: old, Hi: bound}
	}
	srcA, dstA := v.addrs[src], v.addrs[dst]
	if srcA != dstA {
		rs, err := cl.extract(ctx, srcA, r, nv)
		if err != nil {
			return fmt.Errorf("cluster: extracting [%q, %q) from %s: %w", r.Lo, r.Hi, srcA, err)
		}
		if serr := cl.splice(ctx, dstA, srcA, rs, nv); serr != nil {
			// The source no longer serves the range and the destination
			// never accepted it. Revert: assign the range back to the
			// source under a further successor and splice the extracted
			// state back in, so nothing is stranded.
			rerr := cl.revert(ctx, nv, i, old, srcA, dstA, rs)
			if rerr != nil {
				return fmt.Errorf("cluster: splicing [%q, %q) into %s failed (%v) and the revert to %s also failed — range retained at the source, see its stat RPC: %w",
					r.Lo, r.Hi, dstA, serr, srcA, rerr)
			}
			return fmt.Errorf("cluster: splicing [%q, %q) into %s failed; move reverted, %s still serves the range: %w",
				r.Lo, r.Hi, dstA, srcA, serr)
		}
	}
	return cl.publish(ctx, nv, nil)
}

// extract runs the ExtractRange RPC at addr for r under the successor
// view, adopting the newer map on a version conflict.
func (cl *Cluster) extract(ctx context.Context, addr string, r keys.Range, nv *view) (core.RangeState, error) {
	em, err := cl.do(ctx, addr, &rpc.Message{
		Type: rpc.MsgExtractRange, Lo: r.Lo, Hi: r.Hi,
		Epoch: nv.pmap.Epoch(), MapVersion: nv.pmap.Version(),
		Bounds: nv.pmap.Bounds(), Peers: nv.addrs, Self: nv.ownersOf(addr),
	})
	if err != nil {
		var noe *client.NotOwnerError
		if errors.As(err, &noe) {
			cl.adopt(noe.Epoch, noe.Version, noe.Bounds, noe.Peers)
		}
		return core.RangeState{}, wrapDown(addr, err)
	}
	return core.RangeState{R: r, KVs: em.KVs, Warm: em.Warm}, nil
}

// splice retries the SpliceRange RPC at addr, installing rs under the
// successor view; src is the member address the range came from (fenced
// by the destination before the splice; "" = none).
func (cl *Cluster) splice(ctx context.Context, addr, src string, rs core.RangeState, nv *view) error {
	sm := &rpc.Message{
		Type: rpc.MsgSpliceRange, Lo: rs.R.Lo, Hi: rs.R.Hi,
		Epoch: nv.pmap.Epoch(), MapVersion: nv.pmap.Version(),
		Bounds: nv.pmap.Bounds(), Peers: nv.addrs, Self: nv.ownersOf(addr),
		KVs: rs.KVs, Warm: rs.Warm, Src: src,
	}
	var serr error
	for attempt := 0; attempt < spliceAttempts; attempt++ {
		if _, serr = cl.do(ctx, addr, sm); serr == nil {
			return nil
		}
		if ctx.Err() != nil {
			return wrapDown(addr, serr)
		}
		time.Sleep(retryPause)
	}
	return wrapDown(addr, serr)
}

// revert recovers from a failed splice of a plain bound move: a further
// successor (version +1) puts bound i back at old, the extracted state
// splices back into the source, and the result is published — the
// cluster converges with the source serving the range again. The
// publish is best-effort: the splice-back is what restores the data,
// the dead destination obviously cannot acknowledge a map, and every
// other member converges through NotOwner adoption.
func (cl *Cluster) revert(ctx context.Context, nv *view, i int, old, srcA, dstA string, rs core.RangeState) error {
	back, err := nv.pmap.MoveBound(i, old)
	if err != nil {
		return err
	}
	if back, err = back.WithEpoch(cl.mintEpoch(nv.pmap.Epoch())); err != nil {
		return err
	}
	bv, err := newView(back, nv.addrs)
	if err != nil {
		return err
	}
	if err := cl.splice(ctx, srcA, dstA, rs, bv); err != nil {
		return err
	}
	cl.publish(ctx, bv, nil) //nolint:errcheck // best-effort; see above
	return nil
}

// publish broadcasts a successor view to every member (one concurrent
// RPC each, the Scan fan-out pattern) plus any extra addresses (a
// member that just drained out still needs the final map: the publish
// both updates its NotOwner replies and confirms its retained
// extraction). Transfer participants already hold the map (the
// transfer RPCs install it), so for them this is the confirming no-op.
// The view is adopted locally even if some member could not be reached
// — the map took effect at the transfer participants, so routing must
// follow it; the error reports the first failed publish.
func (cl *Cluster) publish(ctx context.Context, nv *view, extra []string) error {
	targets := make([]string, 0, len(nv.mbrs)+len(extra))
	for _, m := range nv.mbrs {
		targets = append(targets, m.addr)
	}
	for _, a := range extra {
		if nv.ownersOf(a) == nil {
			targets = append(targets, a)
		}
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, addr := range targets {
		i, addr := i, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.publishView(ctx, nv, addr)
		}()
	}
	wg.Wait()
	cl.adoptView(nv)
	// Replica assignments follow the map: every member re-derives its
	// replica set from the view just published (strictly after the map,
	// so a promoted owner's gate already owns its ranges when the
	// assignment arrives). Best-effort — the assignment rides every
	// publish, so a missed member converges at the next round.
	cl.publishReplicas(ctx, nv, cl.replicaTables())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MemberLoads polls every member's stat RPC and returns the per-member
// cumulative load units and recent key samples — the cluster
// rebalancer's input, exported for tools and tests.
func (cl *Cluster) MemberLoads(ctx context.Context) ([]MemberLoad, error) {
	mbrs := cl.v.Load().mbrs
	out := make([]MemberLoad, len(mbrs))
	errs := make([]error, len(mbrs))
	var wg sync.WaitGroup
	for i, m := range mbrs {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cl.conn(ctx, m.addr)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: stat from %s: %w", m.addr, err)
				return
			}
			st, err := c.StatSnapshot(ctx)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: stat from %s: %w", m.addr, err)
				return
			}
			out[i] = MemberLoad{Addr: m.addr, Units: st.Load.Units, Samples: st.Load.Samples}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MemberLoad is one member's load snapshot.
type MemberLoad struct {
	Addr    string
	Units   int64
	Samples []string
}
