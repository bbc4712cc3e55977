package cluster

// Moving a range, told once. Load moves only between servers (an
// embedded Cache's shard bounds are fixed), and every layer of that
// move does the same thing — cut the rows, invalidate what was derived
// from them, paste, recompute warm (§2.5: everything but the base rows
// is a cache that is always safe to evict) — as three verbs:
//
//   - extract at the source: atomically stop serving the range and cut
//     its state out — the rows move, computed coverage drops with
//     eviction semantics, loader-backed residency is clipped, and the
//     coverage that was valid is recorded so the destination rebuilds
//     it warm (core.ExtractRange; shard.ExtractClusterRange swapping
//     the server's ownership gate under the engine's lock and retaining
//     a recovery copy). A write that raced the cut either landed before
//     it (and is in the cut) or bounces with NotOwner and retries at
//     the destination.
//   - fence: nothing stale may land after the flip. The destination
//     pings the source — the reply follows every queued subscription
//     push — before it splices, and every member fences the old owner
//     before it drops.
//   - splice at the destination: drop its own subscriber-era copies of
//     the range, install the moved rows, rebuild the previously valid
//     coverage, start serving.
//
// The cluster client is the coordinator: transfer
// drives ExtractRange at the source and SpliceRange at the destination
// under a successor map, then publishes it (MapUpdate) to every member,
// which adopts it, drops its cached replicas of the moved range — the
// next read re-fetches from, and re-subscribes at, the new home — and
// so confirms the source's retained copy. MoveBound, AddServerAt and
// DrainServer (membership.go) differ only in the successor they mint:
// a bound moved, inserted or removed.
//
// Between extract and splice the range is owned by nobody reachable:
// operations on it get NotOwner from both sides and retry with a short
// pause until the splice lands. That window is the transfer itself —
// bounded by one round trip carrying the range's rows.
//
// If the splice fails (the destination died mid-transfer) the range is
// first re-offered to the caller's alternative destination, if it named
// one; otherwise the transfer rolls back, and there is one rollback:
// the old view's bounds and addresses at a newer (epoch, version), the
// extracted state spliced back into the source, published best-effort.
// The cluster converges on a consistent map with no range stranded, and
// the failed move surfaces as an error.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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
	var noe *partition.NotOwnerError
	if errors.As(err, &noe) {
		if !noe.View.Newer(cl.v.Load()) {
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
	next, err := v.Map().MoveBound(i, bound)
	if err != nil {
		return err
	}
	nv, err := cl.successor(v, next.Bounds(), v.Addrs(), 0)
	if err != nil {
		return err
	}
	old := v.Map().Bound(i)
	src, dst, r := i, i+1, keys.Range{Lo: bound, Hi: old}
	if bound > old {
		src, dst, r = i+1, i, keys.Range{Lo: old, Hi: bound}
	}
	return cl.transfer(ctx, v, nv, r, v.Addrs()[src], v.Addrs()[dst], "")
}

// successor mints the view that follows v — bounds served by addrs —
// at an epoch minted past v's and one version on, plus skip versions to
// supersede maps that may or may not have been applied in between.
func (cl *Cluster) successor(v *partition.View, bounds, addrs []string, skip int64) (*partition.View, error) {
	return v.Successor(cl.mintEpoch(v.Map().Epoch()), skip, bounds, addrs)
}

// transfer moves range r from the member at src to the one at dst under
// nv, a successor of old, and publishes nv — to old's members too, so a
// member that just drained out holds the final map (for its NotOwner
// replies, and to confirm its retained extraction). src == dst moves no
// rows: only the map changes. When dst cannot take the range it is
// re-offered to alt ("" = nobody), which must own a range adjacent to r
// under nv; failing that the transfer rolls back to old. A publish that
// did not reach every member is reported as *publishError: the move
// itself took effect.
func (cl *Cluster) transfer(ctx context.Context, old, nv *partition.View, r keys.Range, src, dst, alt string) error {
	if src != dst {
		rs, err := cl.extract(ctx, src, r, nv)
		if err != nil {
			return fmt.Errorf("cluster: extracting [%q, %q) from %s: %w", r.Lo, r.Hi, src, err)
		}
		serr := cl.splice(ctx, dst, src, rs, nv)
		var skip int64
		if serr != nil && alt != "" && alt != dst {
			// Under nv the range merged into the (dead) first destination's
			// owner index; a further successor moves it over to alt. The
			// reply to a re-offer can be lost with its map applied, so a
			// rollback after one skips past its version.
			skip = 1
			if nv2, err := cl.reofferView(nv, r, alt); err == nil && cl.splice(ctx, alt, src, rs, nv2) == nil {
				nv, serr = nv2, nil
			}
		}
		if serr != nil {
			return cl.rollback(ctx, old, nv, skip, r, src, dst, rs, serr)
		}
	}
	if err := cl.publish(ctx, nv, old.Addrs()); err != nil {
		return &publishError{err}
	}
	return nil
}

// rollback recovers from a failed splice: the source no longer serves r
// and no destination accepted it, so a successor of nv restores old's
// bounds and addresses, the extracted state splices back into src, and
// the result is published. The publish is best-effort: the splice-back
// is what restores the data, the dead destination obviously cannot
// acknowledge a map, and a member the publish missed converges at the
// next map-bearing frame that reaches it. Always returns an error — the
// move failed either way.
func (cl *Cluster) rollback(ctx context.Context, old, nv *partition.View, skip int64, r keys.Range, src, dst string, rs core.RangeState, serr error) error {
	bv, err := cl.successor(nv, old.Map().Bounds(), old.Addrs(), skip)
	if err == nil {
		err = cl.splice(ctx, src, dst, rs, bv)
	}
	if err != nil {
		return fmt.Errorf("cluster: splicing [%q, %q) into %s failed (%v) and the revert to %s also failed — range retained at the source, see its stat RPC: %w",
			r.Lo, r.Hi, dst, serr, src, err)
	}
	cl.publish(ctx, bv, nv.Addrs()) //nolint:errcheck // best-effort; see above
	return fmt.Errorf("cluster: splicing [%q, %q) into %s failed; move reverted, %s still serves the range: %w",
		r.Lo, r.Hi, dst, src, serr)
}

// publishError marks a transfer whose data moved but whose map publish
// could not reach every member.
type publishError struct{ err error }

func (e *publishError) Error() string { return e.err.Error() }
func (e *publishError) Unwrap() error { return e.err }

// extract runs the ExtractRange RPC at addr for r under the successor
// view, adopting the newer map on a version conflict.
func (cl *Cluster) extract(ctx context.Context, addr string, r keys.Range, nv *partition.View) (core.RangeState, error) {
	em, err := cl.do(ctx, addr, &rpc.Message{Type: rpc.MsgExtractRange, Lo: r.Lo, Hi: r.Hi, Map: nv.For(addr).Wire()})
	if err != nil {
		var noe *partition.NotOwnerError
		if errors.As(err, &noe) {
			cl.adopt(noe.View)
		}
		return core.RangeState{}, wrapDown(addr, err)
	}
	return core.RangeState{R: r, KVs: em.KVs, Warm: em.Warm}, nil
}

// splice retries the SpliceRange RPC at addr, installing rs under the
// successor view; src is the member address the range came from (fenced
// by the destination before the splice; "" = none).
func (cl *Cluster) splice(ctx context.Context, addr, src string, rs core.RangeState, nv *partition.View) error {
	sm := &rpc.Message{
		Type: rpc.MsgSpliceRange, Lo: rs.R.Lo, Hi: rs.R.Hi, Map: nv.For(addr).Wire(),
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

// publish broadcasts a successor view to every member plus whichever of
// the extra addresses are not members under it, in one round of
// MapUpdates that also carry the copy count: every member re-derives its
// replica holds from the view it adopts. Transfer participants already
// hold the map (the transfer RPCs install it), so for them this is the
// confirming no-op. The view is adopted locally even if some member
// could not be reached — the map took effect at the transfer
// participants, so routing must follow it; the error reports the first
// failed publish.
func (cl *Cluster) publish(ctx context.Context, nv *partition.View, extra []string) error {
	targets := make([]string, 0, len(nv.Members())+len(extra))
	for _, m := range nv.Members() {
		targets = append(targets, m.Addr)
	}
	for _, a := range extra {
		if nv.OwnersOf(a) == nil {
			targets = append(targets, a)
		}
	}
	err := cl.publishTo(ctx, nv, targets)
	cl.adopt(nv)
	partition.Advance(&cl.pub, nv)
	return err
}

// publishTo sends v to every address in targets (one concurrent RPC
// each, the Scan fan-out pattern), returning the first failure.
func (cl *Cluster) publishTo(ctx context.Context, v *partition.View, targets []string) error {
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, addr := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.publishView(ctx, v, addr)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MemberLoads polls every member's stat RPC and returns the per-member
// client load (client.ServedLoad: cumulative units and recent key
// samples of the client requests it answered) — the cluster
// rebalancer's input, exported for tools and tests.
func (cl *Cluster) MemberLoads(ctx context.Context) ([]MemberLoad, error) {
	mbrs := cl.v.Load().Members()
	out := make([]MemberLoad, len(mbrs))
	errs := make([]error, len(mbrs))
	var wg sync.WaitGroup
	for i, m := range mbrs {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cl.conn(ctx, m.Addr)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: stat from %s: %w", m.Addr, err)
				return
			}
			st, err := c.StatSnapshot(ctx)
			if err != nil {
				errs[i] = fmt.Errorf("cluster: stat from %s: %w", m.Addr, err)
				return
			}
			out[i] = MemberLoad{Addr: m.Addr, Units: st.Load.Units, Samples: st.Load.Samples}
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

// HotShare returns the hottest member's share of the client load units
// served between two MemberLoads polls. Members are matched by address,
// so a membership change between the polls is handled: a member absent
// from before, or whose counter went down (a warm restart resets it),
// counts from zero, and one present only in before is dropped. It is 0
// when nothing was served.
func HotShare(before, after []MemberLoad) float64 {
	prev := make(map[string]int64, len(before))
	for _, l := range before {
		prev[l.Addr] = l.Units
	}
	var total, hot int64
	for _, l := range after {
		d := l.Units - prev[l.Addr]
		if d < 0 {
			d = l.Units
		}
		total += d
		hot = max(hot, d)
	}
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}
