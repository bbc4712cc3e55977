package cluster

// Cross-address restore, coordinator side. Repair is the fast path
// after a member dies: promote surviving replicas and move on. Restore
// is the other path — the machine is gone for good, but its durable
// lineage (copied or remounted elsewhere) is the last line of defense
// for its ranges, most valuable exactly when Repair would have had to
// cold-promote. The operator re-keys the lineage to a new address
// (durable.Rekey via `pequod-cli restore -from`), starts a server over
// it there, and Restore publishes the substitution: a same-bounds
// epoch successor in which the new address owns everything the dead
// one did. The restored member recovered its rows, gate, and mesh
// wiring from the lineage before the publish; the publish re-gates it
// under the current epoch, the replica assignment riding it re-syncs
// its copies, and a per-range durable rebuild backfills whatever its
// startup gate filtered out. Deltas it missed while dead converge
// through the mesh and replica feeds exactly as after a warm restart.

import (
	"context"
	"fmt"
	"log"
)

// Restore substitutes newAddr for the confirmed-dead member oldAddr in
// the cluster map, serving oldAddr's ranges from the durable lineage
// the server at newAddr recovered. Preconditions, each checked here:
// oldAddr must still be in the current map (after a completed Repair
// its ranges have moved on — join newAddr with AddServer instead),
// must fail the same consecutive-probe death test Repair applies, and
// newAddr must not be a member yet but must be running with a durable
// store — restoring over a memory-only fresh server would serve the
// dead member's ranges empty.
func (cl *Cluster) Restore(ctx context.Context, oldAddr, newAddr string) error {
	if oldAddr == newAddr {
		return fmt.Errorf("cluster: restore: old and new address are both %s", oldAddr)
	}
	cl.mvmu.Lock()
	defer cl.mvmu.Unlock()
	v := cl.v.Load()
	if v.OwnersOf(oldAddr) == nil {
		return fmt.Errorf("cluster: restore: %s is not in the current map — a repair may have moved its ranges already; join %s with AddServer instead", oldAddr, newAddr)
	}
	if v.OwnersOf(newAddr) != nil {
		return fmt.Errorf("cluster: restore: %s is already a member", newAddr)
	}
	if err := cl.confirmDead(ctx, oldAddr); err == nil {
		return fmt.Errorf("cluster: restore: %s still answers probes; drain it instead of restoring over it", oldAddr)
	}
	c, err := cl.conn(ctx, newAddr)
	if err != nil {
		return fmt.Errorf("cluster: restore: dialing %s: %w", newAddr, wrapDown(newAddr, err))
	}
	st, err := c.StatSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("cluster: restore: stat %s: %w", newAddr, wrapDown(newAddr, err))
	}
	if st.Durable == nil {
		return fmt.Errorf("cluster: restore: %s runs without a data dir; start it with -data-dir over the dead member's re-keyed lineage first", newAddr)
	}

	// Publish the substitution as a same-bounds epoch successor: the
	// usual coordination currency, so a restore racing a migration or a
	// repair serializes through the epoch-ordered versions like any
	// other map change.
	addrs := make([]string, len(v.Addrs()))
	for i, a := range v.Addrs() {
		if a == oldAddr {
			addrs[i] = newAddr
		} else {
			addrs[i] = a
		}
	}
	nv, err := cl.successor(v, v.Map().Bounds(), addrs, 0)
	if err != nil {
		return err
	}
	if err := cl.publish(ctx, nv, nil); err != nil {
		return fmt.Errorf("cluster: restore published, but not to every member (they converge via NotOwner): %w", err)
	}

	// Backfill from the restored member's own lineage: rows its startup
	// gate filtered out (the recovered meta predates every map change
	// since the death) restore now that the member owns the ranges
	// again — absent keys only, so live writes accepted since the
	// publish win. Best-effort: what the lineage lost, the replica
	// re-sync below re-seeds.
	for _, o := range nv.OwnersOf(newAddr) {
		r := nv.Map().OwnerRange(o)
		if n, err := c.RebuildRange(ctx, r.Lo, r.Hi); err != nil {
			log.Printf("pequod cluster: restore: range %d: durable rebuild at %s failed: %v", o, newAddr, err)
		} else if n > 0 {
			log.Printf("pequod cluster: restore: range %d: rebuilt %d rows at %s from its lineage", o, n, newAddr)
		}
	}

	// Re-spread replica assignments over the substituted membership,
	// with Repair's retry budget (the monitor's anti-entropy republish
	// backstops a budget spent against a flaky member).
	for attempt := 0; cl.copies > 1; attempt++ {
		failed := cl.publishReplicas(ctx, nv, cl.replicaTables())
		if len(failed) == 0 {
			break
		}
		if attempt >= 4 || !cl.pause(ctx, probeTimeout/2) {
			log.Printf("pequod cluster: restore: replica assignment not acknowledged by %v; monitor anti-entropy will converge them", failed)
			break
		}
	}

	// Best-effort fence toward the old address: if it was falsely dead
	// (or its machine resurrects later), it must learn it owns nothing
	// under the restored map rather than acknowledge writes from
	// clients holding the old one.
	fctx, cancel := context.WithTimeout(ctx, probeTimeout)
	cl.publishView(fctx, nv, oldAddr) //nolint:errcheck // best-effort fence
	cancel()
	cl.cmu.Lock()
	if cl.conns != nil {
		if old := cl.conns[oldAddr]; old != nil {
			cl.retiredRPCs += old.RPCs()
			old.Close()
			delete(cl.conns, oldAddr)
		}
	}
	cl.cmu.Unlock()
	return nil
}
