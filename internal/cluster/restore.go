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
	// other map change. Then backfill from the restored member's own
	// lineage: rows its startup gate filtered out (the recovered meta
	// predates every map change since the death) restore now that the
	// member owns the ranges again. What the lineage lost, the replica
	// re-spread re-seeds.
	addrs := make([]string, len(v.Addrs()))
	for i, a := range v.Addrs() {
		if a == oldAddr {
			addrs[i] = newAddr
		} else {
			addrs[i] = a
		}
	}
	return cl.settle(ctx, "restore", v, addrs, v.OwnersOf(oldAddr), []string{oldAddr})
}
