// Package shard implements Pequod's in-process sharded engine pool: N
// single-writer core.Engine instances partitioned by key range, served
// concurrently. It is the within-process analogue of the paper's
// scale-out deployment (§2.4, §5.5), where "each base key has a home
// server" and many single-threaded engines divide the key space.
//
// Routing: Get/Put/Remove go to the shard owning the key
// (partition.Map); a Scan or Count is gathered piece by piece, each
// piece one locked step at its shard (DESIGN.md "A read, end to end").
// A read with nothing to compute holds its shard's lock shared in an
// ungated pool, so readers of one shard run side by side; everything
// else, and every operation on a gated member, holds it exclusively.
//
// Joins are installed on every shard. Each shard computes the join
// outputs it owns locally — cascaded source joins recursively, exactly
// like a single engine — which requires the *base* source tables to be
// visible everywhere. The pool therefore mirrors §2.4 cross-server
// subscriptions within the process: a base write to a join source table
// is applied at its owner and forwarded, through the engine's Change
// hook and in owner-mutation order, to every sibling shard's apply
// queue. Appliers drain the queues asynchronously, so sibling replicas
// are eventually consistent — the same freshness model as the paper's
// asynchronous update notification. Quiesce waits for the queues to
// drain.
//
// # One engine per member, many per Cache
//
// A pool plays one of two roles, never both:
//
//   - An embedded Cache may run many engines. Its partition.Map is fixed
//     at New, so a key's shard, looked up before its lock is taken, is
//     still its owner once the lock is held (Pool.step, lockOwner).
//   - A server member is one engine: more cores means more members,
//     which the cluster adds, drains and rebalances live — the only
//     place load moves. Only a member has a cluster gate
//     (clustergate.go: the cluster's partition.View, checked under the
//     shard lock, makes server-to-server migration loss-free — DESIGN.md
//     "The versioned cluster map and the ownership gate"), §3.3
//     loaders, replica holds, or a durable store, and those
//     entry points panic on a multi-engine pool (Pool.member).
package shard
