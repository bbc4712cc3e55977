// Package shard implements Pequod's in-process sharded engine pool: N
// single-writer core.Engine instances partitioned by key range, served
// concurrently. It is the within-process analogue of the paper's
// scale-out deployment (§2.4, §5.5), where "each base key has a home
// server" and many single-threaded engines divide the key space.
//
// Routing: Get/Put/Remove go to the shard owning the key
// (partition.Map); a Scan or Count is gathered piece by piece, each
// piece one locked step at its shard (DESIGN.md "A read, end to end").
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
//   - An embedded Cache may run many engines. Per-shard load accounting
//     feeds a rebalancer goroutine (rebalance.go; policy:
//     partition.Balancer) that migrates hot key ranges live between
//     neighboring shards (Pool.MoveBound), publishing a versioned
//     successor partition.Map. Every routed operation re-validates
//     shard ownership under the shard lock it holds (Pool.step,
//     lockOwner).
//   - A server member is one engine: more cores means more members,
//     which the cluster adds, drains and rebalances live. Only a member
//     has a cluster gate (clustergate.go: the cluster's partition.View,
//     re-validated under the same lock, makes server-to-server migration
//     loss-free — DESIGN.md "The versioned cluster map and the
//     ownership gate"), §3.3 loaders, peer and replica feeds, or a
//     durable store, and those entry points panic on a multi-engine
//     pool (Pool.member).
package shard
