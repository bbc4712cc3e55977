// Package cluster implements the multi-server Pequod client: one handle
// over a partitioned deployment (§2.4, §5.5) that owns the key routing
// applications previously hand-rolled with partition.Map, plus the
// coordination of cluster-level live re-partitioning.
//
// A Cluster holds the cluster's partition.View (DESIGN.md "The versioned
// cluster map and the ownership gate"). Point operations
// (Get/Put/Remove) go to the key's home server; range operations
// (Scan/Count) are gathered over the per-server pipelined connections
// (DESIGN.md "A read, end to end"). Batch operations pipeline every
// element before waiting on any, so a batch costs one network round trip
// per server touched, not per element.
//
// Installing joins through the cluster also wires the mesh: every
// member receives the join set, and each member is told (via the
// ConnectPeers RPC) to remotely load and subscribe to the base source
// tables it does not own, so computed ranges anywhere stay fresh as
// base writes land at their home servers — the paper's cross-server
// subscription and asynchronous update notification, eventually
// consistent. Quiesce settles it.
//
// # Live re-partitioning
//
// The partition is not static: MoveBound (migrate.go) relocates the key
// range on one side of a partition bound between the two servers
// serving it, live — extract at the source, splice at the destination,
// then a MapUpdate publishing the successor view to every member. A
// server answers NotOwner, carrying its view, when a range has moved;
// the cluster client adopts it if newer and retries, so concurrent
// callers — even other, stale clients — see no lost writes, gaps, or
// duplicates. A client-driven
// rebalancer (rebalance.go) polls per-server load through the stat RPC
// and moves hot ranges to cooler neighbors, under the policy the
// in-process shard rebalancer runs (partition.Balancer).
//
// # Elastic membership
//
// The member set is not static either (membership.go): AddServer
// splices a fresh server into the mesh — one JoinCluster RPC wires its
// gate, mesh connections, and join set, then an ordinary
// extract/splice grants it a slice of the busiest member's range under
// a *grown* map (partition.InsertBound) — and DrainServer streams every
// range a member owns to its neighbors under successive *shrunk* maps
// (partition.RemoveBound) before tearing its mesh wiring down. A
// neighbor dying mid-drain re-offers the range to the other neighbor,
// and a transfer that cannot complete reverts, with the source's
// retained-extraction buffer (internal/shard) as the backstop — no
// range is ever stranded in just a coordinator's error message.
//
// Concurrent coordinators serialize through the (epoch, version) order
// of the maps they mint (package partition). See DESIGN.md ("Moving a range",
// "Cluster-level live re-partitioning", "Membership & epochs") for the
// full protocol and docs/OPERATIONS.md for the operator runbook.
package cluster
