// Package partition implements Pequod's key-space partitioning (§2.4):
// "Each base key has a home server to which updates are directed (a
// partition function maps key ranges to home servers)", plus the Twip
// client-routing helper S(u) that sends all of one user's timeline
// reads to the same compute server.
//
// The central type is Map: an immutable assignment of contiguous key
// ranges to owner indexes (shards in a pool, servers in a cluster),
// carrying an (epoch, version) position in a total order. Rebalancing
// never mutates a Map; it derives a successor through MoveBound — or,
// for membership changes, InsertBound (a joining server splits an
// owner's range) and RemoveBound (a draining server's range merges into
// a neighbor's) — one version higher, and publishes it atomically.
// Concurrent readers holding the old Map detect that ownership moved on
// by re-validating (Owner, OwnsRange) against the current one.
//
// # Epochs
//
// Versions alone order one coordinator's successive maps; the epoch
// orders maps from different coordinators. Each coordinator mints
// successors at its own epoch (View.Successor), chosen strictly above every
// epoch it has observed, so two coordinators racing from the same
// parent produce maps at the same version but different epochs — the
// total order (Compare, NewerThan: epoch first, version second) picks
// one winner, members and clients adopt strictly-newer maps only, and
// the loser's transfer fails with a version conflict it recovers from
// by adopting and re-deriving. Epoch 0 is the unversioned initial epoch
// every deployment starts from; the in-process shard pool, which has a
// single coordinator by construction, stays at epoch 0 forever.
//
// Diff reports the ranges that changed owner index between two
// same-shape generations. Every key is owned by exactly one range under
// every Map (fuzzed in FuzzMapMoves).
//
// # Views
//
// Between servers a Map alone does not route: View (view.go) pairs it
// with the serving address of every owner index and the owner indexes
// that are the holding process — the one value a server's ownership
// gate (which its mesh loaders and replica placement read), the cluster
// client, a NotOwnerError and every map-bearing frame carry. Wire is its
// tuple form (frames, meta.json), Advance the client's adopt-if-newer
// rule, DiffAddrs the ranges whose serving *address* changed
// between two views — what a member must drop and re-fetch when it
// adopts a successor, including across joins and drains where owner
// indexes shift — and ReplicaAddrs / ReplicaHolds the replica placement
// both the coordinator and the members derive from it.
//
// # Balancing
//
// Which bound to move, and when, is decided in one place (balance.go):
// Balancer is the load-aware rebalancing policy — EWMA over cumulative
// per-owner load, idle floor, hot-streak and cooldown hysteresis,
// coolest-neighbor choice, load-weighted quantile split — that both the
// shard pool (owners = shards) and the cluster client (owners = member
// servers) run, each executing the named move with its own MoveBound.
package partition
