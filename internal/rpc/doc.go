// Package rpc implements Pequod's wire protocol: length-prefixed binary
// frames over TCP, with pipelined request/response matching by sequence
// number and unsolicited server-push Notify frames for cross-server
// subscriptions (§2.4).
//
// Frame layout:
//
//	uint32 little-endian payload length
//	byte   message type
//	uvarint sequence number
//	uvarint deadline budget (milliseconds remaining; 0 = none)
//	type-specific fields (uvarint-length-prefixed strings, uvarints)
//
// The same Message structure carries every request and reply; unused
// fields are encoded as empty. This keeps the codec small and the
// protocol easy to extend, at a few bytes per frame of overhead.
//
// The protocol has three message families:
//
//   - Data plane: Get, Put, Remove, Scan (optionally subscribing),
//     Count, Notify (server push), and the batch-friendly pipelining
//     all of them share.
//   - Control plane: AddJoin, Stat, Quiesce, Ping (a
//     push-delivery fence), Command (baseline engines).
//   - Migration plane: ExtractRange, SpliceRange, and MapUpdate move a
//     key range between servers and publish the versioned cluster
//     partition map. A member's first view wires its mesh: a gated
//     member loads its joins' sources from their homes, so no frame
//     wires the mesh on its own. Joining and draining are map updates
//     too: a joiner's first MapUpdate carries the cluster's join set,
//     and a member a view names for no range — a joiner before its
//     first splice, a member whose last range left — holds no peer
//     connection, so no frame tears its wiring down. Every map-bearing
//     message carries one partition.View as the tuple (epoch, version,
//     bounds, peers, self) — Message.Map — so a membership change, which
//     reshapes the map, travels with the transfer performing it.
//     Replies may carry StatusNotOwner plus the server's view (no self)
//     so clients re-route and retry after a live migration, a join, or
//     a drain.
package rpc
