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
//   - Control plane: AddJoin, SetSubtable, Stat, Quiesce, Ping (a
//     push-delivery fence), ConnectPeers (mesh wiring), Command
//     (baseline engines).
//   - Migration plane: ExtractRange, SpliceRange, and MapUpdate move a
//     key range between servers and publish the versioned cluster
//     partition map; JoinCluster wires a fresh member into the mesh and
//     Drain tears a departing member's wiring down. Every map-bearing
//     message carries one partition.View as the tuple (epoch, version,
//     bounds, peers, self) — Message.Map — so a membership change, which
//     reshapes the map, travels with the transfer performing it.
//     Replies may carry StatusNotOwner plus the server's view (no self)
//     so clients re-route and retry after a live migration, a join, or
//     a drain.
package rpc
