// Package pequod is a Go implementation of Pequod, the distributed
// application-level key-value cache with cache joins from
//
//	Kate, Kohler, Kester, Narula, Mao, Morris.
//	"Easy Freshness with Pequod Cache Joins." NSDI '14.
//
// A cache join declaratively defines computed data in terms of simple
// transformations of base data; Pequod computes joined ranges on demand,
// keeps them fresh with eager incremental maintenance and lazy
// invalidation, and serves them with ordinary ordered key-value reads.
// The paper's running example, the Twip timeline join, is written
//
//	t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>
//
// and makes the scan of [t|ann|, t|ann}) return ann's timeline, computed
// from her subscriptions (s|…) and her followees' posts (p|…), kept up
// to date as posts and subscriptions change.
//
// # The Store interface
//
// Applications talk to Pequod through one interface, Store — context-
// aware, error-returning, with pipelined batch forms — implemented by
// all three deployment shapes:
//
//   - Embedded: NewCache returns a thread-safe in-process Cache.
//   - Networked: NewServer/ListenAndServe + DialContext, speaking a
//     compact binary protocol with pipelining and per-call deadlines.
//   - Distributed: NewCluster connects to multiple servers with
//     key-range partitioning. The Cluster owns the routing: point ops
//     go to the key's home server, cross-server scans fan out
//     concurrently and merge, and installing joins wires cross-server
//     base-data subscriptions with asynchronous update notification
//     (eventually consistent; Quiesce settles it). The partition is
//     live: Cluster.MoveBound migrates a key range between servers
//     without downtime, and Cluster.RebalanceTick samples per-server
//     load and moves a hot range itself — servers publish a versioned
//     cluster map and re-validate ownership per request, so clients
//     (even stale ones) re-route and retry instead of losing writes.
//
// # Concurrency
//
// Each core engine is single-writer, like the paper's event-driven
// server. A Server is one engine: to use more cores, run more servers
// and join them into a Cluster, which adds, drains and rebalances them
// live. A Cache may be many engines partitioned by key range (§2.4,
// §5.5 scaled down into one process): pass WithShards / WithBounds to
// NewCache. Operations lock only the shard owning their key, and
// cross-shard scans fan out concurrently, so read throughput scales
// with shards on a multi-core machine. Joins run on every shard; base
// writes to join source tables are forwarded between shards
// asynchronously, in owner order — the same eventual-consistency model
// as the paper's cross-server subscriptions. Quiesce waits for that
// propagation to settle. The default is one shard, which is fully
// synchronous.
//
// To verify a checkout, run the tier-1 gate:
//
//	go build ./... && go test ./...
//
// See DESIGN.md for the architecture (Store, Cache, Client, Cluster,
// and the shard pool); bench_test.go and cmd/repro reproduce the
// paper's evaluation.
package pequod

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pequod/internal/backdb"
	"pequod/internal/client"
	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/freshness"
	"pequod/internal/join"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
	"pequod/internal/server"
	"pequod/internal/shard"
)

// KV is one key-value pair in a scan result.
type KV = core.KV

// Options configure a Cache or a Server's engine; the zero value enables
// all of the paper's optimizations and never evicts.
type Options = core.Options

// Stats are engine activity counters.
type Stats = core.Stats

// ServerConfig configures a networked server, which is one engine.
type ServerConfig = server.Config

// Server is a networked Pequod cache server.
type Server = server.Server

// DB is an in-memory stand-in for the backing database of a write-around
// deployment; see Server.AttachDB.
type DB = backdb.DB

// ErrClosed is returned for operations on a closed networked store.
var ErrClosed = client.ErrClosed

// NewServer creates a networked server. Call Start (loopback, test
// convenience), Serve, or ListenAndServe on the result.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewDB creates a backing database for write-around deployments.
func NewDB() *DB { return backdb.New() }

// ParseJoins parses a semicolon/newline-separated cache-join
// specification without installing it (syntax checking, tooling).
func ParseJoins(text string) error {
	_, err := join.ParseAll(text)
	return err
}

// PrefixEnd returns the smallest key greater than every key with the
// given prefix — the paper's "t|ann|+" bound, spelled "t|ann}".
func PrefixEnd(prefix string) string {
	return keysPrefixEnd(prefix)
}

// WithFreshness returns a context carrying a staleness budget for the
// reads issued under it (Get/Scan/Count and their batch forms, on every
// deployment shape). A budget maxStale > 0 lets the store answer from
// its current view when all deferred maintenance covering the read —
// queued cross-shard forwards, unapplied lazy invalidation logs, dirty
// sub-intervals from range-granular invalidation — is younger than
// maxStale; anything older is applied first, exactly as a fresh read
// would. Bounded reads may return old state, never absent state: data
// that was never computed is computed fresh regardless of budget.
// maxStale <= 0 clears the budget (fully fresh, the default).
//
// On networked deployments the budget travels with each request frame
// and is re-stamped per retry, so re-routing around a migration or a
// failed member preserves it.
func WithFreshness(ctx context.Context, maxStale time.Duration) context.Context {
	return freshness.WithBudget(ctx, maxStale)
}

// FreshnessOf returns ctx's staleness budget (0 = fully fresh).
func FreshnessOf(ctx context.Context) time.Duration {
	return freshness.Budget(ctx)
}

// ctxDeadline extracts a context's deadline as the zero-able time the
// shard pool understands.
func ctxDeadline(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	return dl
}

// ctxErr maps a pool deadline failure back onto the context's own error
// when the deadline came from the context, preserving the over-budget
// sentinel so bounded-read failures stay matchable.
func ctxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(err, perrs.ErrOverBudget) {
			return fmt.Errorf("%w: %w", perrs.ErrOverBudget, cerr)
		}
		return cerr
	}
	return err
}

// ---------------------------------------------------------------------
// Embedded deployment: Cache
// ---------------------------------------------------------------------

// CacheOption tunes an embedded Cache beyond the engine Options — shard
// count and partition bounds.
type CacheOption func(*shard.Config)

// WithShards runs the cache as n partitioned engines served
// concurrently (default 1). Pair with WithBounds: without it the key
// space is split evenly by 16-bit prefix, which only balances uniformly
// distributed binary keys — ASCII table-prefixed keys ("t|ann|...")
// cluster onto one shard.
func WithShards(n int) CacheOption {
	return func(c *shard.Config) { c.Shards = n }
}

// WithBounds sets the partition split points between shards: shard i
// owns [bounds[i-1], bounds[i]). n bounds imply n+1 shards; combine with
// WithShards only if the counts agree. partition.UserBounds builds
// bounds for the Twip-style zero-padded user keyspace.
func WithBounds(bounds ...string) CacheOption {
	return func(c *shard.Config) { c.Bounds = append([]string(nil), bounds...) }
}

// Rebalance configures load-aware rebalancing, of a cache's shards
// (WithRebalance) or a cluster's servers (Cluster.SetRebalanceConfig);
// the zero value picks sensible defaults for every knob (100ms sampling
// interval, a 1.5x hot/mean trigger ratio).
type Rebalance = shard.Rebalance

// RebalanceStats snapshots rebalancer activity: migrations run, rows
// moved, the live partition bounds, and each shard's recent load.
type RebalanceStats = shard.RebalanceStats

// WithRebalance enables load-aware rebalancing on a multi-shard cache:
// per-shard load is sampled into a moving average and hot key ranges
// migrate live to cooler neighboring shards, with readers and writers
// rerouting seamlessly. The initial bounds then need not anticipate the
// workload — a skewed (Zipf-like) read mix no longer pins one shard at
// its ceiling. No-op for single-shard caches.
func WithRebalance(rb Rebalance) CacheOption {
	return func(c *shard.Config) { c.Rebalance = &rb }
}

// Cache is an embedded, thread-safe Pequod cache: the full cache-join
// machinery without the network, over a pool of one or more partitioned
// engines. A Cache is what one server process hosts; applications
// embedding Pequod use it directly. It implements Store with thin
// adapters over the shard pool; context deadlines bound the waits on
// outstanding base-data loads.
type Cache struct {
	p *shard.Pool
}

// NewCache returns an embedded cache, or an error when the shard
// options do not form a valid partition (mismatched counts, unsorted
// bounds).
func NewCache(opts Options, extra ...CacheOption) (*Cache, error) {
	cfg := shard.Config{Engine: opts}
	for _, o := range extra {
		o(&cfg)
	}
	p, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cache{p: p}, nil
}

// Shards returns the number of partitioned engines serving this cache.
func (c *Cache) Shards() int { return c.p.NumShards() }

// Install parses and installs cache joins ("add-join", §3) on every
// shard.
func (c *Cache) Install(ctx context.Context, joins string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.p.InstallText(joins)
}

// Put stores value under key and runs incremental view maintenance on
// the owning shard, forwarding source-table writes to sibling shards.
func (c *Cache) Put(ctx context.Context, key, value string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.p.Put(key, value)
}

// Remove deletes key, reporting whether it existed.
func (c *Cache) Remove(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return c.p.Remove(key)
}

// Get returns the value under key, computing covering joins on demand.
// A staleness budget on ctx (WithFreshness) may serve the read from the
// current view, skipping deferred maintenance younger than the budget.
func (c *Cache) Get(ctx context.Context, key string) (string, bool, error) {
	if err := ctx.Err(); err != nil {
		return "", false, err
	}
	v, ok, err := c.p.GetBounded(key, freshness.Budget(ctx), ctxDeadline(ctx))
	return v, ok, ctxErr(ctx, err)
}

// Scan returns up to limit (0 = all) pairs in [lo, hi), computing
// overlapping joins on demand; cross-shard ranges are scanned
// concurrently.
func (c *Cache) Scan(ctx context.Context, lo, hi string, limit int) ([]KV, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kvs, err := c.p.ScanBounded(lo, hi, limit, nil, nil, freshness.Budget(ctx), ctxDeadline(ctx))
	return kvs, ctxErr(ctx, err)
}

// Count returns the number of keys in [lo, hi) after join computation.
func (c *Cache) Count(ctx context.Context, lo, hi string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n, err := c.p.CountBounded(lo, hi, freshness.Budget(ctx), ctxDeadline(ctx))
	return int64(n), ctxErr(ctx, err)
}

// GetBatch fetches many keys; results align with keys.
func (c *Cache) GetBatch(ctx context.Context, keys []string) ([]Lookup, error) {
	out := make([]Lookup, len(keys))
	for i, k := range keys {
		v, ok, err := c.Get(ctx, k)
		if err != nil {
			return nil, err
		}
		out[i] = Lookup{Value: v, Found: ok}
	}
	return out, nil
}

// PutBatch stores many pairs in order.
func (c *Cache) PutBatch(ctx context.Context, pairs []KV) error {
	for _, kv := range pairs {
		if err := c.Put(ctx, kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// ScanBatch runs several range scans, each with its own limit budget.
func (c *Cache) ScanBatch(ctx context.Context, ranges []Range, limit int) ([][]KV, error) {
	out := make([][]KV, len(ranges))
	for i, r := range ranges {
		kvs, err := c.Scan(ctx, r.Lo, r.Hi, limit)
		if err != nil {
			return nil, err
		}
		out[i] = kvs
	}
	return out, nil
}

// SetSubtableDepth marks a natural key boundary for a table (§4.1).
func (c *Cache) SetSubtableDepth(table string, depth int) {
	c.p.SetSubtableDepth(table, depth)
}

// RebalanceStats snapshots the rebalancer's activity and the current
// partition. Meaningful on multi-shard caches built WithRebalance, but
// always safe to call (Enabled reports whether the rebalancer runs).
func (c *Cache) RebalanceStats() RebalanceStats {
	return c.p.RebalanceStats()
}

// MoveBound forces one live boundary migration (operators and tests;
// the rebalancer normally decides moves itself). Bound index i divides
// shard i from shard i+1.
func (c *Cache) MoveBound(i int, bound string) error {
	return c.p.MoveBound(i, bound)
}

// Stats snapshots the engine counters, summed across shards.
func (c *Cache) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	return c.p.Stats(), nil
}

// Bytes returns the approximate memory footprint of the cache.
func (c *Cache) Bytes() int64 {
	return c.p.Bytes()
}

// Len returns the number of cached keys (base + computed + replicated).
func (c *Cache) Len() int {
	return c.p.Len()
}

// Quiesce blocks until cross-shard source replication has settled: after
// it returns, reads anywhere see every write issued before the call. A
// single-shard cache is always settled.
func (c *Cache) Quiesce(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.p.Quiesce()
	return nil
}

// Close stops the cache's background shard appliers. Only multi-shard
// caches run goroutines; closing a single-shard cache is a no-op and
// using a cache after Close is not allowed.
func (c *Cache) Close() error {
	c.p.Close()
	return nil
}

// Pool exposes the shard pool for benchmarks and tests that need the
// raw, context-free surface.
func (c *Cache) Pool() *shard.Pool { return c.p }

// ---------------------------------------------------------------------
// Networked deployment: Client
// ---------------------------------------------------------------------

// Client is a connection to one Server, implementing Store over the
// pipelined binary protocol: methods are safe for concurrent use,
// requests from concurrent callers pipeline on the single connection,
// context deadlines travel with each request (the server bounds its
// blocking work by them), and cancellation fails the call fast while
// leaving the connection usable.
type Client struct {
	raw *client.Client
}

// DialContext connects to a server under ctx: cancellation or deadline
// expiry aborts the connection attempt.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	c, err := client.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &Client{raw: c}, nil
}

// Raw returns the low-level pipelined client (async futures, notify
// hooks) for callers that outgrow Store.
func (c *Client) Raw() *client.Client { return c.raw }

// RPCs reports the number of requests sent on this connection; the §5.2
// comparison uses it to show client-managed systems' RPC amplification.
func (c *Client) RPCs() int64 { return c.raw.RPCs() }

// Close shuts the connection down; outstanding calls fail.
func (c *Client) Close() error { return c.raw.Close() }

// Get returns the value under key.
func (c *Client) Get(ctx context.Context, key string) (string, bool, error) {
	m, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgGet, Key: key})
	if err != nil {
		return "", false, err
	}
	return m.Value, m.Found, nil
}

// Put stores value under key.
func (c *Client) Put(ctx context.Context, key, value string) error {
	_, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgPut, Key: key, Value: value})
	return err
}

// Remove deletes key, reporting whether it existed.
func (c *Client) Remove(ctx context.Context, key string) (bool, error) {
	m, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgRemove, Key: key})
	if err != nil {
		return false, err
	}
	return m.Found, nil
}

// Scan returns up to limit (0 = all) pairs from [lo, hi).
func (c *Client) Scan(ctx context.Context, lo, hi string, limit int) ([]KV, error) {
	m, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgScan, Lo: lo, Hi: hi, Limit: limit})
	if err != nil {
		return nil, err
	}
	return m.KVs, nil
}

// Count returns the number of keys in [lo, hi).
func (c *Client) Count(ctx context.Context, lo, hi string) (int64, error) {
	m, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgCount, Lo: lo, Hi: hi})
	if err != nil {
		return 0, err
	}
	return m.Count, nil
}

// Install installs cache joins ("add-join" RPC, §3).
func (c *Client) Install(ctx context.Context, joins string) error {
	_, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgAddJoin, Text: joins})
	return err
}

// GetBatch fetches many keys in one pipelined burst: every request is
// sent before any reply is awaited.
func (c *Client) GetBatch(ctx context.Context, keys []string) ([]Lookup, error) {
	futs := make([]*client.Future, len(keys))
	for i, k := range keys {
		futs[i] = c.raw.Send(ctx, &rpc.Message{Type: rpc.MsgGet, Key: k})
	}
	replies, err := client.CollectReplies(ctx, futs)
	if err != nil {
		return nil, err
	}
	out := make([]Lookup, len(replies))
	for i, m := range replies {
		out[i] = Lookup{Value: m.Value, Found: m.Found}
	}
	return out, nil
}

// PutBatch stores many pairs in one pipelined burst, applied in order.
func (c *Client) PutBatch(ctx context.Context, pairs []KV) error {
	futs := make([]*client.Future, len(pairs))
	for i, kv := range pairs {
		futs[i] = c.raw.Send(ctx, &rpc.Message{Type: rpc.MsgPut, Key: kv.Key, Value: kv.Value})
	}
	return client.WaitAll(ctx, futs)
}

// ScanBatch runs several range scans in one pipelined burst, each with
// its own limit budget.
func (c *Client) ScanBatch(ctx context.Context, ranges []Range, limit int) ([][]KV, error) {
	futs := make([]*client.Future, len(ranges))
	for i, r := range ranges {
		futs[i] = c.raw.Send(ctx, &rpc.Message{Type: rpc.MsgScan, Lo: r.Lo, Hi: r.Hi, Limit: limit})
	}
	replies, err := client.CollectReplies(ctx, futs)
	if err != nil {
		return nil, err
	}
	out := make([][]KV, len(replies))
	for i, m := range replies {
		out[i] = m.KVs
	}
	return out, nil
}

// Stats fetches the server's engine counters, summed across its shards.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	return c.raw.Stats(ctx)
}

// Stat returns the server's raw JSON statistics snapshot (name, shard
// count, entries, bytes, counters).
func (c *Client) Stat(ctx context.Context) (string, error) {
	m, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgStat})
	if err != nil {
		return "", err
	}
	return m.Value, nil
}

// SetSubtableDepth configures a table's subtable boundary (§4.1).
func (c *Client) SetSubtableDepth(ctx context.Context, table string, depth int) error {
	_, err := c.raw.Do(ctx, &rpc.Message{Type: rpc.MsgSetSubtable, Table: table, Depth: depth})
	return err
}

// Quiesce blocks until replication visible to the server has settled;
// see Store.Quiesce.
func (c *Client) Quiesce(ctx context.Context) error {
	return c.raw.Quiesce(ctx)
}

// ---------------------------------------------------------------------
// Distributed deployment: Cluster
// ---------------------------------------------------------------------

// Cluster is a client for a partitioned set of servers that owns the
// key routing: point operations go to the key's home server, range
// operations split by owner and fan out concurrently, batches pipeline
// per server, and installing joins wires the cross-server base-data
// subscriptions that keep computed ranges fresh (§2.4). It implements
// Store.
type Cluster = cluster.Cluster

// ClusterConfig describes the partition of the key space and the member
// serving each range; see NewCluster.
type ClusterConfig = cluster.Config

// NewCluster connects to every member of a partitioned deployment and,
// if cfg.Joins is set, installs the joins everywhere and wires the
// subscription mesh before returning.
func NewCluster(ctx context.Context, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(ctx, cfg)
}
