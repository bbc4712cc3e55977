package pequod

import (
	"context"

	"pequod/internal/core"
	"pequod/internal/keys"
)

// Store is the unified Pequod API: every deployment shape — the
// embedded Cache, the networked Client, the partitioned Cluster —
// presents the same surface, so applications write to one interface
// and choose (or change) the deployment underneath.
//
// Every method takes a context and returns an error. Deadlines bound
// blocking work: an operation that would wait on outstanding base-data
// loads (§3.3) past the deadline fails instead of hanging, and on the
// networked implementations the remaining budget travels with the
// request so the server stops work on doomed calls. Cancellation fails
// the call fast and leaves the store usable.
//
// The batch forms exist for the paper's event-driven clients (§5.1),
// which keep many RPCs outstanding: a batch pipelines every element
// before waiting on any, so it costs one network round trip per server
// touched rather than one per element. On the embedded Cache they are
// simple loops.
//
// Distributed failures surface as wrapped sentinel errors, matchable
// with errors.Is: ErrNotOwner when a routing retry budget ran out
// mid-migration, ErrMemberDown when a member stayed unreachable past
// the budget (which spans an automatic failover — see Admin.Repair).
// Cluster-reshaping failures on the Admin surface additionally use
// ErrDraining and ErrConflict.
type Store interface {
	// Get returns the value under key, computing covering joins on
	// demand.
	Get(ctx context.Context, key string) (value string, found bool, err error)
	// Put stores value under key and runs incremental view maintenance.
	Put(ctx context.Context, key, value string) error
	// Remove deletes key, reporting whether it existed.
	Remove(ctx context.Context, key string) (found bool, err error)
	// Scan returns up to limit (0 = all) pairs in [lo, hi) in key
	// order, computing overlapping joins on demand. An empty hi means
	// "to the end of the keyspace"; use PrefixEnd for prefix scans.
	// A networked store's rows share one allocation per reply: keeping
	// any row keeps the whole reply alive, so a caller that holds on to
	// a few rows long-term should copy them (strings.Clone).
	Scan(ctx context.Context, lo, hi string, limit int) ([]KV, error)
	// Count returns the number of keys in [lo, hi) after join
	// computation.
	Count(ctx context.Context, lo, hi string) (int64, error)
	// Install parses and installs cache joins ("add-join", §3).
	Install(ctx context.Context, joins string) error
	// Stats snapshots the engine activity counters, aggregated over
	// whatever the store spans (shards, servers).
	Stats(ctx context.Context) (Stats, error)
	// Quiesce blocks until asynchronous replication visible to this
	// store has settled: after it returns, reads see every write
	// acknowledged before the call (§2.4's eventual consistency,
	// settled on demand).
	Quiesce(ctx context.Context) error
	// Close releases the store's resources. Networked stores close
	// their connections; the servers they talk to keep running.
	Close() error

	// GetBatch fetches many keys; results align with keys.
	GetBatch(ctx context.Context, keys []string) ([]Lookup, error)
	// PutBatch stores many pairs. Pairs with the same home apply in
	// slice order; pairs with different homes are concurrent, like
	// independent callers.
	PutBatch(ctx context.Context, pairs []KV) error
	// ScanBatch runs several range scans, each with its own limit
	// budget (0 = all), returning results aligned with ranges.
	ScanBatch(ctx context.Context, ranges []Range, limit int) ([][]KV, error)
}

// Lookup is one result of a batched point read.
type Lookup = core.Lookup

// Range is a half-open key range [Lo, Hi); an empty Hi means "to the
// end of the keyspace". ScanRange builds one from key components.
type Range = keys.Range

// ScanRange returns the Range covering exactly the keys that begin with
// the given components: ScanRange("t", "ann") spans ("t|ann|", "t|ann}").
func ScanRange(comps ...string) Range {
	return keys.RangeOf(comps...)
}

// The three deployment shapes all satisfy Store.
var (
	_ Store = (*Cache)(nil)
	_ Store = (*Client)(nil)
	_ Store = (*Cluster)(nil)
)
