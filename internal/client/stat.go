package client

import (
	"pequod/internal/core"
	"pequod/internal/durable"
	"pequod/internal/shard"
)

// StatSnapshot is the stat RPC's reply, declared once: the server
// marshals this type and every reader unmarshals it. Identity and
// footprint, the engine counters summed across shards, the in-process
// rebalancer's view of the partition, the cumulative load a cluster
// rebalancer polls to find hot servers and pick split points, the
// installed join set (so a coordinator that did not install the joins
// itself — a fresh pequod-cli run — can replay them onto a joining
// member), and on cluster members the published map they serve under.
type StatSnapshot struct {
	Name      string               `json:"name"`
	ID        string               `json:"id,omitempty"`
	Shards    int                  `json:"shards"`
	Entries   int                  `json:"entries"`
	Bytes     int64                `json:"bytes"`
	Stats     core.Stats           `json:"stats"`
	Rebalance shard.RebalanceStats `json:"rebalance"`
	Load      shard.LoadInfo       `json:"load"`
	Joins     string               `json:"joins,omitempty"`
	Staleness StaleStat            `json:"staleness"`
	Loads     LoadStat             `json:"loads"`
	NSubs     int64                `json:"nsubs"` // subscriptions held as a home: at most one per connection and range
	Cluster   *ClusterStat         `json:"cluster,omitempty"`
	Durable   *DurableStat         `json:"durable,omitempty"`
}

// StaleStat is a member's staleness debt: the deferred-maintenance
// backlog (unapplied lazy logs plus dirty sub-intervals) that bounded
// reads trade against their budget. Operators compare debt_old_us
// against the budgets clients carry — a member whose debt is older than
// every budget in use serves only fresh-path reads and gets none of the
// latency win.
type StaleStat struct {
	LagUS      int64 `json:"lag_us"`      // always 0: a server is one engine, with no forwarded-write queue
	DebtSpans  int   `json:"debt_spans"`  // deferred-maintenance spans (dirty + lazy logs)
	DebtOldUS  int64 `json:"debt_old_us"` // age of the oldest deferred maintenance
	BoundedSrv int64 `json:"bounded_srv"` // reads served within a staleness budget
	PartialInv int64 `json:"partial_inv"` // range-granular (sub-interval) invalidations
	DirtyRecmp int64 `json:"dirty_recmp"` // dirty sub-interval recomputes
}

// LoadStat is the cold path's activity (§3.3): base ranges fetched, the
// loader calls that carried them (started/batched is the mean batch
// size), fetches the loader gave up on, and executions that found data
// missing and restarted — each installing nothing, so restarts/started
// well above 1 means reads keep finding data evicted between their
// rounds, not that work is being redone.
type LoadStat struct {
	Started  int64 `json:"started"`
	Batched  int64 `json:"batched"`
	Failed   int64 `json:"failed"`
	Restarts int64 `json:"restarts"`
}

// ClusterStat is a member's cluster position: the published map it
// serves under (position, bounds, member addresses), the owner indexes
// that are this process, and how many extracted-but-unconfirmed range
// copies it retains (non-zero outside a migration window means a
// stranded transfer — see docs/OPERATIONS.md).
type ClusterStat struct {
	Epoch    int64    `json:"epoch"`
	Version  int64    `json:"version"`
	Bounds   []string `json:"bounds"`
	Peers    []string `json:"peers,omitempty"`
	Self     []int    `json:"self"`
	Retained int      `json:"retained"`
	Replicas int      `json:"replicas,omitempty"` // replica ranges held for peers
}

// DurableStat is the durability block: where the log lives, its state,
// and what the last startup recovered.
type DurableStat struct {
	Dir string `json:"dir"`
	durable.Stats
	Recovery *RecoveryStat `json:"recovery,omitempty"`
}

// RecoveryStat records what the last startup recovered, so tests and
// operators can verify a restart was warm (rows came from disk) rather
// than cold. Torn is the expected crash tail on the previously newest
// segment; CorruptSegments and CorruptSnapshots are mid-lineage damage —
// fsynced data lost — which health surfaces report distinctly.
type RecoveryStat struct {
	SnapshotRows     int     `json:"snapshot_rows"`
	LogSegments      int     `json:"log_segments"`
	LogRecords       int     `json:"log_records"`
	RestoredRows     int     `json:"restored_rows"`
	RestoredWarm     int     `json:"restored_warm"`
	Torn             bool    `json:"torn,omitempty"`
	CorruptSegments  []int64 `json:"corrupt_segments,omitempty"`
	CorruptSnapshots []int64 `json:"corrupt_snapshots,omitempty"`
}
