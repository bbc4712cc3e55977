package cluster

// Client-driven cluster rebalancing: the balancing policy the shard
// pool runs in-process (partition.Balancer), applied across servers.
// The cluster client polls every member's stat RPC for its cumulative
// load units and recent key samples, and when the policy finds one
// server persistently hot migrates a slice of its range — through
// MoveBound's live transfer protocol — to the cooler server on the
// other side of a partition bound. No server-side coordinator exists:
// any client (or the pequod-cli rebalance subcommand) drives it one
// RebalanceTick at a time, and concurrent coordinators serialize
// through map version conflicts.

import (
	"context"
	"sync"

	"pequod/internal/partition"
)

// Rebalance is the rebalancing knob set, shared with the shard pool.
type Rebalance = partition.Rebalance

// rebState is the cluster rebalancer's bookkeeping. Load history is
// keyed by member *address*, so a membership change (a joining or
// draining server, owner indexes shifting) neither loses history for
// the members that stay nor misattributes it.
type rebState struct {
	mu         sync.Mutex
	cfg        Rebalance
	bal        partition.Balancer[string]
	migrations int64
}

// RebalancerStats snapshots the cluster rebalancer's activity.
type RebalancerStats struct {
	Migrations int64     `json:"migrations"`
	Epoch      int64     `json:"epoch"`
	Version    int64     `json:"version"`
	Bounds     []string  `json:"bounds"`
	Addrs      []string  `json:"addrs"` // distinct members, first-appearance order
	Loads      []float64 `json:"loads"` // per-member EWMA load, aligned with Addrs
}

// RebalancerStats returns the rebalancer's current view.
func (cl *Cluster) RebalancerStats() RebalancerStats {
	cl.reb.mu.Lock()
	defer cl.reb.mu.Unlock()
	v := cl.v.Load()
	st := RebalancerStats{
		Migrations: cl.reb.migrations,
		Epoch:      v.Map().Epoch(),
		Version:    v.Map().Version(),
		Bounds:     v.Map().Bounds(),
	}
	for _, m := range v.Members() {
		st.Addrs = append(st.Addrs, m.Addr)
		st.Loads = append(st.Loads, cl.reb.bal.Load(m.Addr))
	}
	return st
}

// SetRebalanceConfig sets the knobs RebalanceTick uses.
func (cl *Cluster) SetRebalanceConfig(cfg Rebalance) {
	cl.reb.mu.Lock()
	cl.reb.cfg = cfg
	cl.reb.mu.Unlock()
}

// RebalanceTick takes one load sample across the members and migrates
// at most one range, reporting whether a migration ran. Tests,
// experiments and the pequod-cli rebalance subcommand drive it.
func (cl *Cluster) RebalanceTick(ctx context.Context) (bool, error) {
	loads, err := cl.MemberLoads(ctx)
	if err != nil {
		return false, err
	}
	units := make(map[string]int64, len(loads))
	samples := make(map[string][]string, len(loads))
	for _, ml := range loads {
		units[ml.Addr], samples[ml.Addr] = ml.Units, ml.Samples
	}
	v := cl.v.Load()
	for _, a := range v.Addrs() {
		if _, polled := units[a]; !polled {
			return false, nil // membership changed under the poll; the next tick sees it whole
		}
	}
	cl.reb.mu.Lock()
	i, bound, ok := cl.reb.bal.Decide(cl.reb.cfg, v.Map(), v.Addrs(), units,
		func(hot string) []string { return samples[hot] })
	cl.reb.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := cl.MoveBound(ctx, i, bound); err != nil {
		return false, err
	}
	cl.reb.mu.Lock()
	cl.reb.migrations++
	cl.reb.bal.Moved()
	cl.reb.mu.Unlock()
	return true, nil
}
