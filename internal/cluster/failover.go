package cluster

// Per-range replication and automatic failover, coordinator side.
//
// Replication piggybacks on the machinery the cluster already has:
// after every map publish the coordinator sends each member a
// MsgReplicate carrying the view plus two scalars — the total copies
// per range and the base tables to mirror. Which member holds which
// replica is never listed: both sides derive it from the same ring walk
// (partition.View.ReplicaAddrs over the view's distinct members), so the
// coordinator and the members cannot disagree about placement. Members
// keep their replicas fresh through the ordinary subscription feed
// protocol against each range's owner (internal/server/replica.go).
//
// Failover closes the loop:
//
//	probe    Health / the monitor ping every member; a member that
//	         misses failMisses consecutive probes is confirmed dead.
//	repair   Repair substitutes each dead owner's address with the
//	         surviving ring successor — the member already holding its
//	         replica — and publishes a same-bounds epoch successor.
//	promote  Each survivor adopts the repaired map through the normal
//	         MapUpdate path; the heir's ownership gate flips under its
//	         shard locks and its warm replica rows become served data
//	         (clustergate.go's promotion backfill re-seeds computed
//	         joins from them). Clients re-route through the published
//	         map or its NotOwner echoes; in-flight operations ride the
//	         unavailable-retry budget (retryOp) across the outage.
//
// Repair mints epochs like any other coordination here, so a repair
// racing a migration or another coordinator's repair serializes through
// the epoch-ordered map versions — exactly one successor wins and the
// losers re-propose against it.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"pequod/internal/client"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
)

// probeTimeout bounds one health probe: long enough for a loaded
// member to answer a ping, short enough that a wedged one is noticed
// within a few detector ticks.
const probeTimeout = 250 * time.Millisecond

// repairTimeout bounds one automatic repair round (probe + publish).
const repairTimeout = 10 * time.Second

// MemberHealth is one member's row in a Health report.
type MemberHealth struct {
	// Addr is the member's serving address; ID its durable identity
	// (the server's configured ID, surviving restarts and address
	// reuse), known only while it answers.
	Addr string `json:"addr"`
	ID   string `json:"id,omitempty"`
	// Alive reports whether the member answered within the probe
	// timeout; Err carries the failure otherwise.
	Alive bool   `json:"alive"`
	Err   string `json:"err,omitempty"`
	// Owners is the number of partition ranges the member serves under
	// the current map; Replicas the number of ranges it holds warm
	// copies of for other members.
	Owners   int `json:"owners"`
	Replicas int `json:"replicas"`
	// StaleSpans/StaleOldUS are the member's deferred-maintenance
	// backlog — the spans a bounded read (WithFreshness) trades against
	// its budget, and the age of the oldest. An operator picks read
	// budgets above the steady-state StaleOldUS to get the bounded fast
	// path, and watches for a member whose backlog outgrows every budget
	// in use.
	StaleSpans int   `json:"stale_spans,omitempty"`
	StaleOldUS int64 `json:"stale_old_us,omitempty"`
	// Durable reports whether the member runs with a durable range
	// store (a -data-dir); when it does, LogLagBytes is how much logged
	// data is still waiting for its batched fsync and SnapshotAgeMS how
	// old the last durable snapshot is (-1 until the first one lands) —
	// together, the member's worst-case loss and replay window.
	Durable       bool  `json:"durable,omitempty"`
	LogLagBytes   int64 `json:"log_lag_bytes,omitempty"`
	SnapshotAgeMS int64 `json:"snapshot_age_ms,omitempty"`
	// Lineage damage surfaces, durable members only. TornTail means the
	// last restart replayed over the expected crash-window tear — a
	// healthy post-crash recovery. CorruptSegments/CorruptSnapshots
	// count lineage files where replay or the background scrub found
	// mid-lineage damage: fsynced data was lost there, and the member's
	// ranges should be re-synced (or re-replicated) while live copies
	// exist. DroppedRecords counts log records abandoned after flush
	// retries exhausted; PendingRecords counts records still riding a
	// flush retry.
	TornTail         bool  `json:"torn_tail,omitempty"`
	CorruptSegments  int   `json:"corrupt_segments,omitempty"`
	CorruptSnapshots int   `json:"corrupt_snapshots,omitempty"`
	DroppedRecords   int64 `json:"dropped_records,omitempty"`
	PendingRecords   int64 `json:"pending_records,omitempty"`
}

// Health probes every member concurrently and reports each one's
// liveness, identity, and replica footprint. It never fails as a whole:
// an unreachable member is a row with Alive=false, which is the point
// of asking.
func (cl *Cluster) Health(ctx context.Context) []MemberHealth {
	v := cl.v.Load()
	out := make([]MemberHealth, len(v.Members()))
	var wg sync.WaitGroup
	for i, m := range v.Members() {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := MemberHealth{Addr: m.Addr, Owners: len(m.Owners)}
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			c, err := cl.conn(pctx, m.Addr)
			if err == nil {
				var st *client.StatSnapshot
				if st, err = c.StatSnapshot(pctx); err == nil {
					h.Alive = true
					h.ID = st.ID
					h.StaleSpans = st.Staleness.DebtSpans
					h.StaleOldUS = st.Staleness.DebtOldUS
					if st.Cluster != nil {
						h.Replicas = st.Cluster.Replicas
					}
					if st.Durable != nil {
						h.Durable = true
						h.LogLagBytes = st.Durable.LagBytes
						h.SnapshotAgeMS = st.Durable.SnapshotAgeMS
						h.CorruptSegments = len(st.Durable.CorruptSegments)
						h.CorruptSnapshots = len(st.Durable.CorruptSnapshots)
						h.DroppedRecords = st.Durable.Dropped
						h.PendingRecords = st.Durable.PendingRecords
						if r := st.Durable.Recovery; r != nil {
							h.TornTail = r.Torn
						}
					}
				}
			}
			if err != nil {
				h.Err = err.Error()
			}
			out[i] = h
		}()
	}
	wg.Wait()
	return out
}

// Snapshot asks every member to write a durable snapshot now — before
// planned maintenance, an operator bounds every member's restart replay
// to the log written after this call. Members run their snapshots
// concurrently; each one's log truncates on success. Memory-only
// members (no -data-dir) fail theirs, and the joined error names each
// member that could not comply while the rest still snapshot.
func (cl *Cluster) Snapshot(ctx context.Context) error {
	v := cl.v.Load()
	errs := make([]error, len(v.Members()))
	var wg sync.WaitGroup
	for i, m := range v.Members() {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cl.conn(ctx, m.Addr)
			if err == nil {
				_, err = c.SnapshotNow(ctx)
			}
			if err != nil {
				errs[i] = fmt.Errorf("cluster: snapshot at %s: %w", m.Addr, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// probe pings one member within the probe timeout.
func (cl *Cluster) probe(ctx context.Context, addr string) error {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	c, err := cl.connAt(pctx, connKey{addr, true})
	if err != nil {
		return err
	}
	return c.Ping(pctx)
}

// confirmDead decides whether Repair may remove a member: one missed
// ping must not repair out a merely slow or GC-paused member that
// would keep accepting writes from clients holding the old map, so
// death requires failMisses consecutive probe failures — the same
// threshold the automatic detector applies across its ticks — and any
// answered probe confirms life immediately. Returns nil for a live
// member, the last probe error for a confirmed-dead one.
func (cl *Cluster) confirmDead(ctx context.Context, addr string) error {
	var err error
	for i := 0; i < cl.failMisses; i++ {
		if i > 0 && !cl.pause(ctx, probeTimeout/2) {
			return err
		}
		if err = cl.probe(ctx, addr); err == nil {
			return nil
		}
	}
	return err
}

// Repair probes every member and, if some are confirmed unreachable
// (failMisses consecutive missed probes each — a single missed ping
// never removes a member), publishes a same-bounds successor map that
// reassigns each dead member's ranges to a surviving replica holder
// (the live ring successor — the member the shared placement walk put
// the replica on). Survivors adopt the map, the heirs' gates promote
// their warm replicas to served data, and the repaired addresses are
// returned. With every member healthy it is a no-op. Repairing a
// cluster with no survivors fails with ErrMemberDown; nothing can be
// promoted.
func (cl *Cluster) Repair(ctx context.Context) ([]string, error) {
	cl.mvmu.Lock()
	defer cl.mvmu.Unlock()
	v := cl.v.Load()
	probeErrs := make([]error, len(v.Members()))
	var wg sync.WaitGroup
	for i, m := range v.Members() {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeErrs[i] = cl.confirmDead(ctx, m.Addr)
		}()
	}
	wg.Wait()
	dead := make(map[string]bool)
	var deadAddrs []string
	for i, m := range v.Members() {
		if probeErrs[i] != nil {
			dead[m.Addr] = true
			deadAddrs = append(deadAddrs, m.Addr)
		}
	}
	if len(deadAddrs) == 0 {
		return nil, nil
	}
	if len(deadAddrs) == len(v.Members()) {
		return nil, fmt.Errorf("cluster: repair: all %d members unreachable: %w", len(v.Members()), perrs.ErrMemberDown)
	}
	// Substitute each dead owner with its first live ring successor.
	// ReplicaAddrs over the full ring yields every other member starting
	// just past the owner; the first copies-1 of them are exactly where
	// the replicas live, so walking in that order hands the range to a
	// member that already holds it warm whenever one survives.
	heirs := make([]string, len(v.Addrs()))
	var cold []int
	for o, a := range v.Addrs() {
		if !dead[a] {
			heirs[o] = a
			continue
		}
		for i, s := range v.ReplicaAddrs(o, len(v.Members())) {
			if dead[s] {
				continue
			}
			heirs[o] = s
			if i >= cl.copies-1 {
				// The heir is past the first copies-1 successors — every
				// member actually holding a warm copy of this range died
				// with its owner. Last resort: after the publish, ask the
				// heir to rebuild the range from its own durable store
				// (rows from an earlier replica assignment or ownership
				// stint linger there until its next snapshot).
				log.Printf("pequod cluster: repair: range %d (owner %s): no replica holder survives; promoting %s without a warm copy", o, a, s)
				cold = append(cold, o)
			}
			break
		}
		if heirs[o] == "" {
			return nil, fmt.Errorf("cluster: repair: no survivor for owner %d (%s): %w", o, a, perrs.ErrMemberDown)
		}
	}
	// The dead members are not in the successor's members, so the
	// publish (and the replica republish riding it) only contacts
	// survivors. Member-side, fences toward a dead peer resolve vacuously
	// — a dead peer owes nothing — and the heirs' gates promote instead
	// of re-fetching. A memory-only cold heir's rebuild fails and its
	// promotion stays empty: acknowledged writes in that range are lost.
	return deadAddrs, cl.settle(ctx, "repair", v, heirs, cold, deadAddrs)
}

// settle finishes a same-bounds substitution of v's serving addresses
// by addrs — Repair's heirs, Restore's new address — on behalf of verb,
// the caller named in errors and logs. It publishes the successor view;
// asks the new owner of each of the rebuild owner indexes to restore
// that range from its own durable lineage — behind live writes, absent
// keys only, best-effort; re-spreads the replica assignments, retrying
// until every member has acknowledged (the monitor's anti-entropy
// republish backstops a spent budget); and fences each removed address:
// a falsely-dead member (slow, paused, briefly partitioned, or its
// machine resurrected) must learn it owns nothing under the new map, or
// it would keep acknowledging writes from clients holding the old one —
// writes silently lost once traffic routes elsewhere. A truly dead one
// just misses the message. Its connections are then retired, so no later
// routing decision waits out a connect timeout to an address known to
// be gone.
func (cl *Cluster) settle(ctx context.Context, verb string, v *partition.View, addrs []string, rebuild []int, removed []string) error {
	nv, err := cl.successor(v, v.Map().Bounds(), addrs, 0)
	if err != nil {
		return err
	}
	if err := cl.publish(ctx, nv, nil); err != nil {
		return fmt.Errorf("cluster: %s published, but not to every member (they converge at the next map-bearing frame): %w", verb, err)
	}
	for _, o := range rebuild {
		r, at := nv.Map().OwnerRange(o), nv.Addrs()[o]
		c, err := cl.conn(ctx, at)
		var n int64
		if err == nil {
			n, err = c.RebuildRange(ctx, r.Lo, r.Hi)
		}
		if err != nil {
			log.Printf("pequod cluster: %s: range %d: durable rebuild at %s failed: %v", verb, o, at, err)
		} else if n > 0 {
			log.Printf("pequod cluster: %s: range %d: rebuilt %d rows at %s from its durable store", verb, o, n, at)
		}
	}
	for attempt := 0; cl.copies > 1; attempt++ {
		failed := cl.publishReplicas(ctx, nv, cl.replicaTables())
		if len(failed) == 0 {
			break
		}
		if attempt >= 4 || !cl.pause(ctx, probeTimeout/2) {
			log.Printf("pequod cluster: %s: replica assignment not acknowledged by %v; monitor anti-entropy will converge them", verb, failed)
			break
		}
	}
	var fwg sync.WaitGroup
	for _, a := range removed {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			fctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			cl.publishView(fctx, nv, a) //nolint:errcheck // best-effort fence
		}()
	}
	fwg.Wait()
	cl.cmu.Lock()
	defer cl.cmu.Unlock()
	for _, a := range removed {
		for _, k := range []connKey{{a, false}, {a, true}} {
			if c := cl.conns[k]; c != nil {
				cl.retiredRPCs += c.RPCs()
				c.Close()
				delete(cl.conns, k)
			}
		}
	}
	return nil
}

// publishReplicas sends every member this client knows of its replica
// assignment: view v — the last map this client published, which a
// member whose gate is newer ignores — plus the total copies per range
// (Limit) and the base tables mirrored (empty = whole ranges), which
// every member takes whatever v's age. The recipients are the members
// of the client's current view, which every caller has advanced to v or
// past it, so a member this client only learned of (another coordinator
// added it) gets the assignment too. Placement is not in the message —
// each member derives the ranges it must hold from the same ring walk
// the coordinator uses (partition.View.ReplicaAddrs), so the two sides
// cannot disagree. Best-effort: it returns the addresses that did not
// acknowledge (nil when all did) instead of failing — the assignment
// rides every map publish, Repair retries it, and the monitor
// republishes it as anti-entropy, so a missed member converges at
// whichever round reaches it next. Re-applying an assignment a member
// already holds diffs to nothing, which is what makes all three rounds
// safe to overlap. No-op when replication is off or the cluster has a
// single member.
func (cl *Cluster) publishReplicas(ctx context.Context, v *partition.View, tables []string) []string {
	mbrs := cl.v.Load().Members()
	if cl.copies <= 1 || len(mbrs) < 2 {
		return nil
	}
	errs := make([]error, len(mbrs))
	var wg sync.WaitGroup
	for i, m := range mbrs {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = cl.do(ctx, m.Addr, &rpc.Message{
				Type: rpc.MsgReplicate, Map: v.For(m.Addr).Wire(), Limit: cl.copies, Tables: tables,
			})
		}()
	}
	wg.Wait()
	var failed []string
	for i, m := range mbrs {
		if errs[i] != nil {
			failed = append(failed, m.Addr)
		}
	}
	return failed
}

// replicaTables returns the base tables replication mirrors: the
// installed joins' source tables (computed tables are rebuilt from them
// at promotion), or nil — replicate whole ranges — when no joins are
// installed through this client.
func (cl *Cluster) replicaTables() []string {
	cl.imu.Lock()
	defer cl.imu.Unlock()
	return sourceTables(cl.installed)
}

// monitor is the failure detector: every failEvery it pings each
// member, counts consecutive misses per address, and once any member
// misses failMisses in a row runs an automatic Repair. Repaired (or
// recovered, or departed) addresses reset their counters.
func (cl *Cluster) monitor() {
	defer close(cl.monDone)
	t := time.NewTicker(cl.failEvery)
	defer t.Stop()
	misses := make(map[string]int)
	for {
		select {
		case <-cl.monStop:
			return
		case <-t.C:
		}
		v := cl.v.Load()
		probeErrs := make([]error, len(v.Members()))
		var wg sync.WaitGroup
		for i, m := range v.Members() {
			i, m := i, m
			wg.Add(1)
			go func() {
				defer wg.Done()
				probeErrs[i] = cl.probe(context.Background(), m.Addr)
			}()
		}
		wg.Wait()
		confirmed := false
		for i, m := range v.Members() {
			if probeErrs[i] == nil {
				delete(misses, m.Addr)
				continue
			}
			misses[m.Addr]++
			if misses[m.Addr] >= cl.failMisses {
				confirmed = true
			}
		}
		for a := range misses {
			if v.OwnersOf(a) == nil {
				delete(misses, a) // drained or repaired out since
			}
		}
		if !confirmed {
			// Anti-entropy: re-send the current replica assignment, with
			// the last map this client published, while the cluster is
			// healthy. A member that missed the assignment or the map when
			// it was first published (a repair's retry budget ran out, a
			// restart raced a publish) converges here; members already
			// holding both diff the republish to nothing.
			if cl.copies > 1 {
				actx, cancel := context.WithTimeout(context.Background(), probeTimeout*2)
				cl.publishReplicas(actx, cl.pub.Load(), cl.replicaTables())
				cancel()
			}
			continue
		}
		rctx, cancel := context.WithTimeout(context.Background(), repairTimeout)
		repaired, err := cl.Repair(rctx)
		cancel()
		if err == nil {
			for _, a := range repaired {
				delete(misses, a)
			}
		}
	}
}

// stopMonitor stops the failure detector and waits for it to exit.
func (cl *Cluster) stopMonitor() {
	if cl.monStop == nil {
		return
	}
	cl.monOnce.Do(func() {
		close(cl.monStop)
		<-cl.monDone
	})
}
