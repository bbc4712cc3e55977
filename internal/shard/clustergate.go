package shard

// Cluster-level live migration, the pool-side half of moving a key range
// between servers — the only way load moves (a pool's shard map is fixed
// at New); internal/cluster/migrate.go tells the protocol once, DESIGN.md
// "Moving a range" says what each layer adds, and DESIGN.md "Membership
// & epochs" says what a view is and how its holders advance. This layer
// adds the gate: the pool's *partition.View, checked by every routed
// operation under the shard lock it already holds. An operation whose
// range has migrated away fails with *partition.NotOwnerError carrying
// the gate. Only a server
// member holds a gate, and a member is one engine (Pool.member), so the
// three swaps below — extract (direct successor), splice and map update
// (strictly newer) — replace the gate under that engine's lock before
// they touch the range, and the ownership flip is atomic with the data
// transfer.
//
// # Retained extractions
//
// Between a successful extract and a successful splice the moved rows
// exist only in the coordinator's memory — a crashed coordinator or a
// dead destination would strand them. The source therefore retains a
// copy of everything it extracts until the transfer is confirmed: a
// published map (MapUpdate) under which the intended destination serves
// the range means the splice landed, and the copy is dropped. If a
// later map instead hands the range *back* to this server without an
// accompanying splice — the coordinator rolled a failed transfer back,
// or a competing coordinator's older-epoch map lost and the winner never
// knew about the move — the retained rows are restored (without
// clobbering anything written since). The buffer is bounded; entries
// beyond the cap evict oldest-first and are visible in RetainedStats
// and the stat RPC so operators can see stranded state.

import (
	"fmt"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
)

// Gate returns the pool's current cluster view (nil when the pool is
// not part of a gated cluster).
func (p *Pool) Gate() *partition.View { return p.gate.Load() }

// directSuccessor reports whether next is the direct successor of the
// gate's current map: version exactly one ahead and epoch not moving
// backwards. Transfers (extract, in-order splices) require it — it
// proves the coordinator derived next from the map this member holds,
// so a concurrent coordinator working from a stale parent conflicts
// here instead of silently forking the partition.
func directSuccessor(cur, next *partition.View) bool {
	return next.Map().Version() == cur.Map().Version()+1 && next.Map().Epoch() >= cur.Map().Epoch()
}

// ExtractClusterRange removes range r's state from a member so it can
// move to another server, atomically flipping cluster ownership: next
// must be the direct successor of the gate's map (version exactly one
// ahead), with peers and self giving this member's position under it —
// a membership change (join split, drain merge) reshapes all three. On
// success the returned state holds the owned rows — including
// presence-backed rows, whose home this server was — and the warm
// computed coverage for the destination to rebuild; a copy is retained
// until a published map confirms the destination serves the range (see
// the package comment). On a version conflict or if r is not wholly
// self-owned, *NotOwnerError carries the current map and nothing
// changes.
func (p *Pool) ExtractClusterRange(r keys.Range, next *partition.View) (core.RangeState, error) {
	sh := p.member("ExtractClusterRange")
	p.imu.Lock()
	defer p.imu.Unlock()
	g := p.gate.Load()
	if g == nil {
		return core.RangeState{}, fmt.Errorf("shard: no cluster view installed")
	}
	if !directSuccessor(g, next) || !g.OwnsRange(r) {
		return core.RangeState{}, &partition.NotOwnerError{View: g}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Publish first: every operation that acquires the engine's lock
	// after us re-validates against this gate and bounces.
	p.gate.Store(next)

	rs := sh.e.ExtractRange(r)
	// Retain a copy until a published map shows the destination serving
	// the range: the extracted rows otherwise live only in the
	// coordinator's memory between extract and splice.
	p.addRetained(retainedEntry{rs: rs, at: next, dst: next.OwnerAddr(r.Lo), confirmable: true})
	p.mig.Migrations++
	p.mig.KeysMoved += int64(len(rs.KVs))
	return rs, nil
}

// SpliceClusterRange folds a range extracted at another server into a
// member, atomically flipping cluster ownership to us: next must be a
// strictly newer view under which we own rs.R. The member's own cached
// traces of the range — loaded source rows, computed coverage, presence
// records from its time as a subscriber — are dropped first (§2.5), so
// they cannot shadow the moved rows; then the rows land and the source's
// previously valid computed coverage rebuilds warm. A splice may jump
// several versions ahead (a coordinator re-offering a range whose first
// destination died); ranges that changed hands elsewhere between the
// member's map and next are reconciled like a map update.
func (p *Pool) SpliceClusterRange(rs core.RangeState, next *partition.View) error {
	sh := p.member("SpliceClusterRange")
	p.imu.Lock()
	defer p.imu.Unlock()
	g := p.gate.Load()
	if g == nil {
		return fmt.Errorf("shard: no cluster view installed")
	}
	if !next.Newer(g) {
		// Only a retry of the exact splice already applied is an
		// idempotent success. A *different* map at the same position is a
		// concurrent coordinator that lost the race — succeeding here
		// would silently drop its extracted rows; the conflict error
		// sends them back up the coordinator's failure path instead.
		if next.Same(g) {
			return nil
		}
		return &partition.NotOwnerError{View: g}
	}
	if !next.OwnsRange(rs.R) {
		return &partition.NotOwnerError{View: g}
	}
	sh.mu.Lock()
	p.gate.Store(next)
	sh.e.DropRange(rs.R)
	sh.e.SpliceRange(rs)
	// A splice that jumped versions (a re-offer) may also move ranges
	// between other members; reconcile them exactly as a map update
	// would, excluding the spliced range itself.
	if !directSuccessor(g, next) {
		p.applyDiffsLocked(sh, g, next, &rs.R)
	}
	sh.mu.Unlock()
	// The spliced data is authoritative for rs.R: retained copies of it
	// are obsolete, and the new map may confirm (or return) others.
	p.dropRetainedOverlapping(rs.R)
	p.reconcileRetained(sh, next)
	p.mig.Migrations++
	p.mig.WarmMoved += int64(len(rs.Warm))
	return nil
}

// ApplyMapUpdate adopts a newer cluster map published after a migration
// or membership change, reconciling every range whose serving address
// changed: ranges this process neither lost through an extraction nor
// gained through a splice are dropped (with eviction semantics) so the
// next read re-fetches from — and re-subscribes at — the new home;
// ranges it lost *without* an extraction (a competing coordinator's
// newer map overruled a local move) are demoted into the retained
// buffer rather than destroyed; ranges handed back to it without a
// splice are restored from that buffer. It reports the ranges dropped
// or demoted. The server fences in-flight subscription pushes from the
// old owners before calling. A first call (no gate yet) just installs
// the view; republishing the map already held confirms retained
// extractions (the coordinator only publishes after the splice landed).
func (p *Pool) ApplyMapUpdate(next *partition.View) []keys.Range {
	sh := p.member("ApplyMapUpdate")
	p.imu.Lock()
	defer p.imu.Unlock()
	g := p.gate.Load()
	if g == nil {
		p.gate.Store(next)
		return nil
	}
	if !next.Newer(g) {
		if next.Same(g) {
			// The coordinator republished the map we already hold: its
			// splice landed, so retained copies it confirms can go.
			p.reconcileRetained(sh, g)
		}
		return nil
	}
	sh.mu.Lock()
	p.gate.Store(next)
	changed := p.applyDiffsLocked(sh, g, next, nil)
	sh.mu.Unlock()
	p.reconcileRetained(sh, next)
	return changed
}

// applyDiffsLocked reconciles cached state with a newer gate: for every
// range whose serving address changed between old and ng (excluding
// exclude when non-nil — the caller handled that range with real
// data), the range is demoted to the retained buffer if this process
// owned it under old, or dropped as a stale replica if it owns it under
// neither. A range handed to it without a splice — a failover promotion,
// or a revert — keeps what it held (at most a replica, now
// authoritative-in-waiting), and reconcileRetained restores any retained
// copy after the lock drops. Caller holds imu and sh's lock. Reports the
// ranges that changed hands locally (demoted or dropped).
func (p *Pool) applyDiffsLocked(sh *Shard, old, ng *partition.View, exclude *keys.Range) []keys.Range {
	var changed []keys.Range
	for _, d := range partition.DiffAddrs(old, ng) {
		if exclude != nil {
			if rr := d.Intersect(*exclude); !rr.Empty() && rr == d {
				continue // wholly the spliced range; caller handled it
			}
		}
		ownedOld, ownedNew := old.Owns(d.Lo), ng.Owns(d.Lo)
		switch {
		case ownedOld && !ownedNew:
			// Lost without an extraction: a newer map overruled a local
			// move. Keep the rows recoverable instead of destroying the
			// only copy.
			rs := sh.e.ExtractRange(d)
			if len(rs.KVs) > 0 || len(rs.Warm) > 0 {
				p.addRetained(retainedEntry{rs: rs, at: ng, dst: ng.OwnerAddr(d.Lo)})
			}
			changed = append(changed, d)
		case !ownedOld && !ownedNew:
			// Changed hands between two other servers: our cached copy is
			// a stale replica of data homed elsewhere.
			sh.e.DropRange(d)
			changed = append(changed, d)
		}
	}
	return changed
}

// DropRangeAll drops a member's cached copy of r with eviction
// semantics: a replica copy assigned elsewhere, or join sources fetched
// from a peer whose connection died. The pieces the gate says this
// member serves are spared: rows a promotion or a migration just made
// its own are the whole point of replication. The split matters: after
// a bound move, a copied range and an owned one can overlap, and a
// whole-range test would drop freshly spliced served rows with the
// stale copy.
func (p *Pool) DropRangeAll(r keys.Range) {
	sh := p.member("DropRangeAll")
	sh.mu.Lock()
	p.unowned(r, sh.e.DropRange)
	sh.mu.Unlock()
}

// Hold replaces a member's copy of r — a range homed elsewhere that one
// of its replica holds keeps — with rows, a full snapshot of it, under
// one lock acquisition: the old copy is dropped and r marked resident
// for good (core.Engine.Hold), then the rows land through the quiet
// path, as ApplyBatch's pushes do. Joins then read the copy without
// loading it, and eviction never reaches it. Pieces the gate says this
// member serves are spared, as DropRangeAll spares them, rows in them
// included: the gate swaps under the lock held here.
func (p *Pool) Hold(r keys.Range, rows []core.KV) {
	sh := p.member("Hold")
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p.unowned(r, sh.e.Hold)
	g := p.gate.Load()
	for _, kv := range rows {
		if !g.Owns(kv.Key) {
			sh.e.PutQuiet(kv.Key, kv.Value)
		}
	}
}

// unowned hands fn each piece of r the gate does not name this
// member's.
func (p *Pool) unowned(r keys.Range, fn func(keys.Range)) {
	g := p.gate.Load()
	for _, pc := range g.Map().Split(r) {
		if !g.IsSelf(pc.Owner) {
			fn(pc.R)
		}
	}
}

// --- retained extractions ---

// retainedCap bounds the retained-extraction buffer; beyond it the
// oldest entry evicts (and is counted, so operators can see loss).
const retainedCap = 16

// retainedEntry is one extraction awaiting confirmation.
type retainedEntry struct {
	rs          core.RangeState
	at          *partition.View // the view that moved the range out
	dst         string          // serving address the range moved to
	confirmable bool            // true when a coordinator drove this extraction
}

// RetainedStats snapshots the retained-extraction buffer for stats and
// operator triage.
type RetainedStats struct {
	Entries int `json:"entries"` // extractions awaiting confirmation
	Rows    int `json:"rows"`    // rows held across them
	Evicted int `json:"evicted"` // entries dropped at capacity (potential loss)
}

// RetainedStats returns the current retained-buffer occupancy.
func (p *Pool) RetainedStats() RetainedStats {
	p.retmu.Lock()
	defer p.retmu.Unlock()
	st := RetainedStats{Entries: len(p.retained), Evicted: p.retainedEvicted}
	for _, e := range p.retained {
		st.Rows += len(e.rs.KVs)
	}
	return st
}

// addRetained appends an entry, evicting oldest-first at capacity.
// Callers hold imu.
func (p *Pool) addRetained(e retainedEntry) {
	p.retmu.Lock()
	defer p.retmu.Unlock()
	if len(p.retained) >= retainedCap {
		p.retained = p.retained[1:]
		p.retainedEvicted++
	}
	p.retained = append(p.retained, e)
}

// dropRetainedOverlapping discards retained entries overlapping r — a
// splice delivered authoritative data for the range, so the older copy
// must not resurface. Callers hold imu.
func (p *Pool) dropRetainedOverlapping(r keys.Range) {
	p.retmu.Lock()
	defer p.retmu.Unlock()
	kept := p.retained[:0]
	for _, e := range p.retained {
		if e.rs.R.Intersect(r).Empty() {
			kept = append(kept, e)
		}
	}
	p.retained = kept
}

// reconcileRetained applies the adopted gate ng to the retained buffer:
// entries whose range ng hands back to this process are restored into
// the engine (without clobbering fresher rows) and dropped; confirmable
// entries whose intended destination serves the range under a map at or
// beyond theirs are confirmed and dropped; everything else waits.
// Callers hold imu but not sh's lock.
func (p *Pool) reconcileRetained(sh *Shard, ng *partition.View) {
	p.retmu.Lock()
	var restore []retainedEntry
	kept := p.retained[:0]
	for _, e := range p.retained {
		switch {
		case ng.Owns(e.rs.R.Lo) && ng.OwnsRange(e.rs.R):
			restore = append(restore, e)
		case e.confirmable && ng.OwnerAddr(e.rs.R.Lo) == e.dst && !e.at.Newer(ng):
			// The destination serves the range under a published map at or
			// past the transfer: the splice landed.
		default:
			kept = append(kept, e)
		}
	}
	p.retained = kept
	p.retmu.Unlock()
	sh.mu.Lock()
	for _, e := range restore {
		sh.e.RestoreRange(e.rs)
	}
	sh.mu.Unlock()
}

// LoadInfo snapshots the pool's cumulative served load and recent key
// samples — the raw material a cluster-level rebalancer polls through
// the stat RPC to find hot servers and pick split points.
type LoadInfo struct {
	Units   int64    `json:"units"`   // ops + rows served since start
	Samples []string `json:"samples"` // recently served keys (ring snapshot)
}

// LoadInfo returns the pool's current load snapshot.
func (p *Pool) LoadInfo() LoadInfo {
	var li LoadInfo
	for _, sh := range p.shards {
		li.Units += sh.unitsTotal.Load()
		li.Samples = append(li.Samples, sh.sampleKeys()...)
	}
	return li
}

// sampleKeys snapshots the shard's ring of recently served keys.
func (sh *Shard) sampleKeys() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []string
	for _, k := range sh.samples {
		if k != "" {
			out = append(out, k)
		}
	}
	return out
}

// MigrationStats counts the cluster migrations a member took part in:
// extractions it served as the source, splices it took as the
// destination, and what moved through them.
type MigrationStats struct {
	Migrations int64 `json:"migrations"` // extractions plus splices
	KeysMoved  int64 `json:"keys_moved"` // rows extracted from this member
	WarmMoved  int64 `json:"warm_moved"` // computed ranges spliced in to rebuild warm
}

// MigrationStats returns the member's migration counters.
func (p *Pool) MigrationStats() MigrationStats {
	p.imu.Lock()
	defer p.imu.Unlock()
	return p.mig
}
