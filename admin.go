package pequod

import (
	"context"

	"pequod/internal/cluster"
	"pequod/internal/durable"
)

// Admin is the cluster-operations surface, split from Store: Store is
// what applications read and write through; Admin is what operators
// (and pequod-cli) reshape the cluster through. The value returned by
// NewCluster satisfies both:
//
//	st, _ := pequod.NewCluster(ctx, cfg)
//	var adm pequod.Admin = st
//
// (Since NewCluster returns the concrete *Cluster, the methods are also
// directly callable; the interface exists so tools depend on the
// operational contract, not the concrete type.)
//
// Errors: AddServer and DrainServer wrap ErrMemberDown when a transfer
// participant is unreachable past the retry budget, DrainServer refuses
// the last member with ErrDraining, MoveBound reports a concurrent
// coordinator winning the epoch race as ErrConflict, and Repair with no
// surviving member fails with ErrMemberDown — all matchable with
// errors.Is.
type Admin interface {
	// Health probes every member concurrently and reports liveness,
	// durable identity, owned ranges, and replica footprint per member.
	// It never fails as a whole; an unreachable member is a row with
	// Alive=false.
	Health(ctx context.Context) []MemberHealth
	// Members returns the number of distinct servers in the cluster.
	Members() int
	// MemberAddrs returns the distinct member addresses under the
	// current map, in first-appearance order.
	MemberAddrs() []string
	// AddServer splices the server at addr into the cluster live,
	// wiring it into the subscription mesh and granting it an initial
	// key-range slice.
	AddServer(ctx context.Context, addr string) error
	// AddServerAt is AddServer with an explicit initial grant: donor
	// owner index owner's range splits at bound, the new member taking
	// the upper slice.
	AddServerAt(ctx context.Context, addr string, owner int, bound string) error
	// DrainServer streams every range the member at addr owns to its
	// neighbors and removes it from the map, live and loss-free.
	DrainServer(ctx context.Context, addr string) error
	// Repair probes the membership and publishes a successor map that
	// reassigns every unreachable member's ranges to surviving replica
	// holders, promoting their warm copies. It returns the repaired
	// addresses (none when all members are healthy). With
	// ClusterConfig.FailoverInterval set, the failure detector calls it
	// automatically.
	Repair(ctx context.Context) ([]string, error)
	// MoveBound migrates the key range implied by moving partition
	// bound i between the members on either side of it, live.
	MoveBound(ctx context.Context, i int, bound string) error
	// Restore substitutes newAddr for the confirmed-dead member oldAddr
	// in the map, serving oldAddr's ranges from the durable lineage the
	// server at newAddr recovered. The operator workflow: re-key the
	// dead member's data dir to the new address (RekeyDataDir, or
	// `pequod-cli restore -from DIR NEWADDR`), start a server with
	// -data-dir over it at newAddr, then call Restore. oldAddr must
	// still be in the map (after a completed Repair its ranges moved on
	// — use AddServer) and must fail the same consecutive-probe death
	// test Repair applies; newAddr must be running with a durable store.
	Restore(ctx context.Context, oldAddr, newAddr string) error
	// Snapshot asks every member to write a durable snapshot now,
	// bounding each one's restart replay to the log written afterwards.
	// Memory-only members (no data dir) fail theirs; the joined error
	// names them while the rest still snapshot.
	Snapshot(ctx context.Context) error
}

// MemberHealth is one member's row in an Admin.Health report.
type MemberHealth = cluster.MemberHealth

// RekeyDataDir rewrites the meta.json identity of a dead member's data
// dir so a server started over it at newAddr recovers the lineage as
// its own — the offline first step of a cross-address restore (see
// Admin.Restore). It returns the old (dead) address, needed for the
// Restore call that publishes the substitution. Idempotent; the write
// is atomic, so a crash mid-rekey leaves either identity intact. The
// dir must not be in use by a running server.
func RekeyDataDir(dir, newAddr string) (oldAddr string, err error) {
	return durable.Rekey(dir, newAddr)
}

// NewCluster's result is both a Store and an Admin.
var _ Admin = (*Cluster)(nil)
