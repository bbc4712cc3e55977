// Package perrs holds the typed sentinel errors shared by every layer
// of the pequod tree. It is a leaf package — nothing but the standard
// library below it — so the internal packages that *produce* these
// conditions (client, shard, cluster) and the public package that
// *documents* them (pequod re-exports each sentinel) can both import
// it without a cycle.
//
// The sentinels classify failures; they never travel alone. Producers
// wrap them with context (`fmt.Errorf("cluster: member %s: %w: %v",
// addr, perrs.ErrMemberDown, cause)`) or attach them through an Is
// method on a richer type (partition.NotOwnerError),
// so callers match with errors.Is and still read a useful message.
package perrs

import "errors"

var (
	// ErrNotOwner reports that the process serving the request does not
	// (or no longer does) own the keys in the cluster partition — a
	// live migration or repair moved them. The cluster client retries
	// these transparently; seeing one at the application layer means a
	// raw client is pointed at a member whose map has moved on.
	ErrNotOwner = errors.New("pequod: not the range owner")

	// ErrMemberDown reports that a cluster member could not be reached
	// (or stopped responding) and retries were exhausted without a
	// repair re-homing its ranges.
	ErrMemberDown = errors.New("pequod: cluster member down")

	// ErrDraining reports that a drain was refused or interrupted:
	// draining the last member, or a member already mid-drain.
	ErrDraining = errors.New("pequod: member draining")

	// ErrConflict reports that an administrative map change lost a race
	// with a concurrent coordinator and was not applied; re-inspect the
	// cluster state and retry if still wanted.
	ErrConflict = errors.New("pequod: conflicting map change")

	// ErrOverBudget reports that a bounded-staleness read could not be
	// served within its freshness budget: the range's lag exceeded the
	// budget, the read fell back to the fresh path, and the fresh path
	// itself failed (most commonly a deadline expiring while it waited
	// for base data). A read that falls back and *succeeds* returns no
	// error — the sentinel marks only budget-attributable failures, so
	// callers can tell "your budget was unservable in time" apart from
	// an ordinary timeout.
	ErrOverBudget = errors.New("pequod: staleness budget exceeded")
)
