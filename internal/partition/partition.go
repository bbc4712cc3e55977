package partition

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"pequod/internal/keys"
)

// Map assigns contiguous key ranges to servers: server i owns
// [bounds[i-1], bounds[i]) with implicit bounds[-1] = "" and
// bounds[n-1] = +infinity. A Map with no bounds assigns everything to
// server 0.
//
// A Map is immutable. Rebalancing produces successor Maps through
// MoveBound (and membership changes through InsertBound/RemoveBound),
// each carrying a version one higher than its parent, so concurrent
// readers holding an old Map can detect that ownership has moved on
// (the shard pool's live migration swaps Maps atomically and
// re-validates ownership under shard locks).
//
// Maps are totally ordered by (epoch, version). The version counter
// orders one coordinator's successive maps; the epoch orders maps from
// different coordinators. A coordinator mints successors at its own
// epoch (View.Successor), chosen strictly above every epoch it has observed,
// so two coordinators racing from the same parent produce maps at the
// same version but different epochs — one of them is strictly newer,
// members adopt only strictly-newer maps, and the loser's transfer is
// rejected with a version conflict instead of leaving the cluster with
// two incomparable maps. Epoch 0 is the unversioned initial epoch every
// deployment starts from.
type Map struct {
	bounds  []string // sorted; len(bounds) = servers-1
	epoch   int64    // coordinator epoch; 0 for a fresh deployment
	version int64    // 0 for a fresh Map; +1 per successor
}

// New builds a Map from split points, which must be strictly increasing.
func New(bounds ...string) (*Map, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("partition: bounds not strictly increasing at %d", i)
		}
	}
	return &Map{bounds: append([]string(nil), bounds...)}, nil
}

// MustNew is New that panics on error, for static configurations.
func MustNew(bounds ...string) *Map {
	m, err := New(bounds...)
	if err != nil {
		panic(err)
	}
	return m
}

// NewEpochVersioned is New at an explicit (epoch, version) — rebuilding
// a Map shipped over the wire with its full total-order position.
func NewEpochVersioned(epoch, version int64, bounds ...string) (*Map, error) {
	m, err := New(bounds...)
	if err != nil {
		return nil, err
	}
	m.epoch, m.version = epoch, version
	return m, nil
}

// Servers returns the number of servers the map distributes over.
func (m *Map) Servers() int { return len(m.bounds) + 1 }

// Version returns the map's rebalance generation: 0 for a Map built by
// New, incremented by every successor (MoveBound, InsertBound,
// RemoveBound).
func (m *Map) Version() int64 { return m.version }

// Epoch returns the map's coordinator epoch: 0 for a fresh deployment,
// re-stamped when a coordinator mints a successor (View.Successor).
func (m *Map) Epoch() int64 { return m.epoch }

// Compare orders two (epoch, version) pairs: -1, 0, or +1 as a is
// older than, equal to, or newer than b. Maps are totally ordered by
// epoch first, version second.
func Compare(aEpoch, aVersion, bEpoch, bVersion int64) int {
	switch {
	case aEpoch < bEpoch:
		return -1
	case aEpoch > bEpoch:
		return 1
	case aVersion < bVersion:
		return -1
	case aVersion > bVersion:
		return 1
	}
	return 0
}

// NewerThan reports whether m is strictly newer than (epoch, version)
// in the total order — the adoption test members and clients apply.
func (m *Map) NewerThan(epoch, version int64) bool {
	return Compare(m.epoch, m.version, epoch, version) > 0
}

// Bound returns the i'th split point (the lower edge of server i+1's
// range).
func (m *Map) Bound(i int) string { return m.bounds[i] }

// MoveBound returns a successor Map with bounds[i] moved to bound — the
// rebalancer's primitive. Lowering the bound shifts [bound, old) from
// server i to server i+1; raising it shifts [old, bound) from server i+1
// to server i. The new bound must stay strictly between its neighbors so
// every server keeps a non-empty range; a bound equal to the current one
// is rejected (a no-op move would spend a migration for nothing). The
// receiver is unchanged.
func (m *Map) MoveBound(i int, bound string) (*Map, error) {
	if i < 0 || i >= len(m.bounds) {
		return nil, fmt.Errorf("partition: bound index %d out of range [0,%d)", i, len(m.bounds))
	}
	if bound == m.bounds[i] {
		return nil, fmt.Errorf("partition: bound %d already at %q", i, bound)
	}
	if i > 0 && bound <= m.bounds[i-1] {
		return nil, fmt.Errorf("partition: bound %d = %q not above left neighbor %q", i, bound, m.bounds[i-1])
	}
	if i < len(m.bounds)-1 && bound >= m.bounds[i+1] {
		return nil, fmt.Errorf("partition: bound %d = %q not below right neighbor %q", i, bound, m.bounds[i+1])
	}
	if bound == "" {
		return nil, fmt.Errorf("partition: bound %d cannot be the empty key", i)
	}
	next := append([]string(nil), m.bounds...)
	next[i] = bound
	return &Map{bounds: next, epoch: m.epoch, version: m.version + 1}, nil
}

// InsertBound returns a successor Map with one more owner: owner's
// range is split at bound, owner keeping [lo, bound) and a new owner
// index owner+1 taking [bound, hi); owner indexes above shift up by
// one. This is the map half of a server join — the caller assigns the
// new index an address and transfers [bound, hi) to it. bound must lie
// strictly inside owner's current range.
func (m *Map) InsertBound(owner int, bound string) (*Map, error) {
	if owner < 0 || owner > len(m.bounds) {
		return nil, fmt.Errorf("partition: owner %d out of range [0,%d]", owner, len(m.bounds))
	}
	if bound == "" {
		return nil, fmt.Errorf("partition: inserted bound cannot be the empty key")
	}
	if owner > 0 && bound <= m.bounds[owner-1] {
		return nil, fmt.Errorf("partition: bound %q not above owner %d's lower edge %q", bound, owner, m.bounds[owner-1])
	}
	if owner < len(m.bounds) && bound >= m.bounds[owner] {
		return nil, fmt.Errorf("partition: bound %q not below owner %d's upper edge %q", bound, owner, m.bounds[owner])
	}
	next := make([]string, 0, len(m.bounds)+1)
	next = append(next, m.bounds[:owner]...)
	next = append(next, bound)
	next = append(next, m.bounds[owner:]...)
	return &Map{bounds: next, epoch: m.epoch, version: m.version + 1}, nil
}

// RemoveBound returns a successor Map with one fewer owner: split point
// i is removed, merging owners i and i+1 into owner i; owner indexes
// above shift down by one. This is the map half of a server drain — the
// caller decides which of the two old owners' addresses serves the
// merged range and transfers the other's data to it.
func (m *Map) RemoveBound(i int) (*Map, error) {
	if i < 0 || i >= len(m.bounds) {
		return nil, fmt.Errorf("partition: bound index %d out of range [0,%d)", i, len(m.bounds))
	}
	next := make([]string, 0, len(m.bounds)-1)
	next = append(next, m.bounds[:i]...)
	next = append(next, m.bounds[i+1:]...)
	return &Map{bounds: next, epoch: m.epoch, version: m.version + 1}, nil
}

// Bounds returns a copy of the split points.
func (m *Map) Bounds() []string { return append([]string(nil), m.bounds...) }

// SameBounds reports how o's split points differ from m's; nil when
// they are identical.
func (m *Map) SameBounds(o *Map) error {
	if len(m.bounds) != len(o.bounds) {
		return fmt.Errorf("partition has %d ranges, got %d", len(m.bounds)+1, len(o.bounds)+1)
	}
	for i := range m.bounds {
		if m.bounds[i] != o.bounds[i] {
			return fmt.Errorf("bound %d differs: %q vs %q", i, m.bounds[i], o.bounds[i])
		}
	}
	return nil
}

// OwnerRange returns the key range owner index o serves.
func (m *Map) OwnerRange(o int) keys.Range {
	var r keys.Range
	if o > 0 {
		r.Lo = m.bounds[o-1]
	}
	if o < len(m.bounds) {
		r.Hi = m.bounds[o]
	}
	return r
}

// Owner returns the home server index for key: the number of bounds at
// or below it.
func (m *Map) Owner(key string) int {
	lo, hi := 0, len(m.bounds)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); m.bounds[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// OwnsRange reports whether server owner holds every key of r — the
// shard pool's post-lock validation that a scan piece computed against
// an older Map is still wholly served by the locked shard.
func (m *Map) OwnsRange(owner int, r keys.Range) bool {
	if m.Owner(r.Lo) != owner {
		return false
	}
	if owner == len(m.bounds) {
		return true // last server: owns up to +inf
	}
	return r.Hi != "" && r.Hi <= m.bounds[owner]
}

// Shard is one piece of a range split across owners.
type Shard struct {
	R     keys.Range
	Owner int
}

// Split divides r into per-owner shards in key order. Containing ranges
// that straddle home servers become one fetch per owner.
func (m *Map) Split(r keys.Range) []Shard { return m.split(r, nil) }

// split is Split appending to out, so a caller can hand it room on its
// stack for the usual one piece.
func (m *Map) split(r keys.Range, out []Shard) []Shard {
	if r.Empty() {
		return out
	}
	lo := r.Lo
	owner := m.Owner(lo)
	for owner < len(m.bounds) {
		bound := m.bounds[owner]
		if r.Hi != "" && bound >= r.Hi {
			break
		}
		out = append(out, Shard{R: keys.Range{Lo: lo, Hi: bound}, Owner: owner})
		lo = bound
		owner++
	}
	out = append(out, Shard{R: keys.Range{Lo: lo, Hi: r.Hi}, Owner: owner})
	return out
}

// Gather answers a request over r that may span owners (§2.4): it splits
// r by the map cur returns, has piece serve each owner's part, and
// returns the parts concatenated, which is key order. With a limit the
// parts are visited in turn, each asked for what is left of the limit,
// until it is met, so an owner whose rows would be cut off anyway never
// computes them; without one — or when every part must be visited
// regardless (all) — they are served concurrently. piece fills the buffer
// it is handed from the start (the caller's buf for the first part) and
// returns it. When a part fails, again says whether to start over from a
// fresh split: a part whose range moved after the split is refused by
// its owner, never served by a holder of only some of it.
func Gather[T any](cur func() *Map, r keys.Range, limit int, all bool, buf []T,
	piece func(pc Shard, limit int, buf []T) ([]T, error),
	again func(err error, attempt int) bool) ([]T, error) {
	for attempt := 0; ; attempt++ {
		var one [1]Shard
		out, err := gather(cur().split(r, one[:0]), limit, all, buf[:0], piece)
		if err == nil || !again(err, attempt) {
			return out, err
		}
	}
}

func gather[T any](pieces []Shard, limit int, all bool, out []T, piece func(Shard, int, []T) ([]T, error)) ([]T, error) {
	if len(pieces) <= 1 || (limit > 0 && !all) {
		var part []T
		for i, pc := range pieces {
			var err error
			if i == 0 {
				out, err = piece(pc, limit, out)
			} else {
				part, err = piece(pc, limit-len(out), part)
				out = append(out, part...)
			}
			if err != nil {
				return nil, err
			}
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		return out, nil
	}
	parts := make([][]T, len(pieces))
	errs := make([]error, len(pieces))
	parts[0] = out
	var wg sync.WaitGroup
	for i, pc := range pieces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = piece(pc, limit, parts[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out = parts[0]
	for _, part := range parts[1:] {
		out = append(out, part...)
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// UserBounds builds split points that spread fixed-width user IDs of the
// form prefix + zero-padded number evenly across n servers, for each of
// the given tables. For example, UserBounds(4, 1000, 7, "p", "s")
// produces bounds like p|u0000250, p|u0000500, ... — matching the
// synthetic Twip graph's u%07d identifiers.
func UserBounds(n, users, width int, idPrefix string, tables ...string) []string {
	var bounds []string
	for _, t := range tables {
		for i := 1; i < n; i++ {
			// Ceiling split: the bound is the smallest id on shard i, so
			// id*n/users recovers the shard exactly at the boundary.
			id := (users*i + n - 1) / n
			bounds = append(bounds, fmt.Sprintf("%s|%s%0*d", t, idPrefix, width, id))
		}
	}
	sort.Strings(bounds)
	return bounds
}

// UserShard is the Twip client-routing function S(u) (§2.4): all timeline
// checks for user u go to compute server S(u), minimizing duplicate
// timeline storage.
func UserShard(user string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(user))
	return int(h.Sum32() % uint32(n))
}
