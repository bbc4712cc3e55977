package partition

import "sort"

const (
	// ratio is how far above the mean per-owner load the hottest owner
	// must run before a move triggers.
	ratio = 1.5
	// minOps is the per-sample load floor, summed over all owners, below
	// which the system is considered idle and no move happens.
	minOps = 128
	// ewmaWeight is the fraction of each new sample folded into an
	// owner's load average.
	ewmaWeight = 0.5
	// hotPersist and cooldownSamples are the hysteresis: an owner must
	// run hot for hotPersist consecutive samples before a move triggers,
	// and after a move the balancer sits out cooldownSamples samples.
	// Without this, transient skew — a burst draining, closed-loop
	// workers finishing at different times — causes migration thrash
	// that costs more than the imbalance it chases.
	hotPersist      = 2
	cooldownSamples = 5
	// minSamples is the fewest in-range key samples a bound pick trusts.
	minSamples = 16
)

// Balancer is the rebalancing policy: fed each member's cumulative load
// once per sample, it keeps an EWMA of the per-sample deltas and, when
// one member runs persistently hot, names the partition bound to move
// and where to. Members are identified by address across samples, so
// history survives owner indexes shifting under a membership change.
// Not safe for concurrent use.
type Balancer struct {
	ewma      map[string]float64
	last      map[string]int64 // previous cumulative units
	hotStreak int
	cooldown  int
}

// Load returns id's current load average (zero for an unknown member).
func (b *Balancer) Load(id string) float64 { return b.ewma[id] }

// Moved tells the balancer the move Decide named was executed: the hot
// streak resets and the cooldown starts.
func (b *Balancer) Moved() {
	b.hotStreak = 0
	b.cooldown = cooldownSamples
}

// Decide takes one load sample and reports the move it calls for, if
// any: bound index i of m should move to key. owners[o] identifies who
// serves owner index o (one identity may serve several); units gives
// each identity's cumulative load; samples returns recently served keys
// of the identity found hot. An identity seen for the first time primes
// at zero load (its counter is cumulative, not a delta), one no longer
// in owners is forgotten.
func (b *Balancer) Decide(m *Map, owners []string, units map[string]int64, samples func(string) []string) (i int, key string, ok bool) {
	if b.ewma == nil {
		b.ewma = make(map[string]float64)
		b.last = make(map[string]int64)
	}
	var raw int64
	var hot string
	total, n := 0.0, 0
	current := make(map[string]bool, len(owners))
	for _, id := range owners {
		if current[id] {
			continue
		}
		current[id] = true
		var d int64
		if prev, seen := b.last[id]; seen {
			d = units[id] - prev
		}
		b.last[id] = units[id]
		raw += d
		b.ewma[id] = (1-ewmaWeight)*b.ewma[id] + ewmaWeight*float64(d)
		total += b.ewma[id]
		if n == 0 || b.ewma[id] > b.ewma[hot] {
			hot = id
		}
		n++
	}
	for id := range b.ewma {
		if !current[id] {
			delete(b.ewma, id)
			delete(b.last, id)
		}
	}
	idle := raw < minOps || total == 0
	over := !idle && b.ewma[hot] > ratio*total/float64(n)
	if b.cooldown > 0 {
		b.cooldown--
		over = false
	} else if over {
		b.hotStreak++
		over = b.hotStreak >= hotPersist
	} else {
		// Idle samples break the streak too: two hot bursts separated by
		// hours of idleness are not "persistently hot", and the key
		// samples from the first burst would be stale by the second.
		b.hotStreak = 0
	}
	if !over {
		return 0, "", false
	}

	// Among the bounds separating the hot identity from a cooler one,
	// take the one with the coolest neighbor. A member that just joined
	// (load near zero) is the coolest by construction, so hot ranges
	// shed toward it.
	hotOwner, nb := -1, hot
	for o := 0; o+1 < len(owners); o++ {
		l, r := owners[o], owners[o+1]
		if l == hot && b.ewma[r] < b.ewma[nb] {
			i, hotOwner, nb = o, o, r
		}
		if r == hot && b.ewma[l] < b.ewma[nb] {
			i, hotOwner, nb = o, o+1, l
		}
	}
	if hotOwner < 0 {
		return 0, "", false
	}
	// Shed enough to meet the neighbor halfway: the load-weighted
	// quantile of the hot range's key samples.
	frac := (b.ewma[hot] - b.ewma[nb]) / (2 * b.ewma[hot])
	hr := m.OwnerRange(hotOwner)
	var in []string
	for _, k := range samples(hot) {
		if hr.Contains(k) {
			in = append(in, k)
		}
	}
	if len(in) < minSamples {
		return 0, "", false
	}
	sort.Strings(in)
	if hotOwner == i {
		// Hot side is left of the bound: lower it to the (1-frac)
		// quantile, shedding the top slice rightward.
		frac = 1 - frac
	}
	key = in[min(int(float64(len(in))*frac), len(in)-1)]
	// The quantile can land on the current bound (a previous move's
	// split point) or collide with a neighbor; a dry run against the map
	// turns that into "no move this sample" instead of an error.
	if _, err := m.MoveBound(i, key); err != nil {
		return 0, "", false
	}
	return i, key, true
}
