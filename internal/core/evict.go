package core

// Eviction (§2.5): "an overloaded Pequod server simply evicts the least
// recently used data ranges." Evictable units are join status ranges
// (computed data) and presence ranges (cached base / remote data), and
// they differ in what they cost to get back: a status is one local
// re-execution over inputs that stay resident, while a presence range is
// a round trip to its home plus a dirty recompute of every status that
// read it. So each kind has its own LRU list, and eviction takes the
// least recently used status while any is tracked, reaching for presence
// ranges only once none is left: cost class first, then recency.
// Eviction removes the range's data, uninstalls its bookkeeping, and
// invalidates dependents transitively.

// lruEntry is an intrusive doubly-linked list node naming its owner.
type lruEntry[T any] struct {
	prev, next *lruEntry[T]
	owner      T
}

// lruList is a doubly-linked LRU list with sentinel; front = most recent.
type lruList[T any] struct {
	head lruEntry[T] // sentinel
	n    int
}

// touch moves en, owned by owner, to the front (most recently used).
func (l *lruList[T]) touch(en *lruEntry[T], owner T) {
	if l.head.next == nil {
		l.head.next, l.head.prev = &l.head, &l.head
	}
	en.owner = owner
	l.remove(en)
	en.next = l.head.next
	en.prev = &l.head
	l.head.next.prev = en
	l.head.next = en
	l.n++
}

func (l *lruList[T]) remove(en *lruEntry[T]) {
	if en.next == nil {
		return
	}
	en.prev.next = en.next
	en.next.prev = en.prev
	en.next, en.prev = nil, nil
	l.n--
}

// back returns the least recently used entry, or nil.
func (l *lruList[T]) back() *lruEntry[T] {
	if l.n == 0 {
		return nil
	}
	return l.head.prev
}

// lruTouch marks a join status as recently used.
func (e *Engine) lruTouch(st *JoinStatus) { e.statusLRU.touch(&st.lru, st) }

// presTouch marks a resident presence range as recently used.
func (e *Engine) presTouch(pr *presRange) { e.presLRU.touch(&pr.lru, pr) }

// evictIfNeeded enforces the memory limit: the least recently used join
// status goes first, and a presence range only once no status is left.
// Every tracked range is evictable: a join status exists only once
// computed, and a presence range enters its list when its load lands.
func (e *Engine) evictIfNeeded() {
	if e.opts.MemLimit <= 0 {
		return
	}
	for e.s.Bytes() > e.opts.MemLimit {
		if en := e.statusLRU.back(); en != nil {
			e.stats.Evictions++
			e.invalidateStatus(en.owner) // detaching unlinks it
		} else if en := e.presLRU.back(); en != nil {
			e.presLRU.remove(en)
			e.stats.Evictions++
			e.evictPresence(en.owner)
		} else {
			return
		}
	}
}

// LRULen reports the number of evictable ranges tracked, of both kinds
// (for tests).
func (e *Engine) LRULen() int { return e.statusLRU.n + e.presLRU.n }
