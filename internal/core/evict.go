package core

// Eviction (§2.5): "an overloaded Pequod server simply evicts the least
// recently used data ranges." Evictable units are join status ranges
// (computed data) and presence ranges (cached base / remote data); both
// carry an intrusive lruEntry. Eviction removes the range's data,
// uninstalls its bookkeeping, and invalidates dependents transitively.

// lruEntry is an intrusive doubly-linked list node.
type lruEntry struct {
	prev, next *lruEntry
	owner      any // *JoinStatus or *presRange
}

// lruList is a doubly-linked LRU list with sentinel; front = most recent.
type lruList struct {
	head lruEntry // sentinel
	n    int
}

func (l *lruList) init() {
	if l.head.next == nil {
		l.head.next = &l.head
		l.head.prev = &l.head
	}
}

func (l *lruList) moveFront(en *lruEntry) {
	l.init()
	if en.next != nil { // linked: unlink first
		en.prev.next = en.next
		en.next.prev = en.prev
		l.n--
	}
	en.next = l.head.next
	en.prev = &l.head
	l.head.next.prev = en
	l.head.next = en
	l.n++
}

func (l *lruList) remove(en *lruEntry) {
	if en.next == nil {
		return
	}
	en.prev.next = en.next
	en.next.prev = en.prev
	en.next, en.prev = nil, nil
	l.n--
}

func (l *lruList) back() *lruEntry {
	l.init()
	if l.head.prev == &l.head {
		return nil
	}
	return l.head.prev
}

// lruTouch marks a join status as recently used.
func (e *Engine) lruTouch(st *JoinStatus) {
	st.lru.owner = st
	e.lru.moveFront(&st.lru)
}

// lruTouch2 marks any evictable as recently used.
func (e *Engine) lruTouch2(en *lruEntry, owner any) {
	en.owner = owner
	e.lru.moveFront(en)
}

// lruRemove unlinks a join status from the LRU.
func (e *Engine) lruRemove(st *JoinStatus) { e.lru.remove(&st.lru) }

// evictIfNeeded enforces the memory limit by evicting LRU ranges. Every
// tracked range is evictable: a join status exists only once computed,
// and a presence range enters the list when its load lands.
func (e *Engine) evictIfNeeded() {
	if e.opts.MemLimit <= 0 {
		return
	}
	for e.s.Bytes() > e.opts.MemLimit {
		en := e.lru.back()
		if en == nil {
			return
		}
		e.lru.remove(en)
		e.stats.Evictions++
		switch v := en.owner.(type) {
		case *JoinStatus:
			e.invalidateStatus(v)
		case *presRange:
			e.evictPresence(v)
		}
	}
}

// LRULen reports the number of evictable ranges tracked (for tests).
func (e *Engine) LRULen() int { return e.lru.n }
