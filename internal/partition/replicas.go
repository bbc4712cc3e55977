package partition

// Replica placement: which members hold warm copies of a range owned
// by another member. Placement is a pure function of the view and the
// replica count, so the coordinator that publishes assignments and the
// members that derive their own replica sets from them can never
// disagree — both walk the same ring (Members) of the same view.

// ReplicaAddrs returns the member addresses holding replica copies of
// the range at owner index `owner`: the next copies-1 distinct members
// after the owner in ring order. copies counts total copies including
// the owner's serving copy, so copies <= 1 (or a single-member cluster)
// yields nil — no replication.
func (v *View) ReplicaAddrs(owner, copies int) []string {
	ring := v.mbrs
	if copies <= 1 || len(ring) < 2 {
		return nil
	}
	copies = min(copies, len(ring))
	start := 0
	for i, m := range ring {
		if m.Addr == v.addrs[owner] {
			start = i
			break
		}
	}
	out := make([]string, 0, copies-1)
	for i := 1; i < copies; i++ {
		out = append(out, ring[(start+i)%len(ring)].Addr)
	}
	return out
}

// ReplicaHolds returns the owner indexes whose ranges this process
// holds a replica copy of under copies total copies: served by another
// member, with this process among its ReplicaAddrs.
func (v *View) ReplicaHolds(copies int) []int {
	var out []int
	for o, home := range v.addrs {
		if v.SelfAddr(home) {
			continue // we serve it; nothing to copy
		}
		for _, a := range v.ReplicaAddrs(o, copies) {
			if v.SelfAddr(a) {
				out = append(out, o)
				break
			}
		}
	}
	return out
}
