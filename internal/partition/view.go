package partition

import (
	"fmt"
	"sort"
	"sync/atomic"

	"pequod/internal/keys"
	"pequod/internal/perrs"
)

// View is one immutable generation of a cluster's shape: the versioned
// partition Map, the serving address of every owner index, and which
// owner indexes are the process holding the view. It is the one fact
// every process must agree on (§2.4's partition function), so it is
// modelled once and each process holds one: a server its shard pool's
// ownership gate, which its mesh loaders, feeds and replica placement
// read too; a client its routing table. A NotOwner error and every
// map-bearing frame carry a *View, and successors replace it atomically.
//
// A view that names no self set (the coordinator's own, or one decoded
// from a reply, which has no self field) owns nothing; WithSelf and For
// produce the per-member form.
type View struct {
	m     *Map
	addrs []string // serving address per owner index; len == m.Servers()
	self  []bool   // per owner index; nil when the view names no self set
	mbrs  []Member
}

// Member is one distinct serving address and the owner indexes it
// serves under the enclosing view.
type Member struct {
	Addr   string
	Owners []int
}

// NewView pairs a map with its per-owner serving addresses. It is the
// one place the "one address per owner" rule is checked.
func NewView(m *Map, addrs []string) (*View, error) {
	if len(addrs) != m.Servers() {
		return nil, fmt.Errorf("partition: %d ranges need %d addresses, have %d",
			m.Servers(), m.Servers(), len(addrs))
	}
	v := &View{m: m, addrs: append([]string(nil), addrs...)}
	at := make(map[string]int, len(addrs))
	for i, a := range v.addrs {
		j, ok := at[a]
		if !ok {
			j = len(v.mbrs)
			at[a] = j
			v.mbrs = append(v.mbrs, Member{Addr: a})
		}
		v.mbrs[j].Owners = append(v.mbrs[j].Owners, i)
	}
	return v, nil
}

// WithSelf returns v as held by the process serving the given owner
// indexes (an empty list: a member that owns nothing yet, or any more).
func (v *View) WithSelf(owners []int) (*View, error) {
	self := make([]bool, len(v.addrs))
	for _, o := range owners {
		if o < 0 || o >= len(self) {
			return nil, fmt.Errorf("partition: self owner %d out of range [0,%d)", o, len(self))
		}
		self[o] = true
	}
	return &View{m: v.m, addrs: v.addrs, self: self, mbrs: v.mbrs}, nil
}

// For returns v as the member at addr holds it: self is every owner
// index addr serves (none when addr is not a member).
func (v *View) For(addr string) *View {
	nv, _ := v.WithSelf(v.OwnersOf(addr)) // a view's own owner indexes are in range
	return nv
}

// Map returns the view's partition map.
func (v *View) Map() *Map { return v.m }

// Addrs returns the serving address per owner index. The slice is
// shared with the view: read-only.
func (v *View) Addrs() []string { return v.addrs }

// OwnerAddr returns the serving address of key's home.
func (v *View) OwnerAddr(key string) string { return v.addrs[v.m.Owner(key)] }

// Members returns the distinct members in first-appearance order — the
// ring replica placement walks. Read-only.
func (v *View) Members() []Member { return v.mbrs }

// OwnersOf returns the owner indexes addr serves (nil when it is not a
// member).
func (v *View) OwnersOf(addr string) []int {
	for _, m := range v.mbrs {
		if m.Addr == addr {
			return m.Owners
		}
	}
	return nil
}

// IsSelf reports whether owner index o is this process.
func (v *View) IsSelf(o int) bool { return v.self != nil && v.self[o] }

// SelfAddr reports whether addr serves some owner index that is this
// process.
func (v *View) SelfAddr(addr string) bool {
	for _, o := range v.OwnersOf(addr) {
		if v.IsSelf(o) {
			return true
		}
	}
	return false
}

// Self returns the owner indexes that are this process (nil when none).
func (v *View) Self() []int {
	var out []int
	for o, s := range v.self {
		if s {
			out = append(out, o)
		}
	}
	return out
}

// Owns reports whether this process is key's home — the per-operation
// ownership check: one Owner lookup and one slice index.
func (v *View) Owns(key string) bool { return v.IsSelf(v.m.Owner(key)) }

// OwnsRange reports whether every key of r is homed at this process:
// every owner Map.Split(r) would name is self, without building the
// pieces (the scan path checks it per piece, under a shard lock).
func (v *View) OwnsRange(r keys.Range) bool {
	if r.Empty() {
		return true
	}
	bounds := v.m.bounds
	for o := v.m.Owner(r.Lo); ; o++ {
		if !v.IsSelf(o) {
			return false
		}
		if o == len(bounds) || (r.Hi != "" && bounds[o] >= r.Hi) {
			return true
		}
	}
}

// Newer reports whether v is strictly newer than o in the (epoch,
// version) total order.
func (v *View) Newer(o *View) bool { return v.m.NewerThan(o.m.epoch, o.m.version) }

// Same reports whether o sits at v's position with v's bounds — a
// republish of the map already held, as opposed to a different map a
// concurrent coordinator minted at the same position.
func (v *View) Same(o *View) bool {
	return Compare(v.m.epoch, v.m.version, o.m.epoch, o.m.version) == 0 && v.m.SameBounds(o.m) == nil
}

// SameShape reports how o's bounds or serving addresses differ from
// v's, whatever their positions; nil when they are identical.
func (v *View) SameShape(o *View) error {
	if err := v.m.SameBounds(o.m); err != nil {
		return err
	}
	for i, a := range v.addrs {
		if a != o.addrs[i] {
			return fmt.Errorf("member %d differs: %q vs %q", i, a, o.addrs[i])
		}
	}
	return nil
}

// Successor mints the view that follows v — bounds served by addrs — at
// the coordinator's epoch (minted at or past v's) and one version on,
// plus skip versions to supersede maps that may or may not have been
// applied in between.
func (v *View) Successor(epoch, skip int64, bounds, addrs []string) (*View, error) {
	m, err := New(bounds...)
	if err != nil {
		return nil, err
	}
	m.epoch, m.version = epoch, v.m.version+1+skip
	return NewView(m, addrs)
}

// Advance installs next in p if it is strictly newer than the view p
// holds (or p holds none), reporting whether it did: the adopt-if-newer
// rule of a holder that follows views it publishes and views it learns
// from replies — the cluster client's routing view. A server's gate
// never learns from a reply (see shard.Pool.ApplyMapUpdate).
func Advance(p *atomic.Pointer[View], next *View) bool {
	for {
		cur := p.Load()
		if cur != nil && !next.Newer(cur) {
			return false
		}
		if p.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// Wire is a View as it travels: the tuple every map-bearing frame, every
// NotOwner reply and meta.json carry. Self is nil where the carrier has
// no self field (replies).
type Wire struct {
	Epoch, Version int64
	Bounds, Peers  []string
	Self           []int
}

// Wire returns v's wire form.
func (v *View) Wire() Wire {
	return Wire{Epoch: v.m.epoch, Version: v.m.version, Bounds: v.m.bounds, Peers: v.addrs, Self: v.Self()}
}

// View validates a wire tuple — bounds strictly increasing, one peer per
// owner, self indexes in range — and builds its View.
func (w Wire) View() (*View, error) {
	m, err := NewEpochVersioned(w.Epoch, w.Version, w.Bounds...)
	if err != nil {
		return nil, err
	}
	v, err := NewView(m, w.Peers)
	if err != nil || w.Self == nil {
		return v, err
	}
	return v.WithSelf(w.Self)
}

// NotOwnerError reports that an operation's keys are not homed at the
// serving process under the current cluster map (a live migration,
// membership change or repair moved them). It carries that process's
// view, so the caller — ultimately the cluster client — adopts it,
// re-routes and retries instead of failing.
type NotOwnerError struct{ View *View }

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("pequod: not the owner of the requested range (cluster map e%d v%d)",
		e.View.m.epoch, e.View.m.version)
}

// Is makes NotOwnerError match the public sentinel (pequod.ErrNotOwner)
// while the carried view stays reachable through errors.As.
func (e *NotOwnerError) Is(target error) bool { return target == perrs.ErrNotOwner }

// DiffAddrs returns the key ranges whose serving *address* differs
// between two views, in key order — meaningful across membership
// changes, where owner counts differ and owner indexes shift. Each
// returned range has a single serving address under either view
// (segments are cut at every split point of either map and merged only
// when contiguous with the same addresses on both sides), so consumers
// may inspect only its Lo. Members adopting a successor drop (with
// eviction semantics) exactly the returned ranges they neither
// extracted nor spliced.
func DiffAddrs(old, new *View) []keys.Range {
	points := append(append([]string(nil), old.m.bounds...), new.m.bounds...)
	sort.Strings(points)
	var out []keys.Range
	lo, prevOld, prevNew := "", "", ""
	for i := 0; i <= len(points); i++ {
		hi := ""
		if i < len(points) {
			hi = points[i]
			if hi == lo { // duplicate split point
				continue
			}
		}
		oa, na := old.OwnerAddr(lo), new.OwnerAddr(lo)
		if oa != na {
			if n := len(out); n > 0 && out[n-1].Hi == lo && prevOld == oa && prevNew == na {
				out[n-1].Hi = hi
			} else {
				out = append(out, keys.Range{Lo: lo, Hi: hi})
			}
			prevOld, prevNew = oa, na
		} else {
			prevOld, prevNew = "", ""
		}
		if hi == "" {
			break
		}
		lo = hi
	}
	return out
}
