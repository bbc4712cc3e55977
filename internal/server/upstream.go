package server

// One way to keep a remote copy fresh (§2.4): a subscription installed
// atomically with the snapshot it follows. A join-source range loaded
// over the mesh and a failover replica of a peer's range are both that
// copy; they keep the same keys (Server.homedAt: those the gate still
// homes at the feed's peer) and differ only in where rows land (apply).
// upstream is the connection cache, feed the snapshot/push ordering,
// and peer.fetch the snapshot round they share.

import (
	"errors"
	"strings"
	"sync"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/rpc"
)

// homedAt is the keep rule of both feed sinks: the gate names addr as
// key's home. A peer address is never this member's own, so a key the
// gate makes this member's — a promotion, a splice — stops flowing from
// the old home at once, and a late delivery cannot clobber a local
// write. Feeds exist only on a gated member: a mesh implies a gate, and
// replica holds derive from it.
func (s *Server) homedAt(addr, key string) bool { return s.pool.Gate().OwnerAddr(key) == addr }

// upstream caches one connection and feed per peer address.
type upstream struct {
	keep  func(addr, key string) bool // is addr still this copy's source for key?
	apply func([]core.Change)         // sink for pushed changes

	mu     sync.Mutex
	peers  map[string]*peer
	lost   map[string]bool // addresses whose connection died, until retireFailed reports them
	closed bool
}

// peer is one cached connection and the feed ordering its pushes.
type peer struct {
	c    *client.Client
	feed *feed
}

func newUpstream(keep func(addr, key string) bool, apply func([]core.Change)) *upstream {
	return &upstream{keep: keep, apply: apply, peers: make(map[string]*peer), lost: make(map[string]bool)}
}

var errUpstreamClosed = errors.New("pequod server: upstream closed")

// conn returns the connection to addr, dialing on first use and
// redialing when the cached one failed (the peer restarted, or the
// transport reset). The subscriptions a failed connection carried died
// with it, so its address is remembered for retireFailed: whatever they
// kept fresh must be invalidated even though the redial hides the
// failure from the next caller.
func (u *upstream) conn(addr string) (*peer, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, errUpstreamClosed
	}
	if p, ok := u.peers[addr]; ok {
		if !p.c.Failed() {
			return p, nil
		}
		u.dropLocked(addr)
		u.lost[addr] = true
	}
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	p := &peer{c: c, feed: &feed{
		keep:  func(key string) bool { return u.keep(addr, key) },
		apply: u.apply,
	}}
	c.OnNotify = p.feed.notify
	u.peers[addr] = p
	return p, nil
}

func (u *upstream) dropLocked(addr string) {
	u.peers[addr].c.Close()
	delete(u.peers, addr)
}

// retain keeps only the connections to addresses in want, closing the
// rest (members that left, homes no longer copied from).
func (u *upstream) retain(want map[string]bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for addr := range u.peers {
		if !want[addr] {
			u.dropLocked(addr)
		}
	}
}

// retireFailed closes and forgets connections whose peer process went
// away and returns every address that lost a connection since the last
// call, so the watchdog can invalidate what their subscriptions kept
// fresh.
func (u *upstream) retireFailed() []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	for addr, p := range u.peers {
		if p.c.Failed() {
			u.dropLocked(addr)
			u.lost[addr] = true
		}
	}
	var out []string
	for addr := range u.lost {
		out = append(out, addr)
		delete(u.lost, addr)
	}
	return out
}

// conns snapshots the live connections by address, for fences: a ping
// reply is ordered after any pushes the peer had queued on the socket.
func (u *upstream) conns() map[string]*client.Client {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[string]*client.Client, len(u.peers))
	for addr, p := range u.peers {
		out[addr] = p.c
	}
	return out
}

// closeAll closes every connection for good: later conn calls fail
// instead of redialing behind a teardown.
func (u *upstream) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closed = true
	for addr := range u.peers {
		u.dropLocked(addr)
	}
}

// feed serializes one peer connection's subscription stream against the
// snapshot scans that install its subscriptions. A snapshot's reply and
// the pushes for mutations after it race on the wire in either order
// (the push queue and the reply path are separate writers at the peer),
// so the subscriber buffers pushes that overlap an in-flight snapshot
// and applies them after it: the snapshot — strictly older than every
// push, because it is taken atomically with the subscription install —
// can then never clobber a newer pushed value. Both notify and the
// snapshot callback run on the peer client's reader goroutine; the
// mutex covers registration from the fetching goroutine.
//
// The feed also guards against stale deliveries from a peer that
// stopped being the source: pushes and snapshot rows are discarded when
// keep says their keys no longer come from this peer, so an in-flight
// delivery from an old owner cannot overwrite a newer value written at
// (and replicated from) the new one.
type feed struct {
	keep   func(key string) bool
	apply  func([]core.Change)
	mu     sync.Mutex
	pieces []*piece
}

// piece is one in-flight snapshot range with its outcome and the pushes
// buffered behind it.
type piece struct {
	r      keys.Range
	reply  *rpc.Message // the scan's reply; nil if the transport died first
	failed bool         // refused, or the connection died under the round
	buf    []core.Change
	landed bool // released from the feed (guarded by feed.mu)
}

// rows appends to dst the snapshot rows keep still wants (none from a
// failed piece), each copied out of the reply: a decoded reply's rows
// share one string, and a row kept in the store must not keep the whole
// frame alive.
func (fd *feed) rows(dst []core.KV, p *piece) []core.KV {
	if p.failed {
		return dst
	}
	for _, kv := range p.reply.KVs {
		if fd.keep(kv.Key) {
			dst = append(dst, core.KV{Key: strings.Clone(kv.Key), Value: strings.Clone(kv.Value)})
		}
	}
	return dst
}

// register enters snapshot ranges before their scans are sent, so a
// push racing ahead of a reply is buffered rather than applied early.
func (fd *feed) register(pieces []*piece) {
	fd.mu.Lock()
	fd.pieces = append(fd.pieces, pieces...)
	fd.mu.Unlock()
}

// notify is the connection's OnNotify: changes keep rejects are
// dropped, changes overlapping an in-flight snapshot are buffered
// behind it, the rest apply immediately.
func (fd *feed) notify(changes []rpc.Change) {
	all := coreChanges(changes)
	out := all[:0]
	for _, c := range all {
		if fd.keep(c.Key) {
			out = append(out, c)
		}
	}
	fd.mu.Lock()
	if len(fd.pieces) > 0 {
		direct := out[:0]
	next:
		for _, c := range out {
			for _, p := range fd.pieces {
				if p.r.Contains(c.Key) {
					p.buf = append(p.buf, c)
					continue next
				}
			}
			direct = append(direct, c)
		}
		out = direct
	}
	fd.mu.Unlock()
	if len(out) > 0 {
		fd.apply(out)
	}
}

// release unregisters a round's pieces once their snapshots have been
// applied, returning the pushes that were buffered behind the ones that
// landed, in arrival order. Pushes were filtered on arrival, but keep
// may have flipped since they were buffered — they are re-checked. A
// failed piece's pushes are dropped with it: the retry re-snapshots.
func (fd *feed) release(pieces []*piece) []core.Change {
	fd.mu.Lock()
	for _, p := range pieces {
		p.landed = true
	}
	kept := fd.pieces[:0]
	for _, p := range fd.pieces {
		if !p.landed {
			kept = append(kept, p)
		}
	}
	clear(fd.pieces[len(kept):])
	fd.pieces = kept
	fd.mu.Unlock()
	var out []core.Change
	for _, p := range pieces {
		if p.failed {
			continue
		}
		for _, c := range p.buf {
			if fd.keep(c.Key) {
				out = append(out, c)
			}
		}
	}
	return out
}

// fetch runs one snapshot+subscribe round: one subscribing scan per
// piece as pipelined frames behind one flush. The replies arrive on the
// connection's reader goroutine, in order with its pushes, and the last
// one lands the round: land applies the snapshots (feed.rows), then the
// pushes buffered behind them follow. If the connection dies under the
// round every piece fails, landed replies included — the peer's process
// took the round's subscriptions with it. pieces must be non-empty.
func (p *peer) fetch(pieces []*piece, land func()) {
	var mu sync.Mutex
	left, dead := len(pieces), false
	ranges := make([]keys.Range, len(pieces))
	for i, pc := range pieces {
		ranges[i] = pc.r
	}
	p.feed.register(pieces)
	p.c.ScanSubBatch(ranges, func(i int, m *rpc.Message, err error) {
		pieces[i].reply = m
		pieces[i].failed = err != nil || m.Status != rpc.StatusOK
		mu.Lock()
		dead = dead || err != nil
		left--
		last := left == 0
		mu.Unlock()
		if !last {
			return
		}
		for _, pc := range pieces {
			pc.failed = pc.failed || dead
		}
		land()
		if pushes := p.feed.release(pieces); len(pushes) > 0 {
			p.feed.apply(pushes)
		}
	})
}
