package cluster

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/join"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
)

// Config describes a cluster: the partition of the key space and the
// member serving each range.
type Config struct {
	// Addrs holds one server address per partition range (len(Bounds)+1
	// entries). The same address may serve several ranges.
	Addrs []string
	// Bounds are the partition split points: range i is
	// [Bounds[i-1], Bounds[i]), with the usual implicit extremes.
	Bounds []string
	// Joins, if non-empty, is installed on every member at New, and the
	// cross-server subscription mesh for its base source tables is
	// wired before New returns.
	Joins string
	// CoordinatorName, if non-empty, derives this client's coordinator
	// identity (the low bits of the epochs it mints — see partition's
	// epoch ordering) by hashing the name: a restarted coordinator with
	// the same name mints epochs in the same identity lane, so its
	// repaired maps order against its own earlier maps by version
	// instead of racing a fresh random identity. Concurrent coordinators
	// need distinct names; the default is a random 31-bit identity.
	CoordinatorName string
	// Replicas is the total number of copies of each range kept across
	// the cluster, counting the serving owner. 0 means the default (2);
	// 1 keeps only the serving copy, disabling replication. Replicas
	// are kept fresh through the subscription mesh and promoted by
	// Repair when their owner dies.
	Replicas int
	// FailoverInterval, if non-zero, starts a failure detector: every
	// interval each member is pinged, and a member that misses
	// FailoverMisses consecutive probes is declared dead and repaired
	// out of the map automatically. Zero leaves failover manual
	// (Repair).
	FailoverInterval time.Duration
	// FailoverMisses is the consecutive probe failures that confirm a
	// death. 0 means the default (3).
	FailoverMisses int
}

// Cluster is a client for a partitioned set of Pequod servers. It is
// also the coordinator for live re-partitioning (migrate.go) and
// elastic membership (membership.go): servers never coordinate among
// themselves, any client can drive a change, and concurrent
// coordinators serialize through the epoch-ordered map versions.
type Cluster struct {
	// v is the cluster's current shape. Live migration and membership
	// changes replace it — either through this client's own coordination
	// or by adopting the newer map carried on a NotOwner reply from a
	// server that has moved on. Operations route against a snapshot and
	// retry on NotOwner, so a stale view costs a round trip, never a
	// wrong result.
	v atomic.Pointer[partition.View]

	// pub is the newest view this client has published with MapUpdate:
	// the configured one at New, then every map it mints. Replica
	// assignments carry only pub, because a member moves its gate on one:
	// a view merely learned from a bounce (v may hold one) can be a
	// transfer source's map from before the splice, which must not reach
	// the destination first. pub may be older than every member's gate; a
	// member then keeps its gate but still takes the assignment's copies
	// and tables.
	pub atomic.Pointer[partition.View]

	// coordID is this client's coordinator identity: the low bits of
	// every epoch it mints, making concurrent coordinators' maps
	// comparable instead of tied (see partition). epoch is the epoch of
	// the client's last mint, ratcheted past every epoch it observes.
	coordID int64
	epoch   atomic.Int64

	// cmu guards conns: two persistent connections per member address —
	// operations, and the control plane (see do) — shared across view
	// generations and dialed on first use. A failed connection is
	// redialed on the next routing decision that needs it; its request
	// count rolls into retiredRPCs so RPCs() stays cumulative across
	// redials.
	cmu         sync.Mutex
	conns       map[connKey]*client.Client
	retiredRPCs int64

	// imu guards the installed-join bookkeeping (Install derives the
	// source-table set from everything installed so far; AddServer
	// replays the texts onto joining members).
	imu       sync.Mutex
	installed []*join.Join
	texts     []string

	// mvmu serializes migrations and membership changes driven through
	// this client.
	mvmu sync.Mutex

	// reb is the client-driven cluster rebalancer (rebalance.go).
	reb rebState

	// copies is the configured total copies per range (owner included);
	// <= 1 disables replication.
	copies int

	// failEvery/failMisses configure the failure detector; monStop and
	// monDone bracket its goroutine's lifetime (failover.go). downPause
	// is the per-attempt wait for unavailable-member retries, scaled at
	// New so the whole budget spans detection plus repair.
	failEvery  time.Duration
	failMisses int
	downPause  time.Duration
	monStop    chan struct{}
	monDone    chan struct{}
	monOnce    sync.Once
}

// New dials every member and, if cfg.Joins is set, installs the joins
// and wires the subscription mesh. On error, connections dialed so far
// are closed.
func New(ctx context.Context, cfg Config) (*Cluster, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: no addresses")
	}
	pmap, err := partition.New(cfg.Bounds...)
	if err != nil {
		return nil, err
	}
	v, err := partition.NewView(pmap, cfg.Addrs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	cl := &Cluster{
		conns:      make(map[connKey]*client.Client),
		copies:     cfg.Replicas,
		failEvery:  cfg.FailoverInterval,
		failMisses: cfg.FailoverMisses,
	}
	if cl.copies == 0 {
		cl.copies = defaultReplicas
	}
	if cl.failMisses <= 0 {
		cl.failMisses = defaultFailMisses
	}
	// The unavailable-retry budget must outlast an automatic failover:
	// detection takes FailoverInterval × FailoverMisses plus the
	// confirming tick, and the repair itself re-probes and publishes.
	// Spread that window (with a second of repair slack) across the
	// retry attempts; without a detector the fixed floor stands, since
	// only a manual Repair can ever route around the death.
	cl.downPause = failPause
	if cl.failEvery > 0 {
		budget := cl.failEvery*time.Duration(cl.failMisses+1) + time.Second
		if p := budget / time.Duration(opRetries-1); p > cl.downPause {
			cl.downPause = p
		}
	}
	if cfg.CoordinatorName != "" {
		cl.coordID = nameCoordID(cfg.CoordinatorName)
	}
	if cl.coordID == 0 {
		cl.coordID = randomCoordID()
	}
	cl.coordID &= epochIDMask
	cl.v.Store(v)
	// An unreachable member must not block the client from starting:
	// Health and Repair exist precisely to deal with a dead member, and
	// both need a running client. Tolerate dial failures as long as at
	// least one member answers; ops routed at the dead ranges surface
	// ErrMemberDown until a repair promotes them elsewhere.
	alive := 0
	var dialErr error
	for _, m := range v.Members() {
		if _, err := cl.conn(ctx, m.Addr); err != nil {
			dialErr = fmt.Errorf("cluster: dial %s: %w", m.Addr, wrapDown("", err))
			continue
		}
		alive++
	}
	if alive == 0 {
		cl.Close()
		return nil, dialErr
	}
	// Publish the cluster view to every member: each learns the
	// versioned map and which owner indexes it serves, and from then on
	// rejects operations outside its ranges with NotOwner — the
	// precondition for live migration to be loss-free. Members that saw
	// a newer map already (another client migrated) keep it; the reply
	// teaches this client the newer map. Unreachable members miss the
	// publish; if they return, they converge at the next map-bearing frame
	// that reaches them — a later publish, or the failure detector's
	// anti-entropy Replicate.
	cl.pub.Store(v)
	for _, m := range v.Members() {
		if err := cl.publishView(ctx, v, m.Addr); err != nil {
			if client.IsUnavailable(err) || errors.Is(err, perrs.ErrMemberDown) {
				continue
			}
			cl.Close()
			return nil, err
		}
	}
	if cfg.Joins != "" {
		if err := cl.Install(ctx, cfg.Joins); err != nil {
			cl.Close()
			return nil, err
		}
	} else if cl.copies > 1 {
		// Install publishes replica assignments itself; without joins,
		// seed them here so base tables replicate from the start.
		cl.publishReplicas(ctx, v, nil)
	}
	if cl.failEvery > 0 {
		cl.monStop = make(chan struct{})
		cl.monDone = make(chan struct{})
		go cl.monitor()
	}
	return cl, nil
}

// epochIDBits splits an epoch into a ratchet round (high bits) and a
// coordinator identity (low bits): two coordinators minting from the
// same parent take the same next round but different identities, so
// their maps are ordered instead of tied.
const epochIDBits = 31

const epochIDMask = (int64(1) << epochIDBits) - 1

// defaultReplicas is the total copies per range when Config.Replicas
// is zero: the owner plus one warm replica.
const defaultReplicas = 2

// defaultFailMisses is the consecutive probe failures that confirm a
// death when Config.FailoverMisses is zero.
const defaultFailMisses = 3

// nameCoordID hashes a durable coordinator name to a non-zero 31-bit
// identity, so a restarted coordinator keeps its epoch lane.
func nameCoordID(name string) int64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	id := int64(h.Sum32()) & epochIDMask
	if id == 0 {
		id = 1
	}
	return id
}

// randomCoordID draws a non-zero 31-bit coordinator identity.
func randomCoordID() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a fixed odd constant; collisions then order
		// arbitrarily but deterministically.
		return 0x2e8ba2e9 & epochIDMask
	}
	id := int64(binary.LittleEndian.Uint64(b[:])) & epochIDMask
	if id == 0 {
		id = 1
	}
	return id
}

// mintEpoch returns the epoch for a successor of a map at cur: the
// client's own epoch when it already leads (its successive moves order
// by version), otherwise the next round stamped with this coordinator's
// identity — strictly above cur, and distinct from what any other
// coordinator mints from the same parent.
func (cl *Cluster) mintEpoch(cur int64) int64 {
	if own := cl.epoch.Load(); own >= cur && own != 0 && own&epochIDMask == cl.coordID {
		return own
	}
	next := (cur>>epochIDBits+1)<<epochIDBits | cl.coordID
	return next
}

// noteEpoch ratchets the client's mint position after publishing (or
// observing) an epoch.
func (cl *Cluster) noteEpoch(e int64) {
	for {
		cur := cl.epoch.Load()
		if cur >= e || cl.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// connKey names a cached connection: a member address, and whether it
// carries the control plane.
type connKey struct {
	addr string
	ctl  bool
}

// conn returns the operations connection to addr (connAt).
func (cl *Cluster) conn(ctx context.Context, addr string) (*client.Client, error) {
	return cl.connAt(ctx, connKey{addr: addr})
}

// connAt returns the connection k names, dialing on first use and
// redialing if a previous connection failed (a member restarted, or a
// drain-test killed it and a later test target reuses the address).
// The dial happens outside cmu — one dead member must not serialize
// every operation to healthy members behind its connect timeout — so
// concurrent callers may race a dial; the loser's connection closes.
func (cl *Cluster) connAt(ctx context.Context, k connKey) (*client.Client, error) {
	cl.cmu.Lock()
	if cl.conns == nil {
		cl.cmu.Unlock()
		return nil, client.ErrClosed
	}
	if c, ok := cl.conns[k]; ok {
		if !c.Failed() {
			cl.cmu.Unlock()
			return c, nil
		}
		delete(cl.conns, k)
		cl.retiredRPCs += c.RPCs()
	}
	cl.cmu.Unlock()
	c, err := client.DialContext(ctx, k.addr)
	if err != nil {
		return nil, err
	}
	cl.cmu.Lock()
	defer cl.cmu.Unlock()
	if cl.conns == nil {
		c.Close()
		return nil, client.ErrClosed
	}
	if cur, ok := cl.conns[k]; ok && !cur.Failed() {
		c.Close() // lost a dial race; use the winner
		return cur, nil
	}
	cl.conns[k] = c
	return c, nil
}

// do sends one request to the member at addr. A frame that moves the
// member's view (rpc.MovesView) goes on its control connection, as the failure
// detector's probes do: a member serves one connection's frames in
// order, and an operation there may be waiting for base data that only
// the view's move lets the member load — a frame queued behind it would
// wait out the operation's deadline, and a probe read the wait as death.
func (cl *Cluster) do(ctx context.Context, addr string, m *rpc.Message) (*rpc.Message, error) {
	c, err := cl.connAt(ctx, connKey{addr, rpc.MovesView(m.Type)})
	if err != nil {
		return nil, err
	}
	return c.Do(ctx, m)
}

// publishView sends member addr the cluster map and its self set. The
// reply carries the map the member actually holds; when that is newer —
// this client started from the deployment's original bounds after
// migrations had already run — the newer map is adopted.
func (cl *Cluster) publishView(ctx context.Context, v *partition.View, addr string) error {
	r, err := cl.do(ctx, addr, &rpc.Message{Type: rpc.MsgMapUpdate, Map: v.For(addr).Wire()})
	if err != nil {
		return fmt.Errorf("cluster: publishing map to %s: %w", addr, err)
	}
	if held, err := r.Map.View(); err == nil {
		cl.adopt(held)
	}
	return nil
}

// Members returns the number of distinct servers in the cluster.
func (cl *Cluster) Members() int { return len(cl.v.Load().Members()) }

// MemberAddrs returns the distinct member addresses under the current
// view, in first-appearance order.
func (cl *Cluster) MemberAddrs() []string {
	mbrs := cl.v.Load().Members()
	out := make([]string, len(mbrs))
	for i, m := range mbrs {
		out[i] = m.Addr
	}
	return out
}

// Map returns the cluster's current partition map (immutable; live
// migration replaces it).
func (cl *Cluster) Map() *partition.Map { return cl.v.Load().Map() }

// Addrs returns the serving address per owner index under the current
// view.
func (cl *Cluster) Addrs() []string { return append([]string(nil), cl.v.Load().Addrs()...) }

// RPCs sums the requests sent across all member connections, including
// connections retired by a redial.
func (cl *Cluster) RPCs() int64 {
	cl.cmu.Lock()
	defer cl.cmu.Unlock()
	n := cl.retiredRPCs
	for _, c := range cl.conns {
		n += c.RPCs()
	}
	return n
}

// Close closes every member connection. The servers themselves are not
// owned by the cluster and keep running.
func (cl *Cluster) Close() error {
	cl.stopMonitor()
	cl.cmu.Lock()
	conns := cl.conns
	cl.conns = nil
	cl.cmu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// opRetries bounds NotOwner re-routing per operation; each retry follows
// an adopted newer map or a short pause (the window between a range
// leaving its old home and landing at its new one), so a retry budget
// this size outlasts any single migration.
const opRetries = 16

// retryPause is the wait before retrying when no newer map was learned.
const retryPause = 2 * time.Millisecond

// adopt advances the client's view to nv if it is newer — one learned
// from a NotOwner reply or a MapUpdate response, or one this client
// itself published — reporting whether it did.
func (cl *Cluster) adopt(nv *partition.View) bool {
	cl.noteEpoch(nv.Map().Epoch())
	return partition.Advance(&cl.v, nv)
}

// failPause is the minimum wait before retrying an operation that
// failed because its member was unreachable. When an automatic failure
// detector is configured, New scales the actual pause (Cluster.
// downPause) from FailoverInterval × FailoverMisses so the full retry
// budget outlasts detection plus repair — fixed constants would
// exhaust in under half a second while a production detector is still
// counting misses.
const failPause = 30 * time.Millisecond

// retryOp handles one routed-operation failure and reports whether the
// caller should retry. A NotOwner bounce adopts the newer map it
// carries and retries — immediately when the routing map changed, after
// a short pause otherwise (the range is mid-transfer, or a lagging
// server has not yet seen our map). An unreachable member retries after
// a longer pause: the failure detector needs time to confirm the death
// and publish a repaired map that routes around it.
func (cl *Cluster) retryOp(ctx context.Context, err error, attempt int) bool {
	if attempt >= opRetries-1 {
		return false
	}
	var noe *partition.NotOwnerError
	if errors.As(err, &noe) {
		return cl.adopt(noe.View) || cl.pause(ctx, retryPause)
	}
	if client.IsUnavailable(err) {
		return cl.pause(ctx, cl.downPause)
	}
	return false
}

// pause sleeps for d unless ctx ends first, reporting whether to keep
// going.
func (cl *Cluster) pause(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// wrapDown marks an exhausted unreachable-member failure with the
// ErrMemberDown sentinel so callers can match it without knowing the
// transport error's concrete type. Other errors pass through.
func wrapDown(addr string, err error) error {
	if err == nil || !client.IsUnavailable(err) {
		return err
	}
	if addr != "" {
		return fmt.Errorf("cluster: member %s: %w: %v", addr, perrs.ErrMemberDown, err)
	}
	return fmt.Errorf("cluster: %w: %v", perrs.ErrMemberDown, err)
}

// doKey sends a point operation to key's home server, re-routing and
// retrying when a live migration moved the key (NotOwner) or its member
// died (the retry budget spans an automatic failover).
func (cl *Cluster) doKey(ctx context.Context, key string, m *rpc.Message) (*rpc.Message, error) {
	for attempt := 0; ; attempt++ {
		addr := cl.v.Load().OwnerAddr(key)
		r, err := cl.do(ctx, addr, m)
		if err == nil || !cl.retryOp(ctx, err, attempt) {
			return r, wrapDown(addr, err)
		}
	}
}

// Get returns the value under key from its home server.
func (cl *Cluster) Get(ctx context.Context, key string) (string, bool, error) {
	m, err := cl.doKey(ctx, key, &rpc.Message{Type: rpc.MsgGet, Key: key})
	if err != nil {
		return "", false, err
	}
	return m.Value, m.Found, nil
}

// Put stores value under key at its home server.
func (cl *Cluster) Put(ctx context.Context, key, value string) error {
	_, err := cl.doKey(ctx, key, &rpc.Message{Type: rpc.MsgPut, Key: key, Value: value})
	return err
}

// Remove deletes key at its home server, reporting whether it existed.
func (cl *Cluster) Remove(ctx context.Context, key string) (bool, error) {
	m, err := cl.doKey(ctx, key, &rpc.Message{Type: rpc.MsgRemove, Key: key})
	if err != nil {
		return false, err
	}
	return m.Found, nil
}

// gather is partition.Gather over the cluster: each piece goes to the
// member homing its low end under the view current when it is sent — a
// member that does not own all of it answers NotOwner — and a failed
// piece starts the whole request over if retryOp says so.
func gather[T any](ctx context.Context, cl *Cluster, lo, hi string, limit int,
	piece func(addr string, pc partition.Shard, limit int) ([]T, error)) ([]T, error) {
	out, err := partition.Gather(cl.Map, keys.Range{Lo: lo, Hi: hi}, limit, false, nil,
		func(pc partition.Shard, limit int, _ []T) ([]T, error) {
			return piece(cl.v.Load().OwnerAddr(pc.R.Lo), pc, limit)
		},
		func(err error, attempt int) bool { return cl.retryOp(ctx, err, attempt) })
	return out, wrapDown("", err)
}

// Scan returns up to limit (0 = all) pairs in [lo, hi) across the
// members homing it (DESIGN.md "A read, end to end").
func (cl *Cluster) Scan(ctx context.Context, lo, hi string, limit int) ([]core.KV, error) {
	return gather(ctx, cl, lo, hi, limit, func(addr string, pc partition.Shard, limit int) ([]core.KV, error) {
		m, err := cl.do(ctx, addr, &rpc.Message{Type: rpc.MsgScan, Lo: pc.R.Lo, Hi: pc.R.Hi, Limit: limit})
		if err != nil {
			return nil, err
		}
		return m.KVs, nil
	})
}

// Count returns the number of keys in [lo, hi): the sum of the members'
// counts of their pieces.
func (cl *Cluster) Count(ctx context.Context, lo, hi string) (total int64, err error) {
	counts, err := gather(ctx, cl, lo, hi, 0, func(addr string, pc partition.Shard, _ int) ([]int64, error) {
		m, err := cl.do(ctx, addr, &rpc.Message{Type: rpc.MsgCount, Lo: pc.R.Lo, Hi: pc.R.Hi})
		if err != nil {
			return nil, err
		}
		return []int64{m.Count}, nil
	})
	for _, n := range counts {
		total += n
	}
	return total, err
}

// batch sends one request per element — pipelined, one round per server,
// all sent before any reply is awaited — and settles each in turn: an
// element whose key migrated mid-batch (NotOwner, after adopting the
// view the bounce carries), or whose member died, is re-sent
// individually through doKey, like an independent caller. each sees the
// replies that settled, in order; the first error is returned after
// every element has.
func (cl *Cluster) batch(ctx context.Context, n int, req func(i int) *rpc.Message, each func(i int, r *rpc.Message)) error {
	v := cl.v.Load()
	futs := make([]*client.Future, n)
	for i := range futs {
		m := req(i)
		if c, err := cl.conn(ctx, v.OwnerAddr(m.Key)); err == nil {
			futs[i] = c.Send(ctx, m)
		} // else: a dead member's elements retry individually below
	}
	var firstErr error
	for i, f := range futs {
		var r *rpc.Message
		err := client.ErrClosed
		if f != nil {
			r, err = client.ReplyWaitCtx(ctx, f)
		}
		var noe *partition.NotOwnerError
		if errors.As(err, &noe) {
			cl.adopt(noe.View)
		}
		if noe != nil || client.IsUnavailable(err) {
			m := req(i)
			r, err = cl.doKey(ctx, m.Key, m)
		}
		if err == nil {
			each(i, r)
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// GetBatch fetches many keys with one pipelined round per server.
// Results align with keys; Found distinguishes missing keys.
func (cl *Cluster) GetBatch(ctx context.Context, getKeys []string) ([]core.Lookup, error) {
	out := make([]core.Lookup, len(getKeys))
	err := cl.batch(ctx, len(getKeys),
		func(i int) *rpc.Message { return &rpc.Message{Type: rpc.MsgGet, Key: getKeys[i]} },
		func(i int, r *rpc.Message) { out[i] = core.Lookup{Value: r.Value, Found: r.Found} })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PutBatch stores many pairs with one pipelined round per server.
// Writes to the same server apply in slice order; writes to different
// servers are concurrent, like independent callers. A pair re-sent after
// its key migrated or its member died can land after a later same-key
// write in the batch, the same last-writer-wins race as two independent
// callers.
func (cl *Cluster) PutBatch(ctx context.Context, pairs []core.KV) error {
	return cl.batch(ctx, len(pairs),
		func(i int) *rpc.Message {
			return &rpc.Message{Type: rpc.MsgPut, Key: pairs[i].Key, Value: pairs[i].Value}
		},
		func(int, *rpc.Message) {})
}

// ScanBatch runs several range scans concurrently, each with its own
// limit budget, returning results aligned with ranges.
func (cl *Cluster) ScanBatch(ctx context.Context, ranges []keys.Range, limit int) ([][]core.KV, error) {
	out := make([][]core.KV, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = cl.Scan(ctx, r.Lo, r.Hi, limit)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Install parses joins, wires the subscription mesh for their base
// source tables, and installs the joins on every member. Wiring comes
// first so no member computes a join before its remote sources are
// loader-backed.
func (cl *Cluster) Install(ctx context.Context, text string) error {
	js, err := join.ParseAll(text)
	if err != nil {
		return err
	}
	cl.imu.Lock()
	defer cl.imu.Unlock()
	all := append(append([]*join.Join(nil), cl.installed...), js...)
	tables := sourceTables(all)
	v := cl.v.Load()
	for _, m := range v.Members() {
		wire := &rpc.Message{Type: rpc.MsgConnectPeers, Map: v.For(m.Addr).Wire(), Tables: tables}
		if _, err := cl.do(ctx, m.Addr, wire); err != nil {
			return fmt.Errorf("cluster: wiring %s: %w", m.Addr, err)
		}
	}
	for _, m := range v.Members() {
		if _, err := cl.do(ctx, m.Addr, &rpc.Message{Type: rpc.MsgAddJoin, Text: text}); err != nil {
			return fmt.Errorf("cluster: installing joins on %s: %w", m.Addr, err)
		}
	}
	cl.installed = all
	cl.texts = append(cl.texts, text)
	// Re-seed replica assignments: the replicated table set just grew.
	// Best-effort — every later map publish re-sends the assignment.
	if cl.copies > 1 {
		cl.publishReplicas(ctx, cl.pub.Load(), tables)
	}
	return nil
}

// joinState snapshots the installed joins for a joining member: the
// concatenated install texts (replayed verbatim, so join indexes agree
// across members) and the base source tables to wire. The cluster
// itself is the authority — a coordinator that never called Install
// (a fresh pequod-cli run driving `add`) asks the member at from for
// the join set its pool reports in stats; the client-local bookkeeping
// is the fallback when that member is unreachable.
func (cl *Cluster) joinState(ctx context.Context, from string) (text string, tables []string) {
	if c, err := cl.conn(ctx, from); err == nil {
		if st, err := c.StatSnapshot(ctx); err == nil && st.Joins != "" {
			if js, err := join.ParseAll(st.Joins); err == nil {
				return st.Joins, sourceTables(js)
			}
		}
	}
	cl.imu.Lock()
	defer cl.imu.Unlock()
	for i, t := range cl.texts {
		if i > 0 {
			text += "\n"
		}
		text += t
	}
	return text, sourceTables(cl.installed)
}

// sourceTables returns the base source tables of a join set: sources
// that are not themselves some join's output (those are computed
// locally, recursively, wherever they are needed) — the same rule
// shard.Pool uses to pick its forwarded tables.
func sourceTables(js []*join.Join) []string {
	outputs := map[string]bool{}
	for _, j := range js {
		outputs[j.Out.Table()] = true
	}
	seen := map[string]bool{}
	var tables []string
	for _, j := range js {
		for _, t := range j.SourceTables() {
			if !outputs[t] && !seen[t] {
				seen[t] = true
				tables = append(tables, t)
			}
		}
	}
	return tables
}

// Stats sums the engine counters across all members. A member that
// cannot be reached does not zero the aggregate: the counters collected
// from the live members are returned alongside the first failure, so a
// monitoring caller still sees the surviving cluster's activity.
func (cl *Cluster) Stats(ctx context.Context) (core.Stats, error) {
	var total core.Stats
	var firstErr error
	for _, m := range cl.v.Load().Members() {
		c, err := cl.conn(ctx, m.Addr)
		if err == nil {
			var st core.Stats
			st, err = c.Stats(ctx)
			if err == nil {
				total.Add(st)
				continue
			}
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("cluster: stats from %s: %w", m.Addr, wrapDown("", err))
		}
	}
	return total, firstErr
}

// Quiesce blocks until replication across the cluster has settled: each
// member settles its in-process forwarding, drains its outbound
// subscription pushes, and fences the pushes in flight toward it (see
// client.Quiesce). After it returns, reads anywhere in the cluster see
// every write acknowledged before the call.
func (cl *Cluster) Quiesce(ctx context.Context) error {
	mbrs := cl.v.Load().Members()
	errs := make([]error, len(mbrs))
	var wg sync.WaitGroup
	for i, m := range mbrs {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := cl.conn(ctx, m.Addr)
			if err == nil {
				err = c.Quiesce(ctx)
			}
			if err != nil {
				errs[i] = fmt.Errorf("cluster: quiesce at %s: %w", m.Addr, wrapDown("", err))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetSubtableDepth marks a §4.1 natural key boundary on every member.
func (cl *Cluster) SetSubtableDepth(ctx context.Context, table string, depth int) error {
	for _, m := range cl.v.Load().Members() {
		if _, err := cl.do(ctx, m.Addr, &rpc.Message{Type: rpc.MsgSetSubtable, Table: table, Depth: depth}); err != nil {
			return err
		}
	}
	return nil
}
