// Package server implements the networked Pequod cache server: the RPC
// surface over one core engine, cross-server base-data subscriptions
// with asynchronous update notification (§2.4), and remote/database
// loaders that drive the engine's restart contexts (§3.3).
//
// Concurrency model: a server is one single-writer engine, like the
// paper's event-driven server (internal/shard's one-engine pool holds
// its lock and cluster gate). More cores means more servers, which the
// cluster adds, drains and moves bounds between live (§2.4, Fig 10). Each
// connection's goroutine serves its frames in arrival order (conn.go);
// a read that finds base data loading never holds it — the read's
// continuation waits on its restart context (§3.3) and answers by Seq.
// Per-connection notifier goroutines drain subscription pushes so slow
// subscribers never block the engine.
package server

import (
	"encoding/json"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/durable"
	"pequod/internal/interval"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
	"pequod/internal/shard"
)

// Config configures a Server.
type Config struct {
	// Name identifies the server in logs/stats.
	Name string
	// ID is the server's durable identity — stable across restarts and
	// address changes, surfaced through the stat RPC so coordinators
	// and operators can tell a restarted member from a fresh one.
	// Defaults to Name.
	ID string
	// Engine options (optimization toggles, memory limit).
	Engine core.Options
	// Joins, if non-empty, is installed at startup.
	Joins string
	// DataDir, if non-empty, enables the durable range store: base
	// writes stream to a write-behind log under this directory,
	// periodic snapshots truncate it, and a restart recovers rows and the
	// cluster gate, with the mesh wiring it implies, before serving. Empty
	// (the default) keeps the server purely in-memory with zero
	// durability cost. See internal/durable and DESIGN.md §Durability.
	DataDir string
	// SyncInterval paces the write-behind log's batched fsync
	// (default durable.DefaultSyncInterval). Writes acknowledge from
	// memory; this bounds how much acknowledged data a crash can lose.
	SyncInterval time.Duration
	// SnapshotInterval paces periodic durable snapshots (default
	// DefaultSnapshotInterval). Shorter intervals bound log replay at
	// restart; longer ones reduce background I/O.
	SnapshotInterval time.Duration
	// ScrubInterval paces the background CRC scrub of the committed
	// durable lineage (default DefaultScrubInterval; negative disables).
	// The scrub surfaces mid-lineage corruption through stats and
	// health while replicas that could repair it still exist.
	ScrubInterval time.Duration
	// CompactInterval paces durable log compaction between snapshots
	// (default DefaultCompactInterval; negative disables): sealed
	// segments dominated by dead overwrites are rewritten without them,
	// bounding restart replay on write-heavy ranges.
	CompactInterval time.Duration
}

// subscription is a cross-server base-data subscription (§2.4): the
// paper's "H installs a subscription for S to k"; ours are range-level,
// installed by Scan requests carrying the subscribe flag.
type subscription struct {
	cn *conn
	r  keys.Range
}

// Server is one Pequod cache server.
type Server struct {
	name string
	id   string

	pool *shard.Pool

	smu  sync.Mutex // guards subs, pushes, conn.subs and conn.pushed
	subs *interval.Tree[*subscription]
	// pushes counts forwardChange calls that reached the subscription
	// tree; a conn stamped with the current count has the change.
	pushes uint64
	nsubs  atomic.Int64 // == subs.Len(); lock-free no-subscriber fast path

	load served // the client requests answered (stat `load`)

	ln     net.Listener
	connWG sync.WaitGroup // serve goroutines and their continuations (conn.later)
	cmu    sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	// Distributed mode: mmu serializes the mesh loader's wiring — at the
	// first gate, and at every join install — so no source table a join
	// adds is left without it (see mesh.go). The cluster view the loader
	// and the replicas route by is the pool's gate, the only one this
	// server holds.
	mmu sync.Mutex

	// up is the one connection and feed per peer that mesh loads and
	// replica holds share (upstream.go), and repl the holds' bookkeeping
	// (replica.go), both from New until Close. rmu serializes replica
	// reshapes.
	up   *upstream
	rmu  sync.Mutex
	repl *replicaState

	// The watchdog goroutine (watch), which Close stops and waits for.
	watchStop chan struct{}
	watchDone chan struct{}

	// Durable range store (nil without Config.DataDir); see
	// durability.go. recovery is written once in New, before serving.
	// metaMu serializes persistMeta; saved is the meta it last wrote.
	dur      *durable.Store
	durStop  chan struct{}
	durDone  chan struct{}
	recovery *client.RecoveryStat
	metaMu   sync.Mutex
	saved    *durable.Meta
}

// served counts the client requests a server answers, for a joining
// server's split pick (cluster.AddServer) and pequod-load's hot_share,
// which poll it as the stat reply's `load` block: units is cumulative
// work — one per get, write or removal, one plus the rows returned per
// scan or count — and samples is a ring of the keys those requests
// named, so a quantile of it splits work, not key count. Peers'
// subscribing scans (mesh loads, replica syncs) are not counted: they
// are this cluster's own traffic, and counting them made a member that
// homes popular source rows look hot for work no client asked of it.
type served struct {
	mu      sync.Mutex
	units   int64
	samples [loadSampleRing]string
	pos     int
}

// loadSampleRing is the key-sample capacity (a power of two).
const loadSampleRing = 256

// record notes one answered client request.
func (l *served) record(key string, units int64) {
	l.mu.Lock()
	l.units += units
	l.samples[l.pos&(loadSampleRing-1)] = key
	l.pos++
	l.mu.Unlock()
}

// snapshot is the stat reply's load block.
func (l *served) snapshot() client.ServedLoad {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := client.ServedLoad{Units: l.units}
	for _, k := range l.samples {
		if k != "" {
			out.Samples = append(out.Samples, k)
		}
	}
	return out
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	pool, err := shard.New(shard.Config{Engine: cfg.Engine})
	if err != nil {
		return nil, err
	}
	s := &Server{
		name:  cfg.Name,
		id:    cfg.ID,
		pool:  pool,
		subs:  interval.New[*subscription](),
		conns: make(map[*conn]struct{}),

		watchStop: make(chan struct{}),
		watchDone: make(chan struct{}),
	}
	if s.id == "" {
		s.id = cfg.Name
	}
	s.up = newUpstream(s.replicaKeep, pool.Shard(0).ApplyBatch)
	s.repl = &replicaState{s: s, held: make(map[keys.Range]*replHold)}
	if cfg.Joins != "" {
		if err := pool.InstallText(cfg.Joins); err != nil {
			pool.Close()
			return nil, err
		}
	}
	if cfg.DataDir == "" {
		pool.SetHook(s.forwardChange)
		go s.watch()
		return s, nil
	}
	// Durable mode: recover rows/gate/joins from disk quietly, then set
	// the (logging) hook, then re-apply replicas — the ordering contract
	// is documented in durability.go.
	meta, warm, err := s.recoverDurable(cfg)
	if err != nil {
		pool.Close()
		return nil, err
	}
	s.durStop = make(chan struct{})
	s.durDone = make(chan struct{})
	pool.SetHook(s.durableHook)
	go s.watch()
	s.wireRecovered(meta, warm)
	s.persistMeta()
	every := cfg.SnapshotInterval
	if every <= 0 {
		every = DefaultSnapshotInterval
	}
	go s.snapshotLoop(every)
	return s, nil
}

// Pool exposes the shard pool for embedded use (stats, tests, warm-up).
func (s *Server) Pool() *shard.Pool { return s.pool }

// Bytes returns the approximate memory footprint of the engine.
func (s *Server) Bytes() int64 { return s.pool.Bytes() }

// forwardChange pushes an owner-authoritative change to subscribed
// peers, once per connection however many of its subscriptions the key
// stabs: loads a member made before its replica hold synced leave
// subscriptions behind that overlap the hold's. Called with the
// engine's lock held (from inside mutation), so it only enqueues.
func (s *Server) forwardChange(c core.Change) {
	if c.Op == core.OpEvict {
		// Eviction drops this server's cache, not the data's validity;
		// replicas keep their copies (§2.5).
		return
	}
	if s.nsubs.Load() == 0 {
		// No subscribers: skip the subscription tree entirely so the
		// write path doesn't serialize on a second mutex. A subscription
		// racing in here was installed after this change's snapshot
		// scan, which already included the change.
		return
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	op := rpc.ChangePut
	if c.Op == core.OpRemove {
		op = rpc.ChangeRemove
	}
	s.pushes++
	s.subs.Stab(c.Key, func(en *interval.Entry[*subscription]) bool {
		if cn := en.Val.cn; cn.pushed != s.pushes {
			cn.pushed = s.pushes
			cn.pushNotify(rpc.Change{Op: op, Key: c.Key, Value: c.Value})
		}
		return true
	})
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.cmu.Lock()
	if s.closed {
		s.cmu.Unlock()
		return errors.New("pequod server: closed")
	}
	s.ln = ln
	s.cmu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.cmu.Lock()
			closed := s.closed
			s.cmu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Register under cmu, and not after Close took its snapshot of the
		// connections: one it never closes would hang its connWG.Wait.
		cn := newConn(s, c)
		s.cmu.Lock()
		if s.closed {
			s.cmu.Unlock()
			c.Close()
			return nil
		}
		s.conns[cn] = struct{}{}
		s.connWG.Add(1)
		s.cmu.Unlock()
		go cn.serve()
	}
}

// Start listens on a free loopback port and serves in the background,
// returning the address (test/bench convenience).
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener, all connections, and the shard pool.
func (s *Server) Close() {
	s.cmu.Lock()
	if s.closed {
		s.cmu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for cn := range s.conns {
		conns = append(conns, cn)
	}
	s.cmu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, cn := range conns {
		cn.close()
	}
	s.connWG.Wait()
	if s.dur != nil {
		// Stop the snapshot loop and persist the cluster position one
		// last time.
		close(s.durStop)
		<-s.durDone
		s.persistMeta()
	}
	// The watchdog may be mid-pass against the pool, and replica syncs
	// apply to it; both must be gone before pool.Close below. No sync
	// starts once the holds stop, the ones in flight fail with their
	// connections, and no connection dials again.
	close(s.watchStop)
	<-s.watchDone
	s.repl.stop()
	s.up.closeAll()
	s.repl.syncs.Wait()
	if s.dur != nil {
		// Flush the tail of the log and let go of the directory.
		if err := s.dur.Close(); err != nil {
			log.Printf("pequod server %s: durable close: %v", s.name, err)
		}
	}
	s.pool.Close()
}

// dropConn unregisters a closed connection and its subscriptions.
func (s *Server) dropConn(cn *conn) {
	s.cmu.Lock()
	delete(s.conns, cn)
	s.cmu.Unlock()
	s.smu.Lock()
	for _, en := range cn.subs {
		s.subs.Delete(en)
	}
	s.nsubs.Add(int64(-len(cn.subs)))
	cn.subs = nil
	s.smu.Unlock()
}

// statJSON renders the stat RPC's reply (client.StatSnapshot, the one
// declaration of its schema).
func (s *Server) statJSON() string {
	st := s.pool.Stats()
	spans, oldest := s.pool.StalenessDebt()
	snap := client.StatSnapshot{
		Name: s.name, ID: s.id, Shards: s.pool.NumShards(), Entries: s.pool.Len(),
		Bytes: s.pool.Bytes(), Stats: st,
		Rebalance: s.pool.MigrationStats(), Load: s.load.snapshot(),
		Staleness: client.StaleStat{
			DebtSpans:  spans,
			DebtOldUS:  oldest.Microseconds(),
			BoundedSrv: st.BoundedStaleServes,
			PartialInv: st.PartialInvalidations,
			DirtyRecmp: st.DirtyRecomputes,
		},
		Loads: client.LoadStat{Started: st.LoadsStarted, Batched: st.LoadBatches,
			Failed: st.LoadsFailed, Restarts: st.Restarts},
		NSubs: s.nsubs.Load(),
		Joins: s.pool.InstalledText(),
	}
	if g := s.pool.Gate(); g != nil {
		w := g.Wire()
		snap.Cluster = &client.ClusterStat{
			Epoch: w.Epoch, Version: w.Version, Bounds: w.Bounds, Peers: w.Peers, Self: w.Self,
			Retained: s.pool.RetainedStats().Entries, Replicas: s.repl.snapshot(),
		}
	}
	if s.dur != nil {
		snap.Durable = &client.DurableStat{
			Dir:      s.dur.Dir(),
			Stats:    s.dur.Stats(),
			Recovery: s.recovery,
		}
	}
	out, _ := json.Marshal(snap)
	return string(out)
}

// handle processes one request message, returning the reply: nil for
// one-way messages and for the requests a continuation answers
// (conn.later) — a read that found base data loading, once the data
// lands (conn.park), and a quiesce. A request carrying a deadline
// budget (TimeoutMS) bounds that wait, and the quiesce and ping drains,
// and gets an error reply instead of holding a doomed request open.
func (s *Server) handle(cn *conn, m *rpc.Message) *rpc.Message {
	var dl time.Time // zero = no deadline
	if m.TimeoutMS > 0 {
		dl = time.Now().Add(time.Duration(m.TimeoutMS) * time.Millisecond)
	}
	switch m.Type {
	case rpc.MsgGet, rpc.MsgScan, rpc.MsgCount:
		r, w := s.read(cn, m, cn.kvBuf)
		if w != nil {
			cn.park(m, dl, w)
			return nil
		}
		if r.KVs != nil {
			cn.kvBuf = r.KVs // reuse capacity on the next request
		}
		return r

	case rpc.MsgPut:
		if err := s.pool.Put(m.Key, m.Value); err != nil {
			return errReply(m.Seq, err)
		}
		s.load.record(m.Key, 1)
		return rpc.OKReply(m.Seq)

	case rpc.MsgRemove:
		found, err := s.pool.Remove(m.Key)
		if err != nil {
			return errReply(m.Seq, err)
		}
		s.load.record(m.Key, 1)
		r := rpc.OKReply(m.Seq)
		r.Found = found
		return r

	case rpc.MsgAddJoin:
		if err := s.installJoins(m.Text); err != nil {
			return rpc.ErrReply(m.Seq, err)
		}
		s.persistMeta()
		return rpc.OKReply(m.Seq)

	case rpc.MsgStat:
		r := rpc.OKReply(m.Seq)
		r.Value = s.statJSON()
		return r

	case rpc.MsgQuiesce:
		// It may wait out peer fences and replica syncs: a continuation
		// keeps the failure detector's probes behind it answered.
		cn.later(func() *rpc.Message {
			if err := s.quiesce(dl); err != nil {
				return rpc.ErrReply(m.Seq, err)
			}
			return rpc.OKReply(m.Seq)
		})
		return nil

	case rpc.MsgPing:
		// Drain this connection's queued subscription pushes before
		// replying: the reply then fences delivery — every push enqueued
		// before the ping was handled precedes it in the stream.
		if !cn.drainNotify(dl) {
			return rpc.ErrReply(m.Seq, errDrainDeadline)
		}
		return rpc.OKReply(m.Seq)

	case rpc.MsgSnapshot:
		return s.handleSnapshot(m)

	case rpc.MsgRebuildRange:
		return s.handleRebuildRange(m)

	case rpc.MsgExtractRange, rpc.MsgSpliceRange, rpc.MsgMapUpdate:
		return s.handleMapBearing(m, dl)
	}
	return rpc.ErrReply(m.Seq, errors.New("unknown request"))
}

// read makes a Get, Scan or Count request's one attempt at the pool:
// its reply, or — when base data it needs is still loading — nil and
// the restart context to retry on. buf lends a scan its result capacity.
// The attempt that completes a client read counts its load.
func (s *Server) read(cn *conn, m *rpc.Message, buf []core.KV) (*rpc.Message, *core.LoadWait) {
	maxStale := time.Duration(m.StaleMS) * time.Millisecond // 0 = fully fresh
	r := rpc.OKReply(m.Seq)
	key, units := m.Lo, int64(1)
	var err error
	switch m.Type {
	case rpc.MsgGet:
		key = m.Key
		r.Value, r.Found, err = s.pool.GetBounded(m.Key, maxStale)
	case rpc.MsgScan:
		var sub func(int, keys.Range)
		if m.SubscribeFlag {
			sub = func(_ int, r keys.Range) { s.subscribe(cn, r) }
		}
		r.KVs, err = s.pool.ScanBounded(m.Lo, m.Hi, m.Limit, buf, sub, maxStale)
		units += int64(len(r.KVs))
	default: // MsgCount
		var n int
		n, err = s.pool.CountBounded(m.Lo, m.Hi, maxStale)
		r.Count = int64(n)
		units += r.Count
	}
	if err == nil {
		if !m.SubscribeFlag {
			s.load.record(key, units)
		}
		return r, nil
	}
	if lp, ok := err.(*shard.LoadPending); ok {
		return nil, lp.W
	}
	return errReply(m.Seq, err), nil
}

// subscribe installs cn's subscription to r while the engine's lock is
// still held: the snapshot the scan returned and the subscription's
// update stream meet with no gap (§2.4's atomic snapshot+subscribe). A
// connection holds one subscription per range: a subscriber that
// evicted the range and reloads it is already subscribed, and a second
// entry would push every change to it twice. A closed connection gets
// none: a parked scan's continuation may retry after dropConn, which
// would never remove what it installed.
func (s *Server) subscribe(cn *conn, r keys.Range) {
	s.smu.Lock()
	defer s.smu.Unlock()
	select {
	case <-cn.done:
		return
	default:
	}
	if _, dup := cn.subs[r]; dup {
		return
	}
	if cn.subs == nil {
		cn.subs = make(map[keys.Range]*interval.Entry[*subscription])
	}
	cn.subs[r] = s.subs.Insert(r.Lo, r.Hi, &subscription{cn: cn, r: r})
	// Published while the engine's lock is still held, so its next
	// change sees the subscriber (forwardChange's fast path reads this
	// without smu).
	s.nsubs.Add(1)
}

// errReply maps an error onto the wire: cluster-ownership failures
// become StatusNotOwner replies carrying the server's current map, so
// clients re-route and retry instead of failing.
func errReply(seq uint64, err error) *rpc.Message {
	var noe *partition.NotOwnerError
	if errors.As(err, &noe) {
		return rpc.NotOwnerReply(seq, noe.View)
	}
	return rpc.ErrReply(seq, err)
}

// errDrainDeadline reports a quiesce/ping that could not flush pushes
// in time — typically a subscriber that has stopped reading its socket.
var errDrainDeadline = errors.New("pequod server: deadline exceeded draining subscription pushes")

// quiesce settles replication visible to this server: outbound
// subscription pushes (drained into the sockets), replica syncs still
// landing, and inbound pushes from upstream peers (fenced by pinging
// each peer — the ping reply follows any pushes the peer had queued for
// us, and our reader applies pushes in order). After it returns nil,
// reads here see every write acknowledged before the quiesce request. A
// deadline bounds the socket drains, replica syncs and peer fences (a
// subscriber that stopped reading would otherwise wedge quiesce
// forever).
func (s *Server) quiesce(dl time.Time) error {
	s.cmu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for cn := range s.conns {
		conns = append(conns, cn)
	}
	s.cmu.Unlock()
	for _, cn := range conns {
		if !cn.drainNotify(dl) {
			return errDrainDeadline
		}
	}
	// Fencing the homes makes the post-quiesce replica copies complete —
	// every write acknowledged before the quiesce — the property failover
	// promotion relies on. A sync still dialing its home has no
	// connection to fence yet, so the running syncs land first.
	if err := s.repl.awaitSyncs(dl); err != nil {
		return err
	}
	return fence(s.up.conns(""), dl)
}

// coreChanges converts wire changes to engine changes.
func coreChanges(changes []rpc.Change) []core.Change {
	out := make([]core.Change, len(changes))
	for i, c := range changes {
		op := core.OpPut
		if c.Op == rpc.ChangeRemove {
			op = core.OpRemove
		}
		out[i] = core.Change{Op: op, Key: c.Key, Value: c.Value}
	}
	return out
}
