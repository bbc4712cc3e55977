// Package server implements the networked Pequod cache server: the RPC
// surface over a sharded pool of core engines, cross-server base-data
// subscriptions with asynchronous update notification (§2.4), and
// remote/database loaders that drive the engines' restart contexts
// (§3.3).
//
// Concurrency model: each engine is single-writer like the paper's
// event-driven server, but the server hosts Config.Shards of them,
// partitioned by key range (internal/shard). Requests lock only the
// shard owning their key; cross-shard scans fan out concurrently, so a
// multi-core machine serves reads from all cores instead of behind one
// global mutex. Per-connection goroutines handle framing, and
// per-connection notifier goroutines drain subscription pushes so slow
// subscribers never block an engine.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	// Engine options (optimization toggles, memory limit). A MemLimit is
	// split evenly across the shards.
	Engine core.Options
	// Joins, if non-empty, is installed at startup.
	Joins string
	// SubtableDepths configures §4.1 boundaries at startup.
	SubtableDepths map[string]int
	// Shards is the number of in-process engines (default 1). Serving
	// scales with shards when Bounds matches the workload's key
	// distribution.
	Shards int
	// Bounds are the partition split points between shards
	// (len = Shards-1); see shard.Config.
	Bounds []string
	// Rebalance, when non-nil, enables load-aware shard rebalancing:
	// hot key ranges migrate live between neighboring shards, so the
	// initial Bounds need not anticipate the workload's skew. See
	// shard.Rebalance for the knobs.
	Rebalance *shard.Rebalance
	// DataDir, if non-empty, enables the durable range store: base
	// writes stream to a write-behind log under this directory,
	// periodic snapshots truncate it, and a restart recovers rows, the
	// cluster gate, and mesh wiring from disk before serving. Empty
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

	smu   sync.Mutex // guards subs and conn.subs
	subs  *interval.Tree[*subscription]
	nsubs atomic.Int64 // == subs.Len(); lock-free no-subscriber fast path

	ln     net.Listener
	connWG sync.WaitGroup
	cmu    sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	// Distributed mode: the mesh wiring installed by ConnectMesh or a
	// JoinCluster RPC (guarded by mmu).
	mmu  sync.Mutex
	mesh *meshState

	// Replica assignment installed by MsgReplicate (guarded by rmu);
	// nil until a coordinator publishes one. See replica.go.
	rmu  sync.Mutex
	repl *replicaState

	// The watchdog goroutine (watch): wmu is held across each pass, so
	// a teardown can wait out one in flight.
	wmu       sync.Mutex
	watchStop chan struct{}
	watchDone chan struct{}

	// Durable range store (nil without Config.DataDir); see
	// durability.go. recovery is written once in New, before serving.
	dur      *durable.Store
	durStop  chan struct{}
	durDone  chan struct{}
	recovery *client.RecoveryStat

	// The post-restart mesh rewire (retryMesh), when recovery had to
	// leave one running: leaveCluster stops it and waits for it. rewire
	// (guarded by mmu) is the recovered record it is wiring from, which
	// buildMeta keeps saving until the mesh exists or the member leaves.
	rewireStop context.CancelFunc
	rewireDone chan struct{}
	rewire     *durable.Meta
}

// meshState records a server's position in a partitioned mesh so later
// ConnectMesh calls (a join installed at runtime adding source tables)
// can reuse the dialed peer connections. view is the mesh's current
// cluster view, shared with every loader and advanced when a live
// migration or membership change publishes a successor. Peer connections
// are keyed by *address* (one per shard per peer), so they survive owner
// indexes shifting when a member joins or drains; advance resizes the
// connection set when the member list itself changes.
type meshState struct {
	view    atomic.Pointer[partition.View]
	loaders []*remoteLoader // one per shard
	tables  map[string]bool
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	pool, err := shard.New(shard.Config{
		Shards:    cfg.Shards,
		Bounds:    cfg.Bounds,
		Engine:    cfg.Engine,
		Rebalance: cfg.Rebalance,
	})
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
	for t, d := range cfg.SubtableDepths {
		pool.SetSubtableDepth(t, d)
	}
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
	// the (logging) hook, then re-wire mesh and replicas — the ordering
	// contract is documented in durability.go.
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

// Bytes returns the approximate memory footprint across all shards.
func (s *Server) Bytes() int64 { return s.pool.Bytes() }

// forwardChange pushes an owner-authoritative change to subscribed
// peers. Called with the owning shard's lock held (from inside engine
// mutation), so it only enqueues.
func (s *Server) forwardChange(_ int, c core.Change) {
	if c.Op == core.OpEvict {
		// Eviction drops this server's cache, not the data's validity;
		// replicas keep their copies (§2.5).
		return
	}
	if s.nsubs.Load() == 0 {
		// No subscribers: skip the subscription tree entirely so shards'
		// write paths don't re-serialize on one mutex. A subscription
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
	s.subs.Stab(c.Key, func(en *interval.Entry[*subscription]) bool {
		en.Val.cn.pushNotify(rpc.Change{Op: op, Key: c.Key, Value: c.Value})
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
	// Snapshot the cluster position now, while the mesh and replica
	// assignment are still live: the meta persisted at close is what a
	// warm restart rewires from, and capturing it after the teardown
	// below would record HasMesh=false — leaving the restarted member's
	// join sources loader-less (cold compute would silently serve empty
	// ranges).
	var finalMeta *durable.Meta
	if s.dur != nil {
		finalMeta = s.buildMeta()
	}
	// The watchdog may be mid-pass against the pool, and replica syncs
	// apply to it; both must be gone before pool.Close below.
	close(s.watchStop)
	<-s.watchDone
	s.leaveCluster()
	if s.dur != nil {
		// Stop the snapshot loop, persist the final cluster position (a
		// drained member's post-drain map must survive restart; the
		// pre-teardown snapshot keeps the mesh and replica record), flush
		// the tail of the log, and let go of the directory.
		close(s.durStop)
		<-s.durDone
		if err := s.dur.SaveMeta(finalMeta); err != nil {
			log.Printf("pequod server %s: persist meta: %v", s.name, err)
		}
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
		Rebalance: s.pool.RebalanceStats(), Load: s.pool.LoadInfo(),
		Staleness: client.StaleStat{
			LagUS:      s.pool.MaxLag(time.Now()).Microseconds(),
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
		cs := &client.ClusterStat{
			Epoch: w.Epoch, Version: w.Version, Bounds: w.Bounds, Peers: w.Peers, Self: w.Self,
			Retained: s.pool.RetainedStats().Entries,
		}
		s.rmu.Lock()
		if s.repl != nil {
			cs.Replicas = s.repl.snapshot()
		}
		s.rmu.Unlock()
		snap.Cluster = cs
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

// handle processes one request message, returning the reply (nil for
// one-way messages). Blocking on outstanding base-data loads (§3.3)
// happens inside the pool, per shard; a request carrying a deadline
// budget (TimeoutMS) bounds that blocking and gets an error reply
// instead of holding a doomed request open.
func (s *Server) handle(cn *conn, m *rpc.Message) *rpc.Message {
	var dl time.Time // zero = no deadline
	if m.TimeoutMS > 0 {
		dl = time.Now().Add(time.Duration(m.TimeoutMS) * time.Millisecond)
	}
	// Staleness budget for bounded reads (0 = fully fresh). Decoded once
	// here; only the read handlers below consume it.
	maxStale := time.Duration(m.StaleMS) * time.Millisecond
	switch m.Type {
	case rpc.MsgGet:
		v, found, err := s.pool.GetBounded(m.Key, maxStale, dl)
		if err != nil {
			return errReply(m.Seq, err)
		}
		r := rpc.OKReply(m.Seq)
		r.Value, r.Found = v, found
		return r

	case rpc.MsgPut:
		if err := s.pool.Put(m.Key, m.Value); err != nil {
			return errReply(m.Seq, err)
		}
		return rpc.OKReply(m.Seq)

	case rpc.MsgRemove:
		found, err := s.pool.Remove(m.Key)
		if err != nil {
			return errReply(m.Seq, err)
		}
		r := rpc.OKReply(m.Seq)
		r.Found = found
		return r

	case rpc.MsgScan:
		var sub func(int, keys.Range)
		if m.SubscribeFlag {
			// Install one subscription per shard piece, while that
			// piece's shard lock is still held: the snapshot the scan
			// returned and the subscription's update stream meet with no
			// gap (§2.4's atomic snapshot+subscribe). A connection holds
			// one subscription per range: a subscriber that evicted the
			// range and reloads it is already subscribed, and a second
			// entry would push every change to it twice.
			sub = func(_ int, r keys.Range) {
				s.smu.Lock()
				defer s.smu.Unlock()
				if _, dup := cn.subs[r]; dup {
					return
				}
				if cn.subs == nil {
					cn.subs = make(map[keys.Range]*interval.Entry[*subscription])
				}
				cn.subs[r] = s.subs.Insert(r.Lo, r.Hi, &subscription{cn: cn, r: r})
				// Published while the piece's shard lock is still held,
				// so the owning shard's next change sees the subscriber
				// (forwardChange's fast path reads this without smu).
				s.nsubs.Add(1)
			}
		}
		kvs, err := s.pool.ScanBounded(m.Lo, m.Hi, m.Limit, cn.kvBuf, sub, maxStale, dl)
		if err != nil {
			return errReply(m.Seq, err)
		}
		cn.kvBuf = kvs // reuse capacity on the next request
		r := rpc.OKReply(m.Seq)
		r.KVs = kvs // rpc.KV aliases core.KV; no per-element conversion
		return r

	case rpc.MsgCount:
		n, err := s.pool.CountBounded(m.Lo, m.Hi, maxStale, dl)
		if err != nil {
			return errReply(m.Seq, err)
		}
		r := rpc.OKReply(m.Seq)
		r.Count = int64(n)
		return r

	case rpc.MsgAddJoin:
		if err := s.pool.InstallText(m.Text); err != nil {
			return rpc.ErrReply(m.Seq, err)
		}
		s.persistMeta()
		return rpc.OKReply(m.Seq)

	case rpc.MsgNotify:
		// Change batch from a peer (home-server subscription push) or
		// from a write-around database feed: apply as base writes.
		s.ApplyChanges(m.Changes)
		return nil // one-way

	case rpc.MsgStat:
		r := rpc.OKReply(m.Seq)
		r.Value = s.statJSON()
		return r

	case rpc.MsgSetSubtable:
		s.pool.SetSubtableDepth(m.Table, m.Depth)
		return rpc.OKReply(m.Seq)

	case rpc.MsgQuiesce:
		if err := s.quiesce(dl); err != nil {
			return rpc.ErrReply(m.Seq, err)
		}
		return rpc.OKReply(m.Seq)

	case rpc.MsgPing:
		// Drain this connection's queued subscription pushes before
		// replying: the reply then fences delivery — every push enqueued
		// before the ping was handled precedes it in the stream.
		if !cn.drainNotify(dl) {
			return rpc.ErrReply(m.Seq, errDrainDeadline)
		}
		return rpc.OKReply(m.Seq)

	case rpc.MsgConnectPeers, rpc.MsgExtractRange, rpc.MsgSpliceRange, rpc.MsgMapUpdate, rpc.MsgJoinCluster, rpc.MsgReplicate:
		return s.handleMapBearing(m, dl)

	case rpc.MsgDrain:
		return s.handleDrain(m)

	case rpc.MsgSnapshot:
		return s.handleSnapshot(m)

	case rpc.MsgRebuildRange:
		return s.handleRebuildRange(m)
	}
	return rpc.ErrReply(m.Seq, errors.New("unknown request"))
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

// quiesce settles replication visible to this server: in-process shard
// forwarding, outbound subscription pushes (drained into the sockets),
// and inbound pushes from upstream peers (fenced by pinging each peer —
// the ping reply follows any pushes the peer had queued for us, and our
// reader applies pushes in order). After it returns nil, reads here see
// every write acknowledged before the quiesce request. A deadline
// bounds the socket drains and peer fences (a subscriber that stopped
// reading would otherwise wedge quiesce forever); the in-process
// pool.Quiesce is not network-dependent and settles on its own.
func (s *Server) quiesce(dl time.Time) error {
	s.pool.Quiesce()
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
	s.mmu.Lock()
	var peers []*client.Client
	if s.mesh != nil {
		peers = s.mesh.allConns("")
	}
	s.mmu.Unlock()
	s.rmu.Lock()
	if s.repl != nil {
		// Replica homes are upstream peers too: fencing them makes the
		// post-quiesce replica copies complete — every write acknowledged
		// before the quiesce — the property failover promotion relies on.
		for _, c := range s.repl.up.conns() {
			peers = append(peers, c)
		}
	}
	s.rmu.Unlock()
	ctx := context.Background()
	if !dl.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	for _, p := range peers {
		// A transport error means a dead peer, which cannot owe us
		// pushes; a context error means the deadline cut the fence
		// short, which quiesce must report.
		if err := p.Ping(ctx); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	s.pool.Quiesce()
	return nil
}

// ApplyChanges applies replicated changes to their owning shards
// (thread-safe).
func (s *Server) ApplyChanges(changes []rpc.Change) {
	s.pool.Apply(coreChanges(changes))
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

// --- connection ---

type conn struct {
	s  *Server
	c  net.Conn
	bw *bufio.Writer

	wmu     sync.Mutex // guards bw
	scratch []byte

	// Scan result buffer, reused across this connection's requests:
	// request handling is sequential per connection and the reply is
	// fully encoded before the next request is read, so reuse is safe
	// (the reply aliases it directly — rpc.KV is core.KV).
	kvBuf []core.KV

	// notify queue drained by the notifier goroutine; nbusy marks a
	// batch mid-write so drainNotify can wait for bytes to reach the
	// socket, not just the queue to empty
	nmu     sync.Mutex
	ncond   *sync.Cond
	nqueue  []rpc.Change
	nbusy   bool
	nclosed bool

	subs map[keys.Range]*interval.Entry[*subscription] // guarded by s.smu
}

func newConn(s *Server, c net.Conn) *conn {
	cn := &conn{s: s, c: c, bw: bufio.NewWriterSize(c, 64<<10)}
	cn.ncond = sync.NewCond(&cn.nmu)
	return cn
}

func (cn *conn) serve() {
	defer cn.s.connWG.Done()
	defer cn.s.dropConn(cn)
	defer cn.close()
	go cn.notifyLoop()
	br := bufio.NewReaderSize(cn.c, 64<<10)
	var scratch []byte
	for {
		m, sc, err := rpc.ReadMessage(br, scratch)
		if err != nil {
			return
		}
		scratch = sc
		if r := cn.s.handle(cn, m); r != nil {
			// Batch flushes across pipelined requests: only force bytes
			// out when the input buffer has drained, so a burst of
			// pipelined requests costs one write syscall, not one per
			// reply.
			if err := cn.write(r, br.Buffered() == 0); err != nil {
				return
			}
		}
	}
}

// write sends a frame, flushing when requested (end of a pipelined
// burst) — the notifier goroutine always flushes its own pushes.
func (cn *conn) write(m *rpc.Message, flush bool) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	var err error
	cn.scratch, err = rpc.WriteMessage(cn.bw, m, cn.scratch)
	if err != nil {
		return err
	}
	if flush {
		return cn.bw.Flush()
	}
	return nil
}

// pushNotify enqueues a subscription push (called with a shard lock
// held; must not block). Broadcast, not Signal: the cond is shared with
// drainNotify waiters, and a Signal could wake one of those instead of
// the notifier goroutine.
func (cn *conn) pushNotify(c rpc.Change) {
	cn.nmu.Lock()
	cn.nqueue = append(cn.nqueue, c)
	cn.nmu.Unlock()
	cn.ncond.Broadcast()
}

// notifyLoop drains the notify queue into batched MsgNotify frames —
// asynchronous update propagation, the source of Pequod's eventual
// consistency (§2.4).
func (cn *conn) notifyLoop() {
	for {
		cn.nmu.Lock()
		for len(cn.nqueue) == 0 && !cn.nclosed {
			cn.ncond.Wait()
		}
		if cn.nclosed && len(cn.nqueue) == 0 {
			cn.nmu.Unlock()
			return
		}
		batch := cn.nqueue
		cn.nqueue = nil
		cn.nbusy = true
		cn.nmu.Unlock()
		err := cn.write(&rpc.Message{Type: rpc.MsgNotify, Changes: batch}, true)
		cn.nmu.Lock()
		cn.nbusy = false
		cn.nmu.Unlock()
		cn.ncond.Broadcast()
		if err != nil {
			return
		}
	}
}

// drainNotify blocks until this connection's queued pushes are written
// out (or the connection is closed), reporting false when a non-zero
// deadline expired first. Called by the quiesce and ping paths; the
// notifier goroutine does the writing. The timer's broadcast cannot be
// lost: it needs nmu, which the waiter holds until it parks.
func (cn *conn) drainNotify(dl time.Time) bool {
	cn.nmu.Lock()
	defer cn.nmu.Unlock()
	if !dl.IsZero() {
		t := time.AfterFunc(time.Until(dl), func() {
			cn.nmu.Lock()
			cn.ncond.Broadcast()
			cn.nmu.Unlock()
		})
		defer t.Stop()
	}
	for (len(cn.nqueue) > 0 || cn.nbusy) && !cn.nclosed {
		if !dl.IsZero() && !time.Now().Before(dl) {
			return false
		}
		cn.ncond.Wait()
	}
	return true
}

func (cn *conn) close() {
	cn.nmu.Lock()
	cn.nclosed = true
	cn.nmu.Unlock()
	cn.ncond.Broadcast()
	cn.c.Close()
}

// --- remote loader (distributed deployments) ---

// remoteLoader fetches missing base ranges for one shard from home
// servers over peer connections, subscribing for future updates (§2.4,
// §3.3). Pieces whose owner is this server itself (a symmetric mesh,
// where every member is home for part of each table) are skipped: their
// data arrives as direct writes, is replicated across the pool's
// internal shards, and a network self-fetch would recurse into this
// same loader.
//
// Connections are keyed by peer *address* and shared across the mesh's
// generations: ownership is read through the mesh's current view, so a
// load started after a live migration — or after a membership change
// shifted owner indexes — routes to the range's current home. A fetch
// that races a migration gets a StatusNotOwner reply carrying the newer
// map; the loader adopts it and retries against the new owner, and if
// pieces still cannot be fetched the load *fails* (Shard.LoadsDone's
// failed list) rather than marking an absent range resident — blocked
// readers retry and re-route instead of silently seeing a gap.
// Connections to members that left the mesh are closed by the resize
// that adopts the shrunk view; connections to fresh members dial on
// demand.
type remoteLoader struct {
	sh   *shard.Shard
	view *atomic.Pointer[partition.View]
	up   *upstream // this shard's peer connections: pushes apply to the shard that subscribed
}

func newRemoteLoader(sh *shard.Shard, view *atomic.Pointer[partition.View]) *remoteLoader {
	return &remoteLoader{sh: sh, view: view, up: newUpstream(
		func(addr, key string) bool { return view.Load().OwnerAddr(key) == addr },
		sh.ApplyBatch)}
}

// allConns snapshots every loader's connections to addr — to every
// peer when addr is empty.
func (m *meshState) allConns(addr string) []*client.Client {
	var out []*client.Client
	for _, l := range m.loaders {
		for a, c := range l.up.conns() {
			if addr == "" || a == addr {
				out = append(out, c)
			}
		}
	}
	return out
}

// closeAll tears down every loader connection.
func (m *meshState) closeAll() {
	for _, l := range m.loaders {
		l.up.closeAll()
	}
}

// watchEvery paces the watchdog.
const watchEvery = 200 * time.Millisecond

// watch is the server's one watchdog goroutine, from New until Close.
func (s *Server) watch() {
	defer close(s.watchDone)
	t := time.NewTicker(watchEvery)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
			s.watchPass()
		}
	}
}

// watchPass notices upstream peers whose process went away — a
// connection a restarted peer cannot resurrect — and invalidates what
// the subscriptions that died with it were keeping fresh, which would
// otherwise go silently stale. Replica holds sourced from the peer are
// marked unsynced and re-snapshot, along with any hold whose earlier
// sync exhausted its attempts; mesh-table coverage loaded from the peer
// is dropped with eviction semantics, so the next read re-fetches from
// (and re-subscribes at) whatever process answers at the address now.
func (s *Server) watchPass() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.rmu.Lock()
	repl := s.repl
	s.rmu.Unlock()
	var held []keys.Range
	if repl != nil {
		held = repl.resync()
	}
	s.mmu.Lock()
	m := s.mesh
	var tables []string
	if m != nil {
		for tb := range m.tables {
			tables = append(tables, tb)
		}
	}
	s.mmu.Unlock()
	if m == nil {
		return
	}
	failed := make(map[string]bool)
	for _, l := range m.loaders {
		for _, a := range l.up.retireFailed() {
			failed[a] = true
		}
	}
	if len(failed) == 0 {
		return
	}
	v := m.view.Load()
	for o, a := range v.Addrs() {
		if !failed[a] || v.IsSelf(o) {
			continue
		}
	next:
		for _, rr := range subRanges(v.Map().OwnerRange(o), tables) {
			// A range held as a replica copy is the replica half's to
			// invalidate — it re-snapshots stale copies and they may be
			// the only surviving data for a repair to promote. Likewise
			// dropUnownedPieces spares pieces the gate already promoted
			// this member to serve.
			for _, h := range held {
				if rr.Overlaps(h) {
					continue next
				}
			}
			s.dropUnownedPieces(rr)
		}
	}
}

// leaveCluster tears down the mesh wiring and the replica machinery
// (shutdown, drain), returning only once no watchdog pass, replica sync
// or post-restart rewire that could still touch the pool — or wire a
// mesh behind the teardown — on their behalf is running.
func (s *Server) leaveCluster() {
	if s.rewireStop != nil {
		s.rewireStop()
		<-s.rewireDone
	}
	s.mmu.Lock()
	mesh := s.mesh
	s.mesh, s.rewire = nil, nil
	s.mmu.Unlock()
	if mesh != nil {
		mesh.closeAll()
	}
	s.rmu.Lock()
	repl := s.repl
	s.repl = nil
	s.rmu.Unlock()
	if repl != nil {
		repl.closeAll()
	}
	s.wmu.Lock() // wait out a pass that snapshotted them before the teardown
	s.wmu.Unlock()
}

// ConnectMesh wires this server to the home servers of the loader-backed
// base tables under view v, whose self set names the ranges it serves
// itself from direct writes instead of remote fetches (none on a
// compute-only server). Each shard dials its own peer connections, so
// incoming subscription pushes apply to the shard that subscribed.
// Calling it again with the same topology extends the table set (a join
// installed at runtime adding source tables) reusing the dialed
// connections; a different topology is rejected unless the server
// already holds a newer view (the caller is stale; the tables still
// extend). Wiring is atomic: if any peer dial fails, the connections
// dialed for this call are closed and the server is left exactly as
// before, so a retry does not leak or duplicate.
func (s *Server) ConnectMesh(v *partition.View, tables ...string) error {
	s.mmu.Lock()
	defer s.mmu.Unlock()
	if s.mesh == nil {
		// If a cluster client already published a versioned view (the
		// gate), that is the authority: the wire bounds must agree, and
		// the mesh starts from the gate so its position survives.
		if g := s.pool.Gate(); g != nil {
			if err := g.Map().SameBounds(v.Map()); err != nil {
				return fmt.Errorf("pequod server: mesh bounds disagree with the published cluster map (e%d v%d): %w",
					g.Map().Epoch(), g.Map().Version(), err)
			}
			v = g
		}
		mesh := &meshState{tables: make(map[string]bool)}
		mesh.view.Store(v)
		for i := 0; i < s.pool.NumShards(); i++ {
			mesh.loaders = append(mesh.loaders, newRemoteLoader(s.pool.Shard(i), &mesh.view))
		}
		// Eager dial so a bad member address fails the wiring visibly
		// (and atomically) instead of surfacing later as load timeouts.
		for _, l := range mesh.loaders {
			for o, a := range v.Addrs() {
				if v.IsSelf(o) {
					continue // no connection to ourselves
				}
				if _, err := l.up.conn(a); err != nil {
					mesh.closeAll()
					return fmt.Errorf("pequod server: mesh peer %s: %w", a, err)
				}
			}
		}
		s.mesh = mesh
	} else if cur := s.mesh.view.Load(); !cur.Newer(v) {
		// A stale caller re-wiring with outdated bounds is harmless when
		// this server already follows a newer published map — the tables
		// below still extend. A genuinely different topology at the same
		// generation is rejected: silently keeping the old map would
		// route remote loads to the wrong owners.
		if err := cur.SameShape(v); err != nil {
			return fmt.Errorf("pequod server: already meshed: %w", err)
		}
	}
	var fresh []string
	for _, t := range tables {
		if !s.mesh.tables[t] {
			s.mesh.tables[t] = true
			fresh = append(fresh, t)
		}
	}
	if len(fresh) > 0 {
		s.pool.SetExternalTables(fresh...)
		for i, l := range s.mesh.loaders {
			s.pool.Shard(i).SetLoader(l, fresh...)
		}
	}
	return nil
}

// StartLoads implements core.BaseLoader: fetch every home-server piece
// of every range with a subscription. The engine calls it under the
// shard lock, so it only hands the batch to a goroutine, which may have
// to dial; from there on nothing blocks — each home connection gets its
// pieces as pipelined frames behind one flush, and the replies complete
// the batch from the connection's reader goroutine.
func (l *remoteLoader) StartLoads(loads []core.Load) {
	go l.fetch(loads, loadAttempts)
}

// loadAttempts bounds re-splitting a load against refreshed maps; each
// retry follows either an adopted newer map or a short pause, so a load
// racing a migration converges on the new owner.
const loadAttempts = 4

// loadFetch tracks one load across the home-server pieces it split
// into; the batch mutex guards it.
type loadFetch struct {
	core.Load
	pieces int  // replies outstanding
	failed bool // some piece could not be fetched
}

// fetchGroup is the part of one batch bound for one home connection:
// the pieces of one snapshot round (peer.fetch) and the load each
// belongs to.
type fetchGroup struct {
	p      *peer
	pieces []*piece
	loads  []*loadFetch // parallel to pieces
}

// fetch starts one batch of loads: pieces this server homes itself need
// no fetch (only presence is missing), the rest go out grouped by home
// connection.
func (l *remoteLoader) fetch(loads []core.Load, attempts int) {
	v := l.view.Load()
	mu := new(sync.Mutex)                  // guards the loadFetches: loads may span groups
	groups := make(map[string]*fetchGroup) // by home address; nil = unreachable
	var landed, failed []core.Load
	for _, ld := range loads {
		lf := &loadFetch{Load: ld}
		for _, pc := range v.Map().Split(ld.R) {
			if v.IsSelf(pc.Owner) {
				continue // already local
			}
			addr := v.Addrs()[pc.Owner]
			g, tried := groups[addr]
			if !tried {
				if p, err := l.up.conn(addr); err == nil {
					g = &fetchGroup{p: p}
				}
				groups[addr] = g
			}
			if g == nil {
				lf.failed = true // unreachable home
				continue
			}
			lf.pieces++
			g.pieces = append(g.pieces, &piece{r: pc.R})
			g.loads = append(g.loads, lf)
		}
		switch {
		case lf.pieces > 0: // resolved by the groups' replies
		case lf.failed:
			failed = append(failed, ld)
		default:
			landed = append(landed, ld)
		}
	}
	l.deliver(nil, landed, failed, attempts)
	for _, g := range groups {
		if g != nil {
			g.p.fetch(g.pieces, func() { l.land(g, mu, attempts) })
		}
	}
}

// land applies a group's snapshots and resolves the loads it completes
// — a load whose pieces span connections is resolved by whichever group
// finishes it last. Only keys the peer still homes apply: a migration
// completing mid-flight may have moved part (a bound landed inside a
// piece) or all of a snapshot's range away, and the retry refetches
// that from the new home.
func (l *remoteLoader) land(g *fetchGroup, mu *sync.Mutex, attempts int) {
	var rows []core.KV
	var landed, failed []core.Load
	mu.Lock()
	for i, pc := range g.pieces {
		lf := g.loads[i]
		if pc.failed {
			lf.failed = true
			if m := pc.reply; m != nil && m.Status == rpc.StatusNotOwner {
				// The piece migrated away from its home mid-fetch. Adopt
				// the newer view the reply carries — every loader and feed
				// sharing the mesh view learns it — and the retry refetches
				// from the new owner.
				if nv, err := m.Map.View(); err == nil {
					partition.Advance(l.view, nv)
				}
			}
		}
		rows = g.p.feed.rows(rows, pc)
		if lf.pieces--; lf.pieces > 0 {
			continue
		}
		if lf.failed {
			failed = append(failed, lf.Load)
		} else {
			landed = append(landed, lf.Load)
		}
	}
	mu.Unlock()
	l.deliver(rows, landed, failed, attempts)
}

// deliver hands finished loads to the shard in one call. Failed loads
// are refetched whole while attempts remain — after a moment, giving a
// publishing coordinator time to finish its MapUpdate round before the
// re-split against the (possibly adopted) map — and only then *fail*:
// marking an unfetched range resident would serve a silent gap, so
// blocked readers retry and re-route instead.
func (l *remoteLoader) deliver(rows []core.KV, landed, failed []core.Load, attempts int) {
	if len(failed) > 0 && attempts > 1 {
		retry := failed
		time.AfterFunc(2*time.Millisecond, func() { l.fetch(retry, attempts-1) })
		failed = nil
	}
	if len(rows)+len(landed)+len(failed) > 0 {
		l.sh.LoadsDone(rows, landed, failed)
	}
}
