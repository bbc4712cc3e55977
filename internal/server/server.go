// Package server implements the networked Pequod cache server: the RPC
// surface over one core engine, cross-server base-data subscriptions
// with asynchronous update notification (§2.4), and remote/database
// loaders that drive the engine's restart contexts (§3.3).
//
// Concurrency model: a server is one single-writer engine, like the
// paper's event-driven server (internal/shard's one-engine pool holds
// its lock and cluster gate). More cores means more servers, which the
// cluster adds, drains and rebalances live (§2.4, Fig 10).
// Per-connection goroutines handle framing, and per-connection notifier
// goroutines drain subscription pushes so slow subscribers never block
// the engine.
package server

import (
	"bufio"
	"context"
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
	// SubtableDepths configures §4.1 boundaries at startup.
	SubtableDepths map[string]int
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
	// JoinCluster RPC (guarded by mmu; see mesh.go). The cluster view it
	// and the replicas route by is the pool's gate, the only one this
	// server holds.
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
	// metaMu serializes persistMeta; saved is the meta it last wrote.
	dur      *durable.Store
	durStop  chan struct{}
	durDone  chan struct{}
	recovery *client.RecoveryStat
	metaMu   sync.Mutex
	saved    *durable.Meta

	// The post-restart mesh rewire (retryMesh), when recovery had to
	// leave one running: leaveCluster stops it and waits for it. rewire
	// (guarded by mmu) is the recovered record it is wiring from, which
	// buildMeta keeps saving until the mesh exists or the member leaves.
	rewireStop context.CancelFunc
	rewireDone chan struct{}
	rewire     *durable.Meta
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

// Bytes returns the approximate memory footprint of the engine.
func (s *Server) Bytes() int64 { return s.pool.Bytes() }

// forwardChange pushes an owner-authoritative change to subscribed
// peers. Called with the engine's lock held (from inside mutation), so
// it only enqueues.
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
	if s.dur != nil {
		// Stop the snapshot loop and persist the cluster position now,
		// while the mesh and replica assignment are still live: the meta
		// a warm restart rewires from must not record the teardown below
		// — HasMesh=false would leave the restarted member's join sources
		// loader-less (cold compute would silently serve empty ranges).
		// A drained member's post-drain map is already saved.
		close(s.durStop)
		<-s.durDone
		s.persistMeta()
	}
	// The watchdog may be mid-pass against the pool, and replica syncs
	// apply to it; both must be gone before pool.Close below.
	close(s.watchStop)
	<-s.watchDone
	s.leaveCluster()
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
		Rebalance: s.pool.RebalanceStats(), Load: s.pool.LoadInfo(),
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
// happens inside the pool; a request carrying a deadline
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
			// Install the subscription while the engine's lock is
			// still held: the snapshot the scan
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
				// Published while the engine's lock is still held, so
				// its next change sees the subscriber (forwardChange's
				// fast path reads this without smu).
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

	case rpc.MsgDrain:
		return s.handleDrain(m)

	case rpc.MsgSnapshot:
		return s.handleSnapshot(m)

	case rpc.MsgRebuildRange:
		return s.handleRebuildRange(m)
	}
	if rpc.MovesView(m.Type) { // the map-bearing frames; Drain is served above
		return s.handleMapBearing(m, dl)
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

// quiesce settles replication visible to this server: outbound
// subscription pushes (drained into the sockets),
// and inbound pushes from upstream peers (fenced by pinging each peer —
// the ping reply follows any pushes the peer had queued for us, and our
// reader applies pushes in order). After it returns nil, reads here see
// every write acknowledged before the quiesce request. A deadline
// bounds the socket drains, replica syncs and peer fences (a
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
	s.mmu.Lock()
	var peers []*client.Client
	if s.mesh != nil {
		peers = s.mesh.allConns("")
	}
	s.mmu.Unlock()
	s.rmu.Lock()
	repl := s.repl
	s.rmu.Unlock()
	if repl != nil {
		// Replica homes are upstream peers too: fencing them makes the
		// post-quiesce replica copies complete — every write acknowledged
		// before the quiesce — the property failover promotion relies on.
		// A sync still dialing its home has no connection to fence yet, so
		// the running syncs land first.
		if err := repl.awaitSyncs(dl); err != nil {
			return err
		}
		for _, c := range repl.up.conns() {
			peers = append(peers, c)
		}
	}
	return fence(peers, dl)
}

// ApplyChanges applies replicated changes to the engine (thread-safe).
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

// pushNotify enqueues a subscription push (called with the engine's
// lock held; must not block). Broadcast, not Signal: the cond is shared with
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
