// Package client implements the Pequod client library: a pipelined,
// goroutine-safe connection that keeps many RPCs outstanding, exactly as
// the paper's event-driven clients do (§5.1: "Clients are event-driven
// processes that keep many RPCs outstanding").
//
// Every operation has an async form returning a *Future and a sync
// wrapper. A sync call writes its own frame to the socket before it
// waits; async frames are left to a flusher goroutine that writes once
// the pipeline goes momentarily idle, so a burst shares one syscall.
// Unsolicited Notify frames (cross-server subscription pushes,
// §2.4) are delivered to the OnNotify callback.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/core"
	"pequod/internal/freshness"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
)

// ErrClosed is returned for operations on a closed client.
var ErrClosed = errors.New("pequod client: connection closed")

// DefaultDialTimeout bounds Dial's connection attempt; before it existed
// a dead address hung for the kernel's default (minutes). DialContext
// callers control their own bound.
const DefaultDialTimeout = 10 * time.Second

// Client is a connection to one Pequod server. Methods are safe for
// concurrent use; requests pipeline on the single connection.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	bw      *bufio.Writer
	scratch []byte
	seq     uint64
	pending map[uint64]*Future
	dirty   bool
	closed  error

	kick chan struct{} // flush signal; never closed (senders race sends)
	quit chan struct{} // closed once by fail() to stop the flusher
	done chan struct{}

	rpcs atomic.Int64 // requests sent (evaluation metric: RPC counts)

	// OnNotify, if set before any traffic, receives server-push change
	// batches (subscription maintenance). Called from the reader
	// goroutine; implementations must not block on this client's sync
	// calls.
	OnNotify func([]rpc.Change)
}

// Future is a pending reply.
type Future struct {
	c   *Client // nil for futures failed at creation
	seq uint64
	ch  chan struct{}
	m   *rpc.Message
	err error

	// onReply, if set, runs on the reader goroutine when the reply
	// arrives, before the future resolves — in program order with this
	// connection's OnNotify deliveries. Cross-server subscriptions use
	// it to apply a snapshot before any push that followed it on the
	// wire. Like OnNotify, it must not block on this client's sync
	// calls. Not called on transport failure.
	onReply func(*rpc.Message)

	// onFail, if set, runs when the connection fails with the request
	// still pending, on whichever goroutine noticed the failure.
	onFail func(error)
}

// Wait blocks until the reply arrives.
func (f *Future) Wait() (*rpc.Message, error) {
	<-f.ch
	return f.m, f.err
}

// WaitCtx blocks until the reply arrives or ctx is done. A canceled wait
// fails the future (a later Wait returns the same error) and abandons
// the in-flight request: its eventual reply is discarded, and the
// connection stays usable for subsequent calls.
func (f *Future) WaitCtx(ctx context.Context) (*rpc.Message, error) {
	if ctx == nil || ctx.Done() == nil {
		return f.Wait()
	}
	select {
	case <-f.ch:
		return f.m, f.err
	case <-ctx.Done():
	}
	if f.c != nil && f.c.abandon(f, ctx.Err()) {
		return nil, f.err
	}
	// The reply (or a connection failure) raced the cancellation;
	// deliver it rather than dropping a completed result.
	<-f.ch
	return f.m, f.err
}

// abandon detaches a still-pending future after cancellation, failing it
// with cause. It reports false when the reply already landed (or the
// connection already failed the future).
func (c *Client) abandon(f *Future, cause error) bool {
	c.mu.Lock()
	if c.pending[f.seq] != f {
		c.mu.Unlock()
		return false
	}
	delete(c.pending, f.seq)
	c.mu.Unlock()
	f.err = cause
	close(f.ch)
	return true
}

// Dial connects to a Pequod server, bounding the attempt by
// DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDialTimeout)
	defer cancel()
	return DialContext(ctx, addr)
}

// DialContext connects to a Pequod server under ctx: cancellation or
// deadline expiry aborts the connection attempt.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint64]*Future),
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	go c.flushLoop()
	return c
}

// Close shuts the connection down; outstanding futures fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// Failed reports whether the connection has permanently failed (Close
// was called or the transport died); every operation on it returns an
// error. Connection caches use it to decide a redial is needed.
func (c *Client) Failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed != nil
}

// RPCs reports the number of requests sent on this connection; the §5.2
// comparison uses it to show client-managed systems' RPC amplification.
func (c *Client) RPCs() int64 { return c.rpcs.Load() }

// send enqueues a request for the flusher and returns its future. Its
// callers (Send, the *Async forms) may be queueing a burst, so the frame
// waits to share one syscall with whatever they queue behind it.
func (c *Client) send(m *rpc.Message) *Future { return c.enqueue(m, false) }

// call enqueues a request and flushes it on the caller's goroutine. Its
// callers (Do, the sync wrappers) block on this reply next, so nothing
// will queue behind the frame, and a hand-off to the flusher would only
// add a goroutine wake-up to the round trip.
func (c *Client) call(m *rpc.Message) *Future { return c.enqueue(m, true) }

func (c *Client) enqueue(m *rpc.Message, flush bool) *Future {
	c.rpcs.Add(1)
	f := &Future{c: c, ch: make(chan struct{})}
	c.mu.Lock()
	if c.closed != nil {
		err := c.closed
		c.mu.Unlock()
		f.err = err
		close(f.ch)
		return f
	}
	err := c.enqueueLocked(m, f)
	if err == nil && flush {
		err = c.flushLocked()
	}
	c.mu.Unlock()
	if err != nil {
		c.fail(err)
		return f
	}
	if !flush {
		c.kickFlush()
	}
	return f
}

// enqueueLocked registers f as m's pending reply and buffers m's frame.
// The caller holds c.mu and has found the connection open.
func (c *Client) enqueueLocked(m *rpc.Message, f *Future) error {
	c.seq++
	m.Seq = c.seq
	f.seq = m.Seq
	c.pending[m.Seq] = f
	var err error
	c.scratch, err = rpc.WriteMessage(c.bw, m, c.scratch)
	c.dirty = true
	return err
}

// flushLocked writes out every buffered frame. The caller holds c.mu.
func (c *Client) flushLocked() error {
	if !c.dirty {
		return nil
	}
	c.dirty = false
	return c.bw.Flush()
}

// kickFlush wakes the flusher unless a wake-up is already queued.
func (c *Client) kickFlush() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// flushLoop flushes buffered writes when the pipeline goes momentarily
// idle, batching frames from concurrent callers into single syscalls.
func (c *Client) flushLoop() {
	for {
		select {
		case <-c.kick:
		case <-c.quit:
			return
		}
		c.mu.Lock()
		err := c.flushLocked()
		c.mu.Unlock()
		if err != nil {
			c.fail(err)
			return
		}
	}
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var scratch []byte
	for {
		var m *rpc.Message
		var err error
		m, scratch, err = rpc.ReadMessage(br, scratch)
		if err != nil {
			c.fail(err)
			return
		}
		if m.Type == rpc.MsgNotify {
			if c.OnNotify != nil {
				c.OnNotify(m.Changes)
			}
			continue
		}
		c.mu.Lock()
		f := c.pending[m.Seq]
		delete(c.pending, m.Seq)
		c.mu.Unlock()
		if f != nil {
			f.m = m
			if f.onReply != nil {
				f.onReply(m)
			}
			close(f.ch)
		}
	}
}

// fail poisons the client and wakes all waiters.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed == nil {
		c.closed = err
		close(c.quit) // kick itself is never closed: senders race sends
	}
	pend := c.pending
	c.pending = make(map[uint64]*Future)
	c.mu.Unlock()
	for _, f := range pend {
		f.err = err
		if f.onFail != nil {
			f.onFail(err)
		}
		close(f.ch)
	}
	c.conn.Close()
}

func replyErr(m *rpc.Message, err error) error {
	if err != nil {
		return err
	}
	if m.Status == rpc.StatusNotOwner {
		v, err := m.Map.View()
		if err != nil {
			return fmt.Errorf("pequod: not-owner reply carries an unusable map: %w", err)
		}
		return &partition.NotOwnerError{View: v}
	}
	if m.Status != rpc.StatusOK {
		return fmt.Errorf("pequod: %s", m.Err)
	}
	return nil
}

// CollectReplies waits out every future under ctx — the second half of
// a pipelined batch (many Sends, then one CollectReplies). All futures
// are waited even after a failure, so sibling requests settle rather
// than being abandoned mid-batch; the first error (transport,
// cancellation, or server-reported) is returned after they do. On
// success the replies align with futs.
func CollectReplies(ctx context.Context, futs []*Future) ([]*rpc.Message, error) {
	out := make([]*rpc.Message, len(futs))
	var first error
	for i, f := range futs {
		m, err := f.WaitCtx(ctx)
		if err := replyErr(m, err); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out[i] = m
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// ReplyWaitCtx waits out one future under ctx and folds the reply
// status into the error — the per-element form of CollectReplies, for
// callers that handle element failures (e.g. NotOwner re-routing)
// individually.
func ReplyWaitCtx(ctx context.Context, f *Future) (*rpc.Message, error) {
	m, err := f.WaitCtx(ctx)
	if err := replyErr(m, err); err != nil {
		return nil, err
	}
	return m, nil
}

// WaitAll is CollectReplies for batches that only need the error.
func WaitAll(ctx context.Context, futs []*Future) error {
	_, err := CollectReplies(ctx, futs)
	return err
}

// Do sends m and waits for its reply under ctx, stamping the remaining
// deadline budget onto the frame so the server can bound blocking work.
// It returns an error for transport failures, cancellation, and
// server-reported errors alike. The frame is flushed before Do waits.
func (c *Client) Do(ctx context.Context, m *rpc.Message) (*rpc.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stamp(ctx, m)
	r, err := c.call(m).WaitCtx(ctx)
	if err := replyErr(r, err); err != nil {
		return nil, err
	}
	return r, nil
}

// --- Async API ---

// GetAsync fetches a key.
func (c *Client) GetAsync(key string) *Future {
	return c.send(&rpc.Message{Type: rpc.MsgGet, Key: key})
}

// PutAsync stores a value.
func (c *Client) PutAsync(key, value string) *Future {
	return c.send(&rpc.Message{Type: rpc.MsgPut, Key: key, Value: value})
}

// ScanAsync reads [lo, hi) up to limit pairs (0 = unlimited). subscribe
// asks the server to install a base-data subscription for the range
// (server-to-server replication, §2.4).
func (c *Client) ScanAsync(lo, hi string, limit int, subscribe bool) *Future {
	return c.send(&rpc.Message{Type: rpc.MsgScan, Lo: lo, Hi: hi, Limit: limit, SubscribeFlag: subscribe})
}

// ScanSubBatch issues one subscribing scan per range as consecutive
// frames behind a single flush — a server fetching every base range one
// join execution found missing. done runs exactly once per range: with
// the reply, on the reader goroutine, in order with this connection's
// OnNotify deliveries (see Future.onReply); or with the transport error
// if the connection fails first, on whichever goroutine noticed. It
// must not block on this client's sync calls.
func (c *Client) ScanSubBatch(ranges []keys.Range, done func(i int, m *rpc.Message, err error)) {
	c.rpcs.Add(int64(len(ranges)))
	c.mu.Lock()
	err := c.closed
	wasClosed := err != nil
	sent := 0
	for ; err == nil && sent < len(ranges); sent++ {
		i := sent
		f := &Future{c: c, ch: make(chan struct{}),
			onReply: func(m *rpc.Message) { done(i, m, nil) },
			onFail:  func(err error) { done(i, nil, err) },
		}
		m := &rpc.Message{Type: rpc.MsgScan, Lo: ranges[i].Lo, Hi: ranges[i].Hi, SubscribeFlag: true}
		err = c.enqueueLocked(m, f)
	}
	c.mu.Unlock()
	if err == nil {
		c.kickFlush()
		return
	}
	if !wasClosed {
		c.fail(err) // fails the frames already enqueued through onFail
	}
	for i := sent; i < len(ranges); i++ {
		done(i, nil, err)
	}
}

// Send stamps ctx's remaining deadline budget and staleness budget
// (freshness.WithBudget) onto m and enqueues it, returning the future —
// the pipelining-friendly building block batch operations use (many
// Sends, then WaitCtx each). Stamping happens per attempt, so a retry
// through a fresh Send re-derives both budgets from the same ctx.
func (c *Client) Send(ctx context.Context, m *rpc.Message) *Future {
	stamp(ctx, m)
	return c.send(m)
}

// stamp writes ctx's remaining deadline budget and staleness budget onto
// m, rounded up to whole milliseconds.
func stamp(ctx context.Context, m *rpc.Message) {
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain > 0 {
			m.TimeoutMS = uint64((remain + time.Millisecond - 1) / time.Millisecond)
		}
	}
	if b := freshness.Budget(ctx); b > 0 {
		m.StaleMS = uint64((b + time.Millisecond - 1) / time.Millisecond)
	}
}

// --- Sync API ---

// Get returns the value for key.
func (c *Client) Get(key string) (string, bool, error) {
	m, err := c.call(&rpc.Message{Type: rpc.MsgGet, Key: key}).Wait()
	if err := replyErr(m, err); err != nil {
		return "", false, err
	}
	return m.Value, m.Found, nil
}

// Put stores value under key.
func (c *Client) Put(key, value string) error {
	m, err := c.call(&rpc.Message{Type: rpc.MsgPut, Key: key, Value: value}).Wait()
	return replyErr(m, err)
}

// Remove deletes key, reporting whether it existed.
func (c *Client) Remove(key string) (bool, error) {
	m, err := c.call(&rpc.Message{Type: rpc.MsgRemove, Key: key}).Wait()
	if err := replyErr(m, err); err != nil {
		return false, err
	}
	return m.Found, nil
}

// Scan returns up to limit pairs from [lo, hi).
func (c *Client) Scan(lo, hi string, limit int) ([]rpc.KV, error) {
	m, err := c.call(&rpc.Message{Type: rpc.MsgScan, Lo: lo, Hi: hi, Limit: limit}).Wait()
	if err := replyErr(m, err); err != nil {
		return nil, err
	}
	return m.KVs, nil
}

// Count returns the number of keys in [lo, hi).
func (c *Client) Count(lo, hi string) (int64, error) {
	m, err := c.call(&rpc.Message{Type: rpc.MsgCount, Lo: lo, Hi: hi}).Wait()
	if err := replyErr(m, err); err != nil {
		return 0, err
	}
	return m.Count, nil
}

// Stat returns the server's JSON statistics snapshot.
func (c *Client) Stat() (string, error) {
	m, err := c.call(&rpc.Message{Type: rpc.MsgStat}).Wait()
	if err := replyErr(m, err); err != nil {
		return "", err
	}
	return m.Value, nil
}

// Stats fetches the server's engine counters (summed across its shards).
func (c *Client) Stats(ctx context.Context) (core.Stats, error) {
	s, err := c.StatSnapshot(ctx)
	if err != nil {
		return core.Stats{}, err
	}
	return s.Stats, nil
}

// StatSnapshot fetches and decodes the server's statistics snapshot.
func (c *Client) StatSnapshot(ctx context.Context) (*StatSnapshot, error) {
	m, err := c.Do(ctx, &rpc.Message{Type: rpc.MsgStat})
	if err != nil {
		return nil, err
	}
	var s StatSnapshot
	if err := json.Unmarshal([]byte(m.Value), &s); err != nil {
		return nil, fmt.Errorf("pequod client: bad stat reply: %w", err)
	}
	return &s, nil
}

// SetSubtableDepth configures a table's subtable boundary (§4.1).
func (c *Client) SetSubtableDepth(table string, depth int) error {
	m, err := c.call(&rpc.Message{Type: rpc.MsgSetSubtable, Table: table, Depth: depth}).Wait()
	return replyErr(m, err)
}

// Quiesce blocks until replication visible to the server has settled:
// its in-process shard forwarding, its outbound subscription pushes, and
// — by pinging each of its upstream peers — the subscription pushes in
// flight toward it. After it returns, reads at this server see every
// write acknowledged before the call.
func (c *Client) Quiesce(ctx context.Context) error {
	_, err := c.Do(ctx, &rpc.Message{Type: rpc.MsgQuiesce})
	return err
}

// Ping round-trips the connection. The server drains this connection's
// pending subscription pushes before replying, so a ping doubles as a
// delivery fence: every push enqueued before the ping was handled is in
// the stream ahead of the reply.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.Do(ctx, &rpc.Message{Type: rpc.MsgPing})
	return err
}

// SnapshotNow asks the server to commit one durable snapshot before
// returning, reporting the rows it captured. Errors when the server
// has no data dir configured.
func (c *Client) SnapshotNow(ctx context.Context) (int64, error) {
	m, err := c.Do(ctx, &rpc.Message{Type: rpc.MsgSnapshot})
	if err != nil {
		return 0, err
	}
	return m.Count, nil
}

// RebuildRange asks the server to restore [lo, hi) from its own
// durable store — the last-resort repair path when no live member
// holds a warm copy — reporting the rows it brought back. Only keys
// absent from the server's memory are installed, so writes that landed
// after a promotion are never clobbered by older disk state.
func (c *Client) RebuildRange(ctx context.Context, lo, hi string) (int64, error) {
	m, err := c.Do(ctx, &rpc.Message{Type: rpc.MsgRebuildRange, Lo: lo, Hi: hi})
	if err != nil {
		return 0, err
	}
	return m.Count, nil
}

// CommandAsync issues a generic command (baseline comparison engines:
// Redis-like, memcached-like, and relational servers share the Pequod
// framing with engine-specific command verbs).
func (c *Client) CommandAsync(args ...string) *Future {
	return c.send(&rpc.Message{Type: rpc.MsgCommand, Args: args})
}

// Command issues a generic command and returns the raw reply.
func (c *Client) Command(args ...string) (*rpc.Message, error) {
	m, err := c.call(&rpc.Message{Type: rpc.MsgCommand, Args: args}).Wait()
	if err := replyErr(m, err); err != nil {
		return nil, err
	}
	return m, nil
}
