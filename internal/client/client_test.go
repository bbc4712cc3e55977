package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pequod/internal/keys"
	"pequod/internal/rpc"
)

// echoServer accepts one connection and answers every request with a
// canned reply keyed by message type; it can also push Notify frames.
type echoServer struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  []*echoConn
	pushed chan []rpc.Change
}

// echoConn serializes writes between the request handler and push.
type echoConn struct {
	c  net.Conn
	mu sync.Mutex
	bw *bufio.Writer
}

func (ec *echoConn) write(m *rpc.Message) error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if _, err := rpc.WriteMessage(ec.bw, m, nil); err != nil {
		return err
	}
	return ec.bw.Flush()
}

func startEcho(t *testing.T) (*echoServer, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	es := &echoServer{ln: ln, pushed: make(chan []rpc.Change, 4)}
	go es.serve()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ln.Close()
		es.mu.Lock()
		for _, cn := range es.conns {
			cn.c.Close()
		}
		es.mu.Unlock()
	})
	return es, c
}

func (es *echoServer) serve() {
	for {
		cn, err := es.ln.Accept()
		if err != nil {
			return
		}
		ec := &echoConn{c: cn, bw: bufio.NewWriter(cn)}
		es.mu.Lock()
		es.conns = append(es.conns, ec)
		es.mu.Unlock()
		go es.handle(ec)
	}
}

func (es *echoServer) handle(ec *echoConn) {
	br := bufio.NewReader(ec.c)
	var rs []byte
	for {
		m, sc, err := rpc.ReadMessage(br, rs)
		if err != nil {
			return
		}
		rs = sc
		r := rpc.OKReply(m.Seq)
		switch m.Type {
		case rpc.MsgGet:
			// Keys prefixed "slow:" simulate a server stuck on base-data
			// loads; cancellation tests race against this delay.
			if strings.HasPrefix(m.Key, "slow:") {
				time.Sleep(200 * time.Millisecond)
			}
			r.Found = true
			r.Value = "value-of-" + m.Key
		case rpc.MsgScan:
			r.KVs = []rpc.KV{{Key: m.Lo, Value: "first"}}
		case rpc.MsgCount:
			r.Count = 42
		case rpc.MsgStat:
			r.Value = `{"ok":true}`
		case rpc.MsgAddJoin:
			if m.Text == "bad" {
				r = rpc.ErrReply(m.Seq, fmt.Errorf("no such join"))
			}
		}
		if err := ec.write(r); err != nil {
			return
		}
	}
}

func (es *echoServer) push(changes []rpc.Change) error {
	es.mu.Lock()
	defer es.mu.Unlock()
	if len(es.conns) == 0 {
		return fmt.Errorf("no connections")
	}
	return es.conns[0].write(&rpc.Message{Type: rpc.MsgNotify, Changes: changes})
}

func addJoin(c *Client, text string) error {
	_, err := c.Do(context.Background(), &rpc.Message{Type: rpc.MsgAddJoin, Text: text})
	return err
}

func TestSyncOps(t *testing.T) {
	_, c := startEcho(t)
	v, found, err := c.Get("k1")
	if err != nil || !found || v != "value-of-k1" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Scan("lo", "hi", 0)
	if err != nil || len(kvs) != 1 || kvs[0].Key != "lo" {
		t.Fatalf("Scan = %v %v", kvs, err)
	}
	n, err := c.Count("a", "b")
	if err != nil || n != 42 {
		t.Fatalf("Count = %d %v", n, err)
	}
	st, err := c.Stat()
	if err != nil || st != `{"ok":true}` {
		t.Fatalf("Stat = %q %v", st, err)
	}
	// Server-reported errors surface as Go errors.
	if err := addJoin(c, "bad"); err == nil {
		t.Fatal("error reply not surfaced")
	}
	if err := addJoin(c, "good"); err != nil {
		t.Fatal(err)
	}
	if c.RPCs() == 0 {
		t.Fatal("RPC counter")
	}
}

func TestPipelinedOutOfOrderWaits(t *testing.T) {
	_, c := startEcho(t)
	// Issue many async requests, then wait in reverse order: sequence
	// matching must route each reply to its future.
	futs := make([]*Future, 50)
	for i := range futs {
		futs[i] = c.GetAsync(fmt.Sprintf("k%02d", i))
	}
	for i := len(futs) - 1; i >= 0; i-- {
		m, err := futs[i].Wait()
		if err != nil {
			t.Fatal(err)
		}
		if m.Value != fmt.Sprintf("value-of-k%02d", i) {
			t.Fatalf("future %d got %q", i, m.Value)
		}
	}
}

func TestNotifyDelivery(t *testing.T) {
	es, c := startEcho(t)
	got := make(chan []rpc.Change, 1)
	c.OnNotify = func(ch []rpc.Change) { got <- ch }
	// Prime the connection so the server has it registered.
	if _, _, err := c.Get("x"); err != nil {
		t.Fatal(err)
	}
	if err := es.push([]rpc.Change{{Op: rpc.ChangePut, Key: "n", Value: "v"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ch := <-got:
		if len(ch) != 1 || ch[0].Key != "n" {
			t.Fatalf("notify = %v", ch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notify not delivered")
	}
}

// TestWaitCtxCancellation is the issue's contract: a canceled call
// fails fast, fails its Future, and leaves the connection usable for
// subsequent calls.
func TestWaitCtxCancellation(t *testing.T) {
	_, c := startEcho(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	f := c.GetAsync("slow:k")
	start := time.Now()
	_, err := f.WaitCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("cancellation took %v; not fast", elapsed)
	}
	// The future itself is failed: a later Wait sees the same error.
	if _, err := f.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned future Wait = %v", err)
	}
	// The connection is still usable — including for the same key, whose
	// stale reply must have been discarded, not delivered to a new call.
	if v, found, err := c.Get("k2"); err != nil || !found || v != "value-of-k2" {
		t.Fatalf("Get after cancellation = %q %v %v", v, found, err)
	}
	if v, _, err := c.Get("slow:k"); err != nil || v != "value-of-slow:k" {
		t.Fatalf("slow Get after cancellation = %q %v", v, err)
	}
}

// TestWaitCtxDeliversRacedReply: when the reply lands before the
// cancellation takes effect, the completed result is delivered.
func TestWaitCtxDeliversRacedReply(t *testing.T) {
	_, c := startEcho(t)
	f := c.GetAsync("k")
	f.Wait() // reply is in
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := f.WaitCtx(ctx)
	if err != nil || m.Value != "value-of-k" {
		t.Fatalf("raced WaitCtx = %v %v", m, err)
	}
}

// TestDoStampsDeadline: Do carries the remaining budget on the wire.
func TestDoStampsDeadline(t *testing.T) {
	_, c := startEcho(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	m := &rpc.Message{Type: rpc.MsgGet, Key: "k"}
	if _, err := c.Do(ctx, m); err != nil {
		t.Fatal(err)
	}
	if m.TimeoutMS == 0 || m.TimeoutMS > 1000 {
		t.Fatalf("TimeoutMS = %d, want (0, 1000]", m.TimeoutMS)
	}
	// An already-expired context fails without sending.
	before := c.RPCs()
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.Do(expired, &rpc.Message{Type: rpc.MsgGet, Key: "k"}); err == nil {
		t.Fatal("expired Do succeeded")
	}
	if c.RPCs() != before {
		t.Fatal("expired Do still sent a request")
	}
}

func TestDialContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(canceled, ln.Addr().String()); err == nil {
		t.Fatal("dial under canceled context succeeded")
	}
}

func TestCloseFailsPendingAndFutureCalls(t *testing.T) {
	_, c := startEcho(t)
	c.Close()
	if _, _, err := c.Get("k"); err == nil {
		t.Fatal("call on closed client should fail")
	}
}

func TestServerDisappearing(t *testing.T) {
	es, c := startEcho(t)
	if _, _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	es.ln.Close()
	es.mu.Lock()
	for _, cn := range es.conns {
		cn.c.Close()
	}
	es.mu.Unlock()
	// Pending and subsequent calls fail rather than hang.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, err := c.Get("k"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls still succeed after server death")
		}
	}
}

func TestConcurrentMixedCallers(t *testing.T) {
	_, c := startEcho(t)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					if _, _, err := c.Get(fmt.Sprintf("g%d-%d", g, i)); err != nil {
						t.Errorf("get: %v", err)
						return
					}
				case 1:
					if err := c.Put("k", "v"); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				default:
					if _, err := c.Scan("a", "b", 1); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.RPCs(); got != 16*50 {
		t.Fatalf("RPCs = %d, want %d", got, 16*50)
	}
}

// countingConn counts the Write calls a client makes on its connection,
// and the bytes it reads back.
type countingConn struct {
	net.Conn
	writes, read atomic.Int64
}

func (cc *countingConn) Write(b []byte) (int, error) {
	cc.writes.Add(1)
	return cc.Conn.Write(b)
}

func (cc *countingConn) Read(b []byte) (int, error) {
	n, err := cc.Conn.Read(b)
	cc.read.Add(int64(n))
	return n, err
}

// TestSyncCallFlushesInline: a sync call's frame is on the socket when
// its send returns — written by the caller, not handed to the flusher —
// while a ScanSubBatch burst still leaves in one write.
func TestSyncCallFlushesInline(t *testing.T) {
	es, _ := startEcho(t)
	raw, err := net.Dial("tcp", es.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c := NewClient(cc)
	defer c.Close()

	// "slow:" holds the reply back, so none is read before the check.
	f := c.call(&rpc.Message{Type: rpc.MsgGet, Key: "slow:k"})
	if w, r := cc.writes.Load(), cc.read.Load(); w != 1 || r != 0 {
		t.Fatalf("after a sync call's send: %d writes, %d bytes read; want 1 write, nothing read", w, r)
	}
	if m, err := f.Wait(); err != nil || m.Value != "value-of-slow:k" {
		t.Fatalf("sync call = %v, %v", m, err)
	}

	ranges := make([]keys.Range, 16)
	for i := range ranges {
		ranges[i] = keys.Range{Lo: fmt.Sprintf("p|%02d|", i), Hi: fmt.Sprintf("p|%02d}", i)}
	}
	var done sync.WaitGroup
	done.Add(len(ranges))
	c.ScanSubBatch(ranges, func(i int, m *rpc.Message, err error) {
		if err != nil {
			t.Errorf("range %d: %v", i, err)
		}
		done.Done()
	})
	done.Wait()
	if w := cc.writes.Load() - 1; w != 1 {
		t.Fatalf("a %d-range ScanSubBatch took %d writes, want 1", len(ranges), w)
	}
}

// TestScanSubBatch: a batch's replies run its callback once per range,
// in request order, on the reader goroutine — so after a push that
// followed them on the wire has been delivered, all of them have run —
// and a batch on a dead connection (or one that dies under it) reports
// the transport error for every range instead of hanging.
func TestScanSubBatch(t *testing.T) {
	es, c := startEcho(t)
	var mu sync.Mutex
	var order []int
	var got []string
	c.OnNotify = func([]rpc.Change) {
		mu.Lock()
		order = append(order, -1)
		mu.Unlock()
	}
	ranges := []keys.Range{{Lo: "p|a|", Hi: "p|a}"}, {Lo: "p|b|", Hi: "p|b}"}, {Lo: "p|c|", Hi: "p|c}"}}
	done := make(chan struct{}, len(ranges))
	c.ScanSubBatch(ranges, func(i int, m *rpc.Message, err error) {
		mu.Lock()
		order = append(order, i)
		if err == nil && len(m.KVs) == 1 {
			got = append(got, m.KVs[0].Key)
		}
		mu.Unlock()
		done <- struct{}{}
	})
	for range ranges {
		<-done
	}
	if err := es.push([]rpc.Change{{Key: "p|a|1", Value: "x"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if fmt.Sprint(order) != "[0 1 2 -1]" || fmt.Sprint(got) != "[p|a| p|b| p|c|]" {
		t.Fatalf("callbacks ran as %v with snapshots %v", order, got)
	}
	mu.Unlock()
	if c.RPCs() != int64(len(ranges))+1 {
		t.Fatalf("RPCs = %d", c.RPCs())
	}

	c.Close()
	var errs []error
	c.ScanSubBatch(ranges, func(i int, m *rpc.Message, err error) { errs = append(errs, err) })
	if len(errs) != len(ranges) {
		t.Fatalf("batch on a closed connection reported %d of %d ranges", len(errs), len(ranges))
	}
	for _, err := range errs {
		if err == nil {
			t.Fatal("batch on a closed connection reported success")
		}
	}
}

// TestScanSubBatchConnectionDies: replies that never come are reported
// as transport failures when the connection goes.
func TestScanSubBatchConnectionDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if cn, err := ln.Accept(); err == nil {
			accepted <- cn // reads nothing, answers nothing
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	failed := make(chan error, 2)
	c.ScanSubBatch([]keys.Range{{Lo: "a", Hi: "b"}, {Lo: "c", Hi: "d"}},
		func(i int, m *rpc.Message, err error) { failed <- err })
	(<-accepted).Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-failed:
			if err == nil {
				t.Fatal("range reported success on a dead connection")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("batch never resolved after the connection died")
		}
	}
}
