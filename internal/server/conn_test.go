package server

import (
	"context"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
	"pequod/internal/shard"
)

// heldLoader is a member's base-data loader that holds every load until
// release; from then on it lands each load at once with the rows of
// home that fall in it.
type heldLoader struct {
	sh   *shard.Shard
	home []core.KV

	mu   sync.Mutex
	open bool
	held []core.Load
}

func (l *heldLoader) StartLoads(loads []core.Load) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.open {
		l.held = append(l.held, loads...)
		return
	}
	go l.sh.LoadsDone(l.rows(loads), loads, nil) // StartLoads runs under the shard lock
}

func (l *heldLoader) rows(loads []core.Load) []core.KV {
	var out []core.KV
	for _, ld := range loads {
		for _, kv := range l.home {
			if ld.R.Contains(kv.Key) {
				out = append(out, kv)
			}
		}
	}
	return out
}

// holding reports how many loads are held.
func (l *heldLoader) holding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held)
}

// release lands the held loads and every later one.
func (l *heldLoader) release() {
	l.mu.Lock()
	l.open = true
	held := l.held
	l.held = nil
	l.mu.Unlock()
	l.sh.LoadsDone(l.rows(held), held, nil)
}

// heldMember starts a server computing the timeline join over sources
// that load through a heldLoader, with a warm row x|1 outside them, and
// dials it.
func heldMember(t *testing.T) (*Server, *client.Client, *heldLoader) {
	t.Helper()
	s, c := startServer(t, Config{Name: "held", Joins: timelineJoin})
	ld := &heldLoader{sh: s.pool.Shard(0), home: []core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "p|bob|100", Value: "Hi"}}}
	s.pool.Shard(0).SetLoader(ld, "s", "p")
	if err := s.pool.Put("x|1", "warm"); err != nil {
		t.Fatal(err)
	}
	return s, c, ld
}

// coldReads are the three reads a connection can park, each of ann's
// timeline (Get: one key of it).
var coldReads = []struct {
	name string
	m    rpc.Message
}{
	{"Get", rpc.Message{Type: rpc.MsgGet, Key: "t|ann|100|bob"}},
	{"Scan", rpc.Message{Type: rpc.MsgScan, Lo: "t|ann|", Hi: "t|ann}"}},
	{"Count", rpc.Message{Type: rpc.MsgCount, Lo: "t|ann|", Hi: "t|ann}"}},
}

// reply waits up to d for f's reply.
func reply(t *testing.T, f *client.Future, d time.Duration) *rpc.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	m, err := f.WaitCtx(ctx)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	return m
}

// answered is closed once f resolves, without abandoning it.
func answered(f *client.Future) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		f.Wait()
		close(done)
	}()
	return done
}

// TestParkedReadDoesNotHoldConnection: one connection carries a read
// that parks on a load only a later MapUpdate can satisfy — the home
// its gate names for the timeline's sources bounces every fetch, and
// the map moves them to a member that holds them — and then that
// MapUpdate. The MapUpdate is served while the read waits, and the
// read then completes, well inside its deadline.
func TestParkedReadDoesNotHoldConnection(t *testing.T) {
	home, err := New(Config{Name: "home"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(home.Close)
	homeAddr, err := home.Start()
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"s|ann|bob", "1"}, {"p|bob|100", "Hi"}} {
		if err := home.pool.Put(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	b := newBouncer(t)
	s, err := New(Config{Name: "compute", Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	v := at(t, 1, []string{"t"}, b.addr, addr)
	b.views.Store(&[2]*partition.View{v, v})
	publish(t, s, v.For(addr))

	const deadline = 3 * time.Second
	start := time.Now()
	get := c.Send(context.Background(), &rpc.Message{Type: rpc.MsgGet, Key: "t|ann|100|bob", TimeoutMS: uint64(deadline / time.Millisecond)})
	for b.bounces.Load() == 0 { // the read's load has met the bouncing home
		if time.Since(start) > deadline {
			t.Fatal("the read's load never reached its home")
		}
		time.Sleep(time.Millisecond)
	}
	next := at(t, 2, []string{"t"}, homeAddr, addr)
	mu := c.Send(context.Background(), &rpc.Message{Type: rpc.MsgMapUpdate, Map: next.For(addr).Wire()})
	if r := reply(t, mu, 2*deadline); r.Status != rpc.StatusOK {
		t.Fatalf("MapUpdate = %s", r.Err)
	}
	if r := reply(t, get, 2*deadline); r.Status != rpc.StatusOK || !r.Found || r.Value != "Hi" {
		t.Fatalf("parked Get = %+v", r)
	}
	if d := time.Since(start); d > deadline/2 {
		t.Fatalf("the Get and the MapUpdate behind it took %v of the Get's %v deadline", d, deadline)
	}
}

// TestWarmReadPassesParkedRead: a warm read pipelined behind a parked
// one on the same connection gets its reply first, well before the
// parked one's deadline; the parked one's continuation answers once its
// loads land. The member's load counts each read once, when it is
// answered: the attempt that parked counts nothing.
func TestWarmReadPassesParkedRead(t *testing.T) {
	for _, cold := range coldReads {
		t.Run(cold.name, func(t *testing.T) {
			s, c, ld := heldMember(t)
			m := cold.m
			m.TimeoutMS = 3000
			parked := c.Send(context.Background(), &m)
			done := answered(parked)
			warm := c.Send(context.Background(), &rpc.Message{Type: rpc.MsgGet, Key: "x|1"})
			if r := reply(t, warm, time.Second); r.Status != rpc.StatusOK || r.Value != "warm" {
				t.Fatalf("warm Get = %+v", r)
			}
			select {
			case <-done:
				t.Fatal("the cold read was answered with its loads held")
			default:
			}
			if l := s.load.snapshot(); l.Units != 1 || !slices.Equal(l.Samples, []string{"x|1"}) {
				t.Fatalf("load with the cold read parked = %+v, want the warm Get's alone", l)
			}
			ld.release()
			r := reply(t, parked, 5*time.Second)
			if r.Status != rpc.StatusOK {
				t.Fatalf("parked read = %+v", r)
			}
			units, key := int64(1+1+1), m.Lo // the warm Get, then a read of one row
			switch m.Type {
			case rpc.MsgGet:
				if !r.Found || r.Value != "Hi" {
					t.Fatalf("parked Get = %+v", r)
				}
				units, key = 1+1, m.Key
			case rpc.MsgScan:
				if len(r.KVs) != 1 {
					t.Fatalf("parked Scan = %+v", r)
				}
			case rpc.MsgCount:
				if r.Count != 1 {
					t.Fatalf("parked Count = %+v", r)
				}
			}
			if l := s.load.snapshot(); l.Units != units || !slices.Equal(l.Samples, []string{"x|1", key}) {
				t.Fatalf("load after the parked read = %+v, want %d units from x|1 and %q", l, units, key)
			}
		})
	}
}

// TestCloseWithParkedRead: Server.Close with a read parked on a load
// that never lands, and no deadline, returns promptly, and the
// continuation it stopped retries nothing against the closed pool when
// the load resolves afterwards.
func TestCloseWithParkedRead(t *testing.T) {
	s, c, ld := heldMember(t)
	parked := c.Send(context.Background(), &rpc.Message{Type: rpc.MsgScan, Lo: "t|ann|", Hi: "t|ann}"})
	for ld.holding() == 0 { // the read has met its load
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a parked read")
	}
	before := s.pool.Stats()
	ld.release()
	time.Sleep(50 * time.Millisecond)
	if after := s.pool.Stats(); after.Scans != before.Scans || after.JoinExecs != before.JoinExecs {
		t.Fatalf("a read ran after Close: scans %d -> %d, join executions %d -> %d",
			before.Scans, after.Scans, before.JoinExecs, after.JoinExecs)
	}
	if _, err := parked.Wait(); err == nil {
		t.Fatal("the parked read got a reply from a closed server")
	}
}

// TestParkedReadDeadline: a parked read whose deadline (TimeoutMS)
// passes before its loads land gets the deadline error — joined with
// ErrOverBudget when it carried a staleness budget, which could not be
// met either — and the connection keeps serving.
func TestParkedReadDeadline(t *testing.T) {
	for _, cold := range coldReads {
		for _, b := range []struct {
			name  string
			stale uint64
		}{{"fresh", 0}, {"bounded", 50}} {
			stale := b.stale
			t.Run(cold.name+"/"+b.name, func(t *testing.T) {
				_, c, _ := heldMember(t)
				m := cold.m
				m.TimeoutMS, m.StaleMS = 20, stale
				r := reply(t, c.Send(context.Background(), &m), 5*time.Second)
				if r.Status != rpc.StatusError || !strings.Contains(r.Err, errDeadline.Error()) {
					t.Fatalf("read past its deadline = %+v, want %q", r, errDeadline)
				}
				if over := strings.Contains(r.Err, perrs.ErrOverBudget.Error()); over != (stale > 0) {
					t.Fatalf("read past its deadline with budget %dms = %q: ErrOverBudget %v", stale, r.Err, over)
				}
				if v, ok, err := c.Get("x|1"); err != nil || !ok || v != "warm" {
					t.Fatalf("warm Get after the deadline = %q, %v, %v", v, ok, err)
				}
			})
		}
	}
}

// TestProbeNotHeldByQuiesce: a quiesce that waits out a fence — here of
// a mesh peer that accepts frames and never answers — runs on a
// continuation, so a Ping pipelined behind it on the same connection,
// as the failure detector's probes are, is answered meanwhile.
func TestProbeNotHeldByQuiesce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	s, c := startServer(t, Config{Name: "member", Joins: timelineJoin})
	self := "member:1"
	v := at(t, 1, []string{"m"}, ln.Addr().String(), self).For(self)
	publish(t, s, v)
	if _, err := s.up.conn(ln.Addr().String()); err != nil { // as a mesh load dials it
		t.Fatal(err)
	}
	quiesce := c.Send(context.Background(), &rpc.Message{Type: rpc.MsgQuiesce, TimeoutMS: 1500})
	if r := reply(t, c.Send(context.Background(), &rpc.Message{Type: rpc.MsgPing}), 500*time.Millisecond); r.Status != rpc.StatusOK {
		t.Fatalf("Ping behind the quiesce = %+v", r)
	}
	if r := reply(t, quiesce, 10*time.Second); r.Status != rpc.StatusError {
		t.Fatalf("quiesce fencing a silent peer = %+v, want its deadline error", r)
	}
}
