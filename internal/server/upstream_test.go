package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
	"pequod/internal/store"
)

// sinkLog records what a feed delivers, in delivery order.
type sinkLog struct {
	mu     sync.Mutex
	events []string
}

func (l *sinkLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// apply is the recording sink for pushes.
func (l *sinkLog) apply(cs []core.Change) {
	for _, c := range cs {
		l.add("push " + c.Key + "=" + c.Value)
	}
}

func (l *sinkLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// fakeHome is a scripted peer: it reads the subscribing scans a round
// sends and answers with replies and pushes in whatever wire order the
// scenario wants.
type fakeHome struct {
	t  *testing.T
	ln net.Listener
	c  net.Conn
	br *bufio.Reader
}

func newFakeHome(t *testing.T) *fakeHome {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakeHome{t: t, ln: ln}
}

func (h *fakeHome) addr() string { return h.ln.Addr().String() }

func (h *fakeHome) accept() {
	c, err := h.ln.Accept()
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { c.Close() })
	h.c, h.br = c, bufio.NewReader(c)
}

func (h *fakeHome) read(want rpc.MsgType) *rpc.Message {
	h.t.Helper()
	m, _, err := rpc.ReadMessage(h.br, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	if m.Type != want {
		h.t.Fatalf("home read message type %v, want %v", m.Type, want)
	}
	return m
}

func (h *fakeHome) send(m *rpc.Message) {
	h.t.Helper()
	if _, err := rpc.WriteMessage(h.c, m, nil); err != nil {
		h.t.Fatal(err)
	}
}

// kvs parses "key=value" pairs.
func kvs(pairs []string) []core.KV {
	out := make([]core.KV, len(pairs))
	for i, p := range pairs {
		k, v, _ := strings.Cut(p, "=")
		out[i] = core.KV{Key: k, Value: v}
	}
	return out
}

func (h *fakeHome) reply(req *rpc.Message, pairs ...string) {
	r := rpc.OKReply(req.Seq)
	r.KVs = kvs(pairs)
	h.send(r)
}

func (h *fakeHome) refuse(req *rpc.Message) {
	h.send(rpc.ErrReply(req.Seq, errors.New("refused")))
}

func (h *fakeHome) push(pairs ...string) {
	m := &rpc.Message{Type: rpc.MsgNotify}
	for _, kv := range kvs(pairs) {
		m.Changes = append(m.Changes, rpc.Change{Op: rpc.ChangePut, Key: kv.Key, Value: kv.Value})
	}
	h.send(m)
}

// fence returns once the subscriber has processed everything sent so
// far: a ping reply is handled on the same reader goroutine, after it.
func (h *fakeHome) fence(c *client.Client) {
	h.t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Ping(context.Background()) }()
	h.send(rpc.OKReply(h.read(rpc.MsgPing).Seq))
	if err := <-done; err != nil {
		h.t.Fatal(err)
	}
}

// feedRig is one feed under test, wired to a fakeHome.
type feedRig struct {
	t       *testing.T
	h       *fakeHome
	p       *peer
	log     *sinkLog
	setHome func(addr string) // move the gate: every key homed at addr
	landed  chan struct{}     // one token per landed round
}

// fetch starts a round over ranges and returns the scans the home
// received for it. The round's land records the snapshot rows the feed
// still wants, and a failed piece by its low key.
func (x *feedRig) fetch(ranges ...keys.Range) []*rpc.Message {
	x.t.Helper()
	pieces := make([]*piece, len(ranges))
	for i, r := range ranges {
		pieces[i] = &piece{r: r}
	}
	x.p.fetch(pieces, func() {
		for _, pc := range pieces {
			if pc.failed {
				x.log.add("fail " + pc.r.Lo)
			}
			for _, kv := range x.p.feed.rows(nil, pc) {
				x.log.add("snap " + kv.Key + "=" + kv.Value)
			}
		}
		x.landed <- struct{}{}
	})
	reqs := make([]*rpc.Message, len(ranges))
	for i, r := range ranges {
		reqs[i] = x.h.read(rpc.MsgScan)
		if m := reqs[i]; !m.SubscribeFlag || m.Lo != r.Lo || m.Hi != r.Hi {
			x.t.Fatalf("scan %d = [%q, %q) subscribe=%v, want subscribing [%q, %q)", i, m.Lo, m.Hi, m.SubscribeFlag, r.Lo, r.Hi)
		}
	}
	return reqs
}

func (x *feedRig) fence() { x.t.Helper(); x.h.fence(x.p.c) }

var (
	rangeA = keys.Range{Lo: "a", Hi: "b"}
	rangeC = keys.Range{Lo: "c", Hi: "d"}
)

// feedCases script the orderings the feed exists for. Every case runs
// for both roles whose rounds share the server's one upstream.
var feedCases = []struct {
	name string
	run  func(x *feedRig)
	want []string
}{
	{"push before reply", func(x *feedRig) {
		reqs := x.fetch(rangeA)
		x.h.push("a1=new", "z1=outside")
		x.h.reply(reqs[0], "a1=old", "a2=only")
		x.fence()
	}, []string{"push z1=outside", "snap a1=old", "snap a2=only", "push a1=new"}},

	{"reply before push", func(x *feedRig) {
		reqs := x.fetch(rangeA)
		x.h.reply(reqs[0], "a1=old")
		x.h.push("a1=new")
		x.fence()
	}, []string{"snap a1=old", "push a1=new"}},

	{"two rounds in flight, one released", func(x *feedRig) {
		ra, rc := x.fetch(rangeA), x.fetch(rangeC)
		x.h.push("a1=new", "c1=new")
		x.h.reply(ra[0], "a1=old")
		x.fence()
		x.log.add("-- round A landed")
		x.h.reply(rc[0])
		x.fence()
	}, []string{"snap a1=old", "push a1=new", "-- round A landed", "push c1=new"}},

	{"failed piece drops its buffered pushes", func(x *feedRig) {
		reqs := x.fetch(rangeA, rangeC)
		x.h.push("a1=new", "c1=new")
		x.h.reply(reqs[0], "a1=old")
		x.h.refuse(reqs[1])
		x.fence()
	}, []string{"snap a1=old", "fail c", "push a1=new"}},

	{"connection dies under the round", func(x *feedRig) {
		reqs := x.fetch(rangeA, rangeC)
		x.h.push("a1=new")
		x.h.reply(reqs[0], "a1=old")
		x.h.c.Close()
		<-x.landed
	}, []string{"fail a", "fail c"}},

	{"owner moved while buffered", func(x *feedRig) {
		reqs := x.fetch(rangeA)
		x.h.push("a1=new")
		x.fence() // buffered behind the snapshot
		x.setHome("elsewhere:1")
		x.h.reply(reqs[0], "a1=old")
		x.h.push("z1=late")
		x.fence()
	}, nil},

	{"keep flips between notify and release", func(x *feedRig) {
		reqs := x.fetch(rangeA)
		x.setHome("elsewhere:1")
		x.h.push("a1=while-away")
		x.fence() // dropped on arrival, not buffered
		x.setHome(x.h.addr())
		x.h.push("a2=back")
		x.h.reply(reqs[0], "a1=old")
		x.fence()
	}, []string{"snap a1=old", "push a2=back"}},

	// A mesh load and a replica hold in flight over the same keys: each
	// landing replays every push since its round registered, so the
	// second snapshot (older than the push here) cannot roll it back.
	{"overlapping rounds each replay the push", func(x *feedRig) {
		load, hold := x.fetch(rangeA), x.fetch(keys.Range{Lo: "a", Hi: "c"})
		x.h.push("a1=new")
		x.h.reply(load[0], "a1=old")
		x.fence()
		x.log.add("-- load landed")
		x.h.reply(hold[0], "a1=older", "b1=only")
		x.fence()
	}, []string{"snap a1=old", "push a1=new", "-- load landed", "snap a1=older", "snap b1=only", "push a1=new"}},
}

// TestFeedOrdering runs every case once per role whose rounds ride the
// server's one upstream: a mesh load, on a member whose first gate came
// through the MapUpdate handler and so wired its loader, and a replica
// hold. Either way the round dials its connection itself.
func TestFeedOrdering(t *testing.T) {
	insts := []struct {
		name string
		gate func(tb testing.TB, s *Server, v *partition.View) // the first gate
	}{
		{"mesh load", publish},
		{"replica", func(_ testing.TB, s *Server, v *partition.View) { s.pool.ApplyMapUpdate(v) }},
	}
	for _, inst := range insts {
		for _, tc := range feedCases {
			t.Run(inst.name+"/"+tc.name, func(t *testing.T) {
				s, err := New(Config{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				x := &feedRig{t: t, h: newFakeHome(t), log: new(sinkLog), landed: make(chan struct{}, 4)}
				s.up.apply = x.log.apply // before the dial: a feed binds its sink then
				// Keep flips the way it does in a server: the gate moves to
				// a newer map homing every key at addr.
				version := int64(1)
				x.setHome = func(addr string) {
					version++
					s.pool.ApplyMapUpdate(at(t, version, nil, addr))
				}
				inst.gate(t, s, at(t, version, nil, x.h.addr()))
				if x.p, err = s.up.conn(x.h.addr()); err != nil {
					t.Fatal(err)
				}
				x.h.accept()
				tc.run(x)
				if got := x.log.take(); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("delivered\n  %q\nwant\n  %q", got, tc.want)
				}
			})
		}
	}
}

// TestLandedRowsOwnTheirBytes: a decoded reply's rows are substrings of
// one copy of its frame, so rows landing in the store — a mesh load
// through feed.rows, a replica snapshot through replicaState.land into
// the pool — are copied out of it, and a kept row never pins a whole
// frame.
func TestLandedRowsOwnTheirBytes(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.pool.ApplyMapUpdate(at(t, 1, nil, "home:1"))
	frame := rpc.OKReply(1)
	frame.KVs = kvs([]string{"a|1=x", "a|2=y", "a|3=z"})
	reply, err := rpc.Decode(frame.Encode(nil)[4:])
	if err != nil {
		t.Fatal(err)
	}
	shared := map[*byte]bool{}
	for _, kv := range reply.KVs {
		shared[unsafe.StringData(kv.Key)], shared[unsafe.StringData(kv.Value)] = true, true
	}
	check := func(path string, landed []core.KV) {
		t.Helper()
		if got := fmt.Sprint(landed); got != fmt.Sprint(reply.KVs) {
			t.Fatalf("%s landed %s, want %s", path, got, fmt.Sprint(reply.KVs))
		}
		for _, kv := range landed {
			if shared[unsafe.StringData(kv.Key)] || shared[unsafe.StringData(kv.Value)] {
				t.Fatalf("%s landed row %s=%s still shares the reply's bytes", path, kv.Key, kv.Value)
			}
		}
	}

	r := keys.Range{Lo: "a|", Hi: "a}"}
	fd := &feed{keep: func(string) bool { return true }}
	pc := &piece{r: r, reply: reply}
	check("feed.rows", fd.rows(nil, pc))

	h := &replHold{home: "home:1"}
	st := &replicaState{s: s, held: map[keys.Range]*replHold{r: h}}
	if !st.land(fd, h, r, []*piece{pc}) {
		t.Fatal("replica snapshot did not land")
	}
	var stored []core.KV
	s.pool.Shard(0).WithEngine(func(e *core.Engine) {
		e.Store().Scan("", "", func(k string, v *store.Value) bool {
			stored = append(stored, core.KV{Key: k, Value: v.String()})
			return true
		})
	})
	check("replicaState.land", stored)
}

// TestLateSnapshotFromPreviousHome moves a replica hold from home A to
// home B while A's snapshot for it is still in flight, A's connection
// kept open by a second hold A still homes. B's copy lands first; A's
// late reply must then drop nothing and apply nothing, so the copy stays
// B's and still counts as synced in the stat Health reads.
func TestLateSnapshotFromPreviousHome(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	a, b := newFakeHome(t), newFakeHome(t)
	bounds := []string{"g", "m"}
	// Owners 0 [, g) and 1 [g, m) are homed at A, owner 2 here: with two
	// copies this member holds both of A's ranges.
	replicate(t, s, at(t, 1, bounds, a.addr(), a.addr(), "holder:1").For("holder:1"), 2)
	a.accept()
	scans := map[string]*rpc.Message{}
	for len(scans) < 2 {
		m := a.read(rpc.MsgScan)
		scans[m.Lo] = m
	}
	a.reply(scans[""], "a|1=kept")
	// Owner 1 moves to B; with three copies this member still holds
	// owner 0's range from A. The map update first fences A, the moved
	// range's old home, on the one connection the holds share.
	moved := make(chan *rpc.Message, 1)
	go func() {
		v := at(t, 2, bounds, a.addr(), b.addr(), "holder:1").For("holder:1")
		moved <- s.handle(nil, &rpc.Message{Type: rpc.MsgMapUpdate, Map: v.Wire(), Limit: 3})
	}()
	a.send(rpc.OKReply(a.read(rpc.MsgPing).Seq))
	if r := <-moved; r.Status != rpc.StatusOK {
		t.Fatalf("MapUpdate: %s", r.Err)
	}
	b.accept()
	b.reply(b.read(rpc.MsgScan), "h|1=fresh")
	for deadline := time.Now().Add(5 * time.Second); s.repl.snapshot() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replicas never synced")
		}
	}
	a.reply(scans["g"], "h|1=stale", "h|2=stale")
	p, err := s.up.conn(a.addr())
	if err != nil {
		t.Fatal(err)
	}
	a.fence(p.c)
	var got []string
	s.pool.Shard(0).WithEngine(func(e *core.Engine) {
		e.Store().Scan("", "", func(k string, v *store.Value) bool {
			got = append(got, k+"="+v.String())
			return true
		})
	})
	if want := []string{"a|1=kept", "h|1=fresh"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replica rows after the late snapshot = %q, want %q", got, want)
	}
	if n := s.repl.snapshot(); n != 2 {
		t.Fatalf("%d synced copies, want 2", n)
	}
}

// TestQuiesceWaitsForReplicaSync: a replica sync that has not landed —
// still dialing its home, or, as scripted here, waiting for the home's
// snapshot — holds quiesce, so the copies a failover promotes from are
// complete once quiesce returns. The home answers every fence at once;
// only the snapshot is late.
func TestQuiesceWaitsForReplicaSync(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	home := newFakeHome(t)
	// Owner 0 [, m) is homed at the scripted home, owner 1 here: with two
	// copies this member holds owner 0's range.
	replicate(t, s, at(t, 1, []string{"m"}, home.addr(), "holder:1").For("holder:1"), 2)
	home.accept()
	scan := home.read(rpc.MsgScan)
	msgs := make(chan *rpc.Message, 4)
	go func() {
		defer close(msgs)
		for {
			m, _, err := rpc.ReadMessage(home.br, nil)
			if err != nil {
				return
			}
			msgs <- m
		}
	}()
	quiesced := make(chan error, 1)
	go func() { quiesced <- s.quiesce(time.Now().Add(5 * time.Second)) }()
	// answer serves the home's fences until quiesce returns (true) or
	// wait fires (false).
	answer := func(wait <-chan time.Time) (bool, error) {
		for {
			select {
			case err := <-quiesced:
				return true, err
			case m, ok := <-msgs:
				if !ok {
					t.Fatal("home connection closed")
				}
				if m.Type != rpc.MsgPing {
					t.Fatalf("home read message type %v, want a fence ping", m.Type)
				}
				home.send(rpc.OKReply(m.Seq))
			case <-wait:
				return false, nil
			}
		}
	}
	if returned, err := answer(time.After(100 * time.Millisecond)); returned {
		t.Fatalf("quiesce returned (err %v) before the replica snapshot landed", err)
	}
	home.reply(scan, "a|1=copied")
	if _, err := answer(nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	s.pool.Shard(0).WithEngine(func(e *core.Engine) {
		e.Store().Scan("", "", func(k string, v *store.Value) bool {
			got = append(got, k+"="+v.String())
			return true
		})
	})
	if want := []string{"a|1=copied"}; !reflect.DeepEqual(got, want) || s.repl.snapshot() != 1 {
		t.Fatalf("after quiesce: replica rows %q, %d synced copies; want %q, 1", got, s.repl.snapshot(), want)
	}
}

// startHome starts a plain server and returns it with its address.
func startHome(t *testing.T) (h struct {
	s    *Server
	addr string
}) {
	t.Helper()
	var err error
	if h.s, err = New(Config{Name: "home"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.s.Close)
	if h.addr, err = h.s.Start(); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestUpstreamRemembersLostPeers: a redial hides a failed connection
// from the next caller, but not from the watchdog — the subscriptions
// it carried are gone either way.
func TestUpstreamRemembersLostPeers(t *testing.T) {
	addr := startHome(t).addr
	up := newUpstream(func(string, string) bool { return true }, func([]core.Change) {})
	defer up.closeAll()
	p, err := up.conn(addr)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := up.conn(addr); again != p {
		t.Fatal("second conn dialed again")
	}
	if lost := up.retireFailed(); len(lost) != 0 {
		t.Fatalf("healthy peer retired: %v", lost)
	}
	p.c.Close()
	p2, err := up.conn(addr)
	if err != nil || p2 == p || p2.c.Failed() {
		t.Fatalf("conn after failure = %v, %v; want a fresh connection", p2, err)
	}
	if lost := up.retireFailed(); !reflect.DeepEqual(lost, []string{addr}) {
		t.Fatalf("retireFailed after a redial = %v, want [%s]", lost, addr)
	}
	if lost := up.retireFailed(); len(lost) != 0 {
		t.Fatalf("loss reported twice: %v", lost)
	}
	up.closeAll()
	if _, err := up.conn(addr); !errors.Is(err, errUpstreamClosed) {
		t.Fatalf("conn after closeAll: %v, want errUpstreamClosed", err)
	}
}

// TestUnnamedMemberHoldsNothing: a member a MapUpdate names for no
// range — the view a drain's last extract leaves it — closes every peer
// connection and drops every replica hold, and its loader dials nothing.
// A stale MapUpdate carrying a copy count does not wire it back; a
// MapUpdate naming it again lets it dial its homes.
func TestUnnamedMemberHoldsNothing(t *testing.T) {
	home := startHome(t)
	home.s.pool.Put("b|1", "v")
	s, err := New(Config{Name: "member"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	synced := func(why string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.repl.snapshot() != 1 || len(s.up.conns(home.addr)) != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the hold never synced over a connection to its home", why)
			}
		}
	}
	holdsNothing := func(why string) {
		t.Helper()
		s.watchPass() // a pass restarts any sync a hold still wants
		if n, h := len(s.up.conns("")), holdCount(s); n != 0 || h != 0 {
			t.Fatalf("%s: %d peer connections, %d holds; want none", why, n, h)
		}
	}
	// This member owns everything from "m" and, with two copies, holds a
	// copy of the home's range below it.
	named := mustView(t, partition.MustNew("m"), []string{home.addr, addr}, 1)
	replicate(t, s, named, 2)
	synced("named")

	publish(t, s, at(t, 1, nil, home.addr))
	holdsNothing("named for no range")
	newRemoteLoader(s).fetch([]core.Load{{Table: "b", R: keys.Range{Lo: "b|", Hi: "b}"}}}, loadAttempts)
	holdsNothing("after a load")
	replicate(t, s, named, 2)
	holdsNothing("after a stale MapUpdate")

	replicate(t, s, at(t, 2, []string{"m"}, home.addr, addr).For(addr), 2)
	synced("named again")
}

// holdCount is the number of replica holds s keeps.
func holdCount(s *Server) int {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return len(s.repl.held)
}

// TestTeardownJoinsWatchdogAndSyncs closes a replica holder — or drains
// it, with a MapUpdate that names it for no range — while its holds are
// being re-snapshotted over the one upstream over and over: once the
// teardown returns, nothing lands a replica snapshot (each drops the old
// copy, then holds the new one) in the pool afterwards — the engine's
// counters stand still — and the member holds nothing; once Close
// returns, the watchdog and every sync goroutine are gone.
func TestTeardownJoinsWatchdogAndSyncs(t *testing.T) {
	home := startHome(t)
	for i := 0; i < 64; i++ {
		home.s.pool.Put(fmt.Sprintf("b|%03d", i), "v")
	}
	for round := 0; round < 12; round++ {
		drain := round%2 == 1
		s, err := New(Config{Name: "holder"})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Start()
		if err != nil {
			t.Fatal(err)
		}
		// Owner 0 (everything below "m") is the home; this member owns the
		// rest and, with two copies, holds a replica of owner 0's range.
		v := mustView(t, partition.MustNew("m"), []string{home.addr, addr}, 1)
		replicate(t, s, v, 2)
		st := s.repl
		for deadline := time.Now().Add(5 * time.Second); st.snapshot() != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("replica never synced")
			}
		}

		stop := make(chan struct{})
		var kicker sync.WaitGroup
		kicker.Add(1)
		go func() {
			defer kicker.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.mu.Lock()
				for _, h := range st.held {
					h.synced = false
				}
				st.mu.Unlock()
				s.watchPass()
			}
		}()
		time.Sleep(time.Duration(1+round) * time.Millisecond)
		if drain {
			// The view a drain's last extract installs: this member's
			// range merged into the home's, naming it for nothing.
			publish(t, s, at(t, v.Map().Version()+1, nil, home.addr))
		} else {
			s.Close()
		}
		before := s.pool.Stats()
		close(stop)
		kicker.Wait()
		s.watchPass() // after a teardown a pass finds nothing to do
		time.Sleep(10 * time.Millisecond)
		if after := s.pool.Stats(); after != before {
			t.Fatalf("round %d: the pool moved after the teardown returned:\n  %+v\nthen\n  %+v", round, before, after)
		}
		if n := holdCount(s); n != 0 {
			t.Fatalf("round %d: %d replica holds survived the teardown", round, n)
		}
		if drain {
			s.Close()
		}
		select {
		case <-s.watchDone:
		default:
			t.Fatalf("round %d: Close returned with the watchdog still running", round)
		}
	}
}
