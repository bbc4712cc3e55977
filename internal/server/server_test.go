package server

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pequod/internal/backdb"
	"pequod/internal/client"
	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/rpc"
	"pequod/internal/shard"
)

const timelineJoin = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

func startServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c
}

// addJoin installs cache joins over c ("add-join" RPC, §3).
func addJoin(c *client.Client, text string) error {
	_, err := c.Do(context.Background(), &rpc.Message{Type: rpc.MsgAddJoin, Text: text})
	return err
}

// TestServerIsOneEngine: whatever it is configured with, a server is one
// engine — more cores means more members — so its stat reply reports one
// shard.
func TestServerIsOneEngine(t *testing.T) {
	s, c := startServer(t, Config{
		Name: "one", Joins: timelineJoin,
		DataDir: t.TempDir(), ScrubInterval: -1,
	})
	if n := s.Pool().NumShards(); n != 1 {
		t.Fatalf("server pool has %d engines, want 1", n)
	}
	st, err := c.StatSnapshot(context.Background())
	if err != nil || st.Shards != 1 {
		t.Fatalf("stat = %+v, %v; want one shard", st, err)
	}
}

func TestBasicOps(t *testing.T) {
	_, c := startServer(t, Config{Name: "basic"})
	if err := c.Put("p|bob|100", "Hi"); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("p|bob|100")
	if err != nil || !found || v != "Hi" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
	if _, found, _ := c.Get("p|bob|999"); found {
		t.Fatal("absent key found")
	}
	had, err := c.Remove("p|bob|100")
	if err != nil || !had {
		t.Fatal("Remove")
	}
	if had, _ := c.Remove("p|bob|100"); had {
		t.Fatal("double remove")
	}
}

func TestScanAndCount(t *testing.T) {
	_, c := startServer(t, Config{})
	for i := 0; i < 20; i++ {
		if err := c.Put(fmt.Sprintf("a|%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := c.Scan("a|05", "a|10", 0)
	if err != nil || len(kvs) != 5 {
		t.Fatalf("Scan = %v, %v", kvs, err)
	}
	kvs, _ = c.Scan("a|", "a}", 7)
	if len(kvs) != 7 {
		t.Fatalf("limited scan = %d", len(kvs))
	}
	n, err := c.Count("a|", "a}")
	if err != nil || n != 20 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

func TestJoinOverRPC(t *testing.T) {
	_, c := startServer(t, Config{})
	if err := addJoin(c, timelineJoin); err != nil {
		t.Fatal(err)
	}
	if err := addJoin(c, "garbage"); err == nil {
		t.Fatal("bad join accepted")
	}
	c.Put("s|ann|bob", "1")
	c.Put("p|bob|100", "Hi")
	kvs, err := c.Scan("t|ann|", "t|ann}", 0)
	if err != nil || len(kvs) != 1 || kvs[0].Key != "t|ann|100|bob" || kvs[0].Value != "Hi" {
		t.Fatalf("timeline = %v, %v", kvs, err)
	}
	// Incremental maintenance visible over RPC.
	c.Put("p|bob|120", "again")
	v, found, _ := c.Get("t|ann|120|bob")
	if !found || v != "again" {
		t.Fatal("incremental update")
	}
}

func TestConfiguredJoins(t *testing.T) {
	_, c := startServer(t, Config{Joins: timelineJoin})
	c.Put("s|ann|bob", "1")
	c.Put("p|bob|100", "Hi")
	kvs, _ := c.Scan("t|ann|", "t|ann}", 0)
	if len(kvs) != 1 {
		t.Fatalf("timeline = %v", kvs)
	}
}

func TestStat(t *testing.T) {
	_, c := startServer(t, Config{Name: "statsrv"})
	c.Put("x|1", "v")
	st, err := c.Stat()
	if err != nil || !strings.Contains(st, `"statsrv"`) || !strings.Contains(st, `"entries":1`) {
		t.Fatalf("Stat = %s, %v", st, err)
	}
}

func TestPipelinedClients(t *testing.T) {
	_, c := startServer(t, Config{})
	// Many outstanding RPCs from concurrent goroutines on one connection.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			futs := make([]*client.Future, 100)
			for i := range futs {
				futs[i] = c.PutAsync(fmt.Sprintf("k|%d|%03d", g, i), "v")
			}
			for _, f := range futs {
				if m, err := f.Wait(); err != nil || m.Status != rpc.StatusOK {
					t.Errorf("async put failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	n, _ := c.Count("k|", "k}")
	if n != 800 {
		t.Fatalf("Count = %d", n)
	}
}

func TestWriteAroundDatabase(t *testing.T) {
	// §2's deployment: application writes go to the database; Pequod
	// loads on demand and the database keeps it fresh via notification.
	db := backdb.New()
	defer db.Close()
	db.Put("s|ann|bob", "1")
	db.Put("p|bob|100", "from the db")

	s, c := startServer(t, Config{Joins: timelineJoin})
	s.AttachDB(db, "s", "p")

	kvs, err := c.Scan("t|ann|", "t|ann}", 0)
	if err != nil || len(kvs) != 1 || kvs[0].Value != "from the db" {
		t.Fatalf("timeline from db = %v, %v", kvs, err)
	}

	// A database write (application write-around path) must reach the
	// cached timeline via notification.
	db.Put("p|bob|150", "fresh")
	db.Quiesce()
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, found, _ := c.Get("t|ann|150|bob")
		if found && v == "fresh" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("database notification did not reach the timeline")
		}
		time.Sleep(time.Millisecond)
	}

	// Database deletes propagate too.
	db.Delete("p|bob|100")
	db.Quiesce()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if _, found, _ := c.Get("t|ann|100|bob"); !found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("database delete did not reach the timeline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDistributedSubscriptions runs the paper's §2.4 topology: base
// (home) servers absorb writes, a compute server executes the timeline
// join, fetching base data remotely with subscriptions.
func TestDistributedSubscriptions(t *testing.T) {
	// Two home servers partitioned on poster; one compute server.
	home0, err := New(Config{Name: "home0"})
	if err != nil {
		t.Fatal(err)
	}
	home1, err := New(Config{Name: "home1"})
	if err != nil {
		t.Fatal(err)
	}
	addr0, _ := home0.Start()
	addr1, _ := home1.Start()
	defer home0.Close()
	defer home1.Close()

	// Posters a..m on home0, n..z on home1 (for both p and s tables).
	pmap := partition.MustNew("p|n", "s|", "s|n")
	// Owners: [, p|n) -> 0, [p|n, s|) -> 1, [s|, s|n) -> 2, [s|n, ) -> 3.
	// Map owner index to address by taking owner%2 (p and s shard alike).
	addrs := []string{addr0, addr1, addr0, addr1}

	compute, err := New(Config{Name: "compute", Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	caddr, _ := compute.Start()
	defer compute.Close()
	// The compute server's view adds one range, the timelines, which it
	// serves itself.
	bounds := append(pmap.Bounds(), "t|")
	publish(t, compute, mustView(t, partition.MustNew(bounds...), append(addrs, caddr), 4))

	h0, _ := client.Dial(addr0)
	h1, _ := client.Dial(addr1)
	cc, _ := client.Dial(caddr)
	defer h0.Close()
	defer h1.Close()
	defer cc.Close()

	// Writes go to home servers: posts partition by poster, subscriptions
	// by subscribing user (both of ann's subscriptions live on home0).
	h0.Put("s|ann|bob", "1")
	h0.Put("s|ann|zed", "1")
	h0.Put("p|bob|100", "bob's tweet")
	h1.Put("p|zed|150", "zed's tweet")

	// Timeline read at the compute server pulls from both homes.
	kvs, err := cc.Scan("t|ann|", "t|ann}", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != "t|ann|100|bob" || kvs[1].Key != "t|ann|150|zed" {
		t.Fatalf("distributed timeline = %v", kvs)
	}

	// New posts at the home servers flow through subscriptions to the
	// compute server's materialized timeline (eventual consistency).
	h0.Put("p|bob|200", "more bob")
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, found, _ := cc.Get("t|ann|200|bob")
		if found && v == "more bob" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription push did not arrive")
		}
		time.Sleep(time.Millisecond)
	}

	// Removals propagate as well.
	h1.Remove("p|zed|150")
	deadline = time.Now().Add(2 * time.Second)
	for {
		if _, found, _ := cc.Get("t|ann|150|zed"); !found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription removal did not arrive")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinInstallWiresMeshSources: a member meshed before it has any
// join learns which tables to load remotely from the joins it installs
// later — the install wires the sources it adds before any join can
// compute over them, so the first timeline read fetches them from
// their home instead of computing over nothing.
func TestJoinInstallWiresMeshSources(t *testing.T) {
	start := func(name string) (*Server, *client.Client, string) {
		s, err := New(Config{Name: name})
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
		return s, c, addr
	}
	_, hc, haddr := start("home")
	compute, cc, caddr := start("compute")
	publish(t, compute, mustView(t, partition.MustNew("t|"), []string{haddr, caddr}, 1))
	hc.Put("s|ann|bob", "1")
	hc.Put("p|bob|100", "Hi")
	if err := addJoin(cc, timelineJoin); err != nil {
		t.Fatal(err)
	}
	if kvs, err := cc.Scan("t|ann|", "t|ann}", 0); err != nil || len(kvs) != 1 || kvs[0].Value != "Hi" {
		t.Fatalf("timeline after the join install = %v, %v", kvs, err)
	}
}

func TestConnCloseCleansSubscriptions(t *testing.T) {
	s, c := startServer(t, Config{})
	c.Put("p|x|1", "v")
	// Subscribe via scan flag.
	m, err := c.ScanAsync("p|", "p}", 0, true).Wait()
	if err != nil || m.Status != rpc.StatusOK {
		t.Fatal(err)
	}
	s.smu.Lock()
	n := s.subs.Len()
	s.smu.Unlock()
	if n != 1 {
		t.Fatalf("subscriptions = %d", n)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.smu.Lock()
		n = s.subs.Len()
		s.smu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscription leaked after close")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNotifyFrameWritesNothing: a Notify frame is a server's push to
// its subscribers, never a request. Sent to a gated member, it writes
// nothing — not even over keys the member owns, which a client's Put
// passes the gate for — and the connection goes on serving.
func TestNotifyFrameWritesNothing(t *testing.T) {
	s, c := startServer(t, Config{})
	s.pool.ApplyMapUpdate(mustView(t, partition.MustNew("m"), []string{"member:1", "127.0.0.1:1"}, 0))
	if err := c.Put("a|2", "kept"); err != nil {
		t.Fatal(err)
	}
	c.Send(context.Background(), &rpc.Message{Type: rpc.MsgNotify, Changes: []rpc.Change{
		{Op: rpc.ChangePut, Key: "a|1", Value: "forged"},
		{Op: rpc.ChangeRemove, Key: "a|2"},
	}})
	// The connection serves requests in order, so these follow the frame.
	if _, found, err := c.Get("a|1"); err != nil || found {
		t.Fatalf("Get a|1 after the Notify: found %v, err %v; want absent", found, err)
	}
	if v, found, err := c.Get("a|2"); err != nil || !found || v != "kept" {
		t.Fatalf("Get a|2 after the Notify = %q, %v, %v; want kept", v, found, err)
	}
	if n := s.pool.Len(); n != 1 {
		t.Fatalf("%d rows after the Notify, want 1", n)
	}
}

// scanPool scans [lo, hi) at s's pool the way a parked request is
// served: retried on each restart context until it completes, or fails
// with errDeadline once d has passed.
func scanPool(s *Server, lo, hi string, d time.Duration) ([]core.KV, error) {
	expired := time.After(d)
	for {
		kvs, err := s.pool.ScanBounded(lo, hi, 0, nil, nil, 0)
		lp, ok := err.(*shard.LoadPending)
		if !ok {
			return kvs, err
		}
		select {
		case <-lp.W.Done():
		case <-expired:
			return nil, errDeadline
		}
	}
}

// mustView pairs a map with its addresses as the view held by the
// process serving the self owner indexes.
func mustView(tb testing.TB, m *partition.Map, addrs []string, self ...int) *partition.View {
	tb.Helper()
	v, err := partition.NewView(m, addrs)
	if err == nil {
		v, err = v.WithSelf(self)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// at is the view over bounds served by addrs at version, naming no self
// (View.For gives a member's form).
func at(tb testing.TB, version int64, bounds []string, addrs ...string) *partition.View {
	tb.Helper()
	v, err := partition.Wire{Version: version, Bounds: bounds, Peers: addrs}.View()
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// replicate hands s the MapUpdate a replicating coordinator publishes:
// view v and the copies per range.
func replicate(tb testing.TB, s *Server, v *partition.View, copies int) {
	tb.Helper()
	m := &rpc.Message{Type: rpc.MsgMapUpdate, Map: v.Wire(), Limit: copies}
	if r := s.handle(nil, m); r.Status != rpc.StatusOK {
		tb.Fatalf("MapUpdate: %s", r.Err)
	}
}

// publish hands s the MapUpdate that installs view v, with no copy
// count: the gate that, the first time, wires the member's mesh loader.
func publish(tb testing.TB, s *Server, v *partition.View) {
	tb.Helper()
	replicate(tb, s, v, 0)
}

// TestOnePushPerConnection: a connection whose subscriptions overlap —
// a member that loaded a range before its replica hold over it synced —
// is pushed a change to their common keys once.
func TestOnePushPerConnection(t *testing.T) {
	home := startHome(t)
	c, err := client.Dial(home.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var got []string
	c.OnNotify = func(cs []rpc.Change) {
		mu.Lock()
		defer mu.Unlock()
		for _, ch := range cs {
			got = append(got, ch.Key+"="+ch.Value)
		}
	}
	for _, r := range []keys.Range{{Lo: "p|", Hi: "p}"}, {Lo: "p|bob|", Hi: "p|bob}"}} {
		if m, err := c.ScanAsync(r.Lo, r.Hi, 0, true).Wait(); err != nil || m.Status != rpc.StatusOK {
			t.Fatalf("subscribing scan of %v = %+v, %v", r, m, err)
		}
	}
	if n := home.s.nsubs.Load(); n != 2 {
		t.Fatalf("home holds %d subscriptions, want the two overlapping ones", n)
	}
	if err := home.s.pool.Put("p|bob|100", "hi"); err != nil {
		t.Fatal(err)
	}
	// The ping's reply follows every push queued for the connection.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"p|bob|100=hi"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pushed %q, want %q", got, want)
	}
}
