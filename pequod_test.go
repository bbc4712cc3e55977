package pequod

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

const timelineJoin = "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

func TestEmbeddedCacheQuickstart(t *testing.T) {
	ctx := context.Background()
	c, err := NewCache(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Install(ctx, timelineJoin); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Put(ctx, "s|ann|bob", "1"))
	must(c.Put(ctx, "p|bob|100", "Hi"))
	r := ScanRange("t", "ann")
	kvs, err := c.Scan(ctx, r.Lo, r.Hi, 0)
	must(err)
	if len(kvs) != 1 || kvs[0].Key != "t|ann|100|bob" || kvs[0].Value != "Hi" {
		t.Fatalf("timeline = %v", kvs)
	}
	if v, ok, err := c.Get(ctx, "t|ann|100|bob"); err != nil || !ok || v != "Hi" {
		t.Fatal("get")
	}
	if n, err := c.Count(ctx, r.Lo, r.Hi); err != nil || n != 1 {
		t.Fatal("count")
	}
	if found, err := c.Remove(ctx, "p|bob|100"); err != nil || !found {
		t.Fatal("remove")
	}
	if kvs, err := c.Scan(ctx, r.Lo, r.Hi, 0); err != nil || len(kvs) != 0 {
		t.Fatalf("after remove: %v", kvs)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.JoinExecs == 0 {
		t.Fatal("stats")
	}
	if c.Bytes() <= 0 || c.Len() == 0 {
		t.Fatal("size accounting")
	}
}

func TestNewCacheError(t *testing.T) {
	if _, err := NewCache(Options{}, WithShards(3), WithBounds("m")); err == nil {
		t.Fatal("mismatched shards/bounds accepted")
	}
	if _, err := NewCache(Options{}, WithBounds("b", "a")); err == nil {
		t.Fatal("decreasing bounds accepted")
	}
}

func TestInstallError(t *testing.T) {
	ctx := context.Background()
	c, err := NewCache(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Install(ctx, "bogus join"); err == nil {
		t.Fatal("bad join accepted")
	}
	if err := ParseJoins("also bogus"); err == nil {
		t.Fatal("ParseJoins accepted garbage")
	}
	if err := ParseJoins("a|<x> = copy b|<x>"); err != nil {
		t.Fatal(err)
	}
}

func TestKeyHelpers(t *testing.T) {
	if JoinKey("t", "ann", "100") != "t|ann|100" {
		t.Fatal("JoinKey")
	}
	parts := SplitKey("t|ann|100")
	if len(parts) != 3 || parts[1] != "ann" {
		t.Fatal("SplitKey")
	}
	if PrefixEnd("t|ann|") != "t|ann}" {
		t.Fatal("PrefixEnd")
	}
	lo, hi := RangeOf("t", "ann")
	if lo != "t|ann|" || hi != "t|ann}" {
		t.Fatal("RangeOf")
	}
	if r := ScanRange("t", "ann"); r.Lo != lo || r.Hi != hi {
		t.Fatal("ScanRange")
	}
}

func TestNetworkedQuickstart(t *testing.T) {
	ctx := context.Background()
	s, err := NewServer(ServerConfig{Name: "facade-test"})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Install(ctx, "karma|<a> = count vote|<a>|<id>|<v>"); err != nil {
		t.Fatal(err)
	}
	var votes []KV
	for i := 0; i < 5; i++ {
		votes = append(votes, KV{Key: fmt.Sprintf("vote|liz|a1|u%d", i), Value: "1"})
	}
	if err := c.PutBatch(ctx, votes); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(ctx, "karma|liz")
	if err != nil || !found || v != "5" {
		t.Fatalf("karma = %q %v %v", v, found, err)
	}
	if c.RPCs() == 0 {
		t.Fatal("RPC counter")
	}
}

func TestWriteAroundQuickstart(t *testing.T) {
	ctx := context.Background()
	db := NewDB()
	defer db.Close()
	db.Put("p|bob|100", "from the database")
	db.Put("s|ann|bob", "1")

	s, err := NewServer(ServerConfig{Joins: timelineJoin})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachDB(db, "p", "s")
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kvs, err := c.Scan(ctx, "t|ann|", PrefixEnd("t|ann|"), 0)
	if err != nil || len(kvs) != 1 || kvs[0].Value != "from the database" {
		t.Fatalf("write-around timeline = %v, %v", kvs, err)
	}
}

// TestStorePolymorphism runs the same application code against all
// three deployment shapes through the Store interface — the point of
// the unified API.
func TestStorePolymorphism(t *testing.T) {
	ctx := context.Background()

	embedded, err := NewCache(Options{})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	networked, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		m, err := NewServer(ServerConfig{Name: fmt.Sprintf("m%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		a, err := m.Start()
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		addrs = append(addrs, a)
	}
	clustered, err := NewCluster(ctx, ClusterConfig{Addrs: addrs, Bounds: []string{"t|"}})
	if err != nil {
		t.Fatal(err)
	}

	var results [][]KV
	for _, store := range []Store{embedded, networked, clustered} {
		if err := store.Install(ctx, timelineJoin); err != nil {
			t.Fatal(err)
		}
		if err := store.PutBatch(ctx, []KV{
			{Key: "s|ann|bob", Value: "1"},
			{Key: "p|bob|100", Value: "Hi"},
			{Key: "p|bob|120", Value: "again"},
		}); err != nil {
			t.Fatal(err)
		}
		if err := store.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
		r := ScanRange("t", "ann")
		kvs, err := store.Scan(ctx, r.Lo, r.Hi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := store.Count(ctx, r.Lo, r.Hi); err != nil || n != int64(len(kvs)) {
			t.Fatalf("count = %d, %v", n, err)
		}
		ls, err := store.GetBatch(ctx, []string{"t|ann|100|bob", "t|ann|999|bob"})
		if err != nil || !ls[0].Found || ls[0].Value != "Hi" || ls[1].Found {
			t.Fatalf("GetBatch = %+v, %v", ls, err)
		}
		if found, err := store.Remove(ctx, "s|ann|bob"); err != nil || !found {
			t.Fatalf("Remove = %v, %v", found, err)
		}
		scans, err := store.ScanBatch(ctx, []Range{r, ScanRange("p", "bob")}, 0)
		if err != nil || len(scans) != 2 {
			t.Fatalf("ScanBatch = %v, %v", scans, err)
		}
		st, err := store.Stats(ctx)
		if err != nil || st.Puts == 0 {
			t.Fatalf("Stats = %+v, %v", st, err)
		}
		results = append(results, kvs)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// All three deployments computed the identical timeline.
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("deployment %d diverged: %v vs %v", i, results[i], results[0])
		}
	}
}

// TestClientCancellation: context expiry fails the call fast and leaves
// the connection usable (the issue's cancellation contract, at the
// public API level).
func TestClientCancellation(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(canceled, "k"); err == nil {
		t.Fatal("canceled Get succeeded")
	}
	if _, err := c.Scan(canceled, "", "", 0); err == nil {
		t.Fatal("canceled Scan succeeded")
	}
	ctx := context.Background()
	if err := c.Put(ctx, "k", "v"); err != nil {
		t.Fatalf("connection unusable after cancellation: %v", err)
	}
	if v, found, err := c.Get(ctx, "k"); err != nil || !found || v != "v" {
		t.Fatalf("Get after cancellation = %q %v %v", v, found, err)
	}
}

// TestDialContextCancellation: the connection attempt is bounded by the
// context instead of hanging for the kernel default.
func TestDialContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := DialContext(ctx, "203.0.113.1:9"); err == nil {
		t.Fatal("dial under canceled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial hung %v despite canceled context", elapsed)
	}
}

// TestWarmReadAllocations pins what a warm embedded read allocates: a
// timeline Scan and a Get of one of its rows, Twip-shaped keys, a
// four-shard cache. A warm Scan allocates its result and the closure
// the gather hands its pieces; a warm Get the upper bound of its point,
// key+"\x00", built once to route it and handed to the engine. Nothing
// else on the read path builds a string, so a closure or a key that
// starts escaping there shows here, not first in the benchmark.
func TestWarmReadAllocations(t *testing.T) {
	const maxScanAllocs, maxGetAllocs = 2, 1
	ctx := context.Background()
	c, err := NewCache(Options{}, WithBounds("p|", "s|", "t|"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Install(ctx, timelineJoin); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 8; f++ {
		c.Put(ctx, fmt.Sprintf("s|u0000007|u%07d", f), "1")
		for p := 0; p < 5; p++ {
			c.Put(ctx, fmt.Sprintf("p|u%07d|%010d", f, 100*p+f), "a tweet of the usual length, more or less")
		}
	}
	c.Quiesce(ctx)
	const lo, hi, key = "t|u0000007|", "t|u0000007}", "t|u0000007|0000000203|u0000003"
	if kvs, err := c.Scan(ctx, lo, hi, 0); err != nil || len(kvs) != 40 {
		t.Fatalf("timeline = %d rows, %v", len(kvs), err)
	}
	scan := testing.AllocsPerRun(200, func() {
		if kvs, err := c.Scan(ctx, lo, hi, 0); err != nil || len(kvs) != 40 {
			panic("warm scan")
		}
	})
	get := testing.AllocsPerRun(200, func() {
		if _, ok, err := c.Get(ctx, key); err != nil || !ok {
			panic("warm get")
		}
	})
	t.Logf("warm Scan %v allocs, warm Get %v", scan, get)
	if raceEnabled {
		return // the race detector's instrumentation allocates on its own
	}
	if scan > maxScanAllocs || get > maxGetAllocs {
		t.Fatalf("warm Scan allocates %v times (was %d), warm Get %v (was %d)", scan, maxScanAllocs, get, maxGetAllocs)
	}
}
