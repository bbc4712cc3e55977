package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
	"pequod/internal/perrs"
)

// readForms are the three reads that share the step: each reads ann's
// timeline (Get: one key of it) and reports how many rows it saw.
var readForms = []struct {
	name string
	read func(p *Pool, key string, maxStale time.Duration, dl time.Time) (int, error)
}{
	{"Get", func(p *Pool, key string, maxStale time.Duration, dl time.Time) (int, error) {
		_, ok, err := p.GetBounded(key, maxStale, dl)
		if ok {
			return 1, err
		}
		return 0, err
	}},
	{"Scan", func(p *Pool, _ string, maxStale time.Duration, dl time.Time) (int, error) {
		kvs, err := p.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, maxStale, dl)
		return len(kvs), err
	}},
	{"Count", func(p *Pool, _ string, maxStale time.Duration, dl time.Time) (int, error) {
		return p.CountBounded("t|ann|", "t|ann}", maxStale, dl)
	}},
}

type stepResult struct {
	n   int
	err error
}

// homeLoader lands every load it is handed with the rows of home that
// fall in it — once released; until then the reads that started them
// stay parked.
type homeLoader struct {
	sh      *Shard
	home    []core.KV
	started chan struct{} // one token per StartLoads call
	release chan struct{} // closed to let loads land
}

func (l *homeLoader) StartLoads(loads []core.Load) {
	l.started <- struct{}{}
	go func() {
		<-l.release
		var rows []core.KV
		for _, ld := range loads {
			for _, kv := range l.home {
				if ld.R.Contains(kv.Key) {
					rows = append(rows, kv)
				}
			}
		}
		l.sh.LoadsDone(rows, loads, nil)
	}()
}

// coldPool builds a member pool whose join sources are loader-backed:
// one homeLoader, behind the returned release.
func coldPool(t *testing.T, home []core.KV) (*Pool, *homeLoader, func()) {
	t.Helper()
	p := newPool(t, Config{})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	ld := &homeLoader{sh: p.Shard(0), home: home, started: make(chan struct{}, 16), release: release}
	p.Shard(0).SetLoader(ld, "s", "p")
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	return p, ld, open
}

// TestStepTable runs the locked retry step's outcomes — everything that
// can happen to a read between routing and its reply — against each of
// the reads built on it.
func TestStepTable(t *testing.T) {
	home := []core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "p|bob|100", Value: "Hi"}}
	const bobs = "t|ann|100|bob"
	for _, f := range readForms {
		start := func(p *Pool, key string, maxStale time.Duration, dl time.Time) chan stepResult {
			res := make(chan stepResult, 1)
			go func() {
				n, err := f.read(p, key, maxStale, dl)
				res <- stepResult{n, err}
			}()
			return res
		}

		t.Run(f.name+"/gate bounce carries the view", func(t *testing.T) {
			peers := []string{"a:1", "a:2"}
			p, ld, _ := coldPool(t, home)
			p.ApplyMapUpdate(viewAt(t, 0, 0, "m", peers, 1)) // owns [m, +inf): s|, p| and t|
			res := start(p, bobs, 0, time.Time{})
			<-ld.started
			// The range leaves while the read waits; the extraction abandons
			// the load, and the woken read must bounce with the new view.
			next := viewAt(t, 0, 1, "u", peers, 1)
			if _, err := p.ExtractClusterRange(keys.Range{Lo: "m", Hi: "u"}, next); err != nil {
				t.Fatal(err)
			}
			var noe *partition.NotOwnerError
			if r := <-res; !errors.As(r.err, &noe) || noe.View != next {
				t.Fatalf("read woken after the range left = %d rows, %v", r.n, r.err)
			}
			// ...as does one that arrives afterwards.
			if _, err := f.read(p, bobs, 0, time.Time{}); !errors.As(err, &noe) || noe.View != next {
				t.Fatalf("read of a range homed elsewhere = %v", err)
			}
		})

		t.Run(f.name+"/deadline", func(t *testing.T) {
			p, _, _ := coldPool(t, home) // loads start and do not land
			dl := func() time.Time { return time.Now().Add(5 * time.Millisecond) }
			if _, err := f.read(p, bobs, 0, dl()); !errors.Is(err, ErrDeadline) || errors.Is(err, perrs.ErrOverBudget) {
				t.Fatalf("fresh read past its deadline = %v, want plain ErrDeadline", err)
			}
			if _, err := f.read(p, bobs, 50*time.Millisecond, dl()); !errors.Is(err, ErrDeadline) || !errors.Is(err, perrs.ErrOverBudget) {
				t.Fatalf("bounded read past its deadline = %v, want ErrOverBudget and ErrDeadline", err)
			}
		})

		t.Run(f.name+"/queue lag over budget reads fresh", func(t *testing.T) {
			p := newPool(t, Config{})
			if err := p.InstallText(timelineJoin); err != nil {
				t.Fatal(err)
			}
			for _, kv := range home {
				p.Put(kv.Key, kv.Value)
			}
			const lizs, budget = "t|ann|150|liz", time.Minute
			if n := len(p.Scan("t|ann|", "t|ann}", 0, nil, nil)); n != 1 { // materialise the timeline
				t.Fatalf("warm-up scan = %d rows", n)
			}
			p.Put("p|liz|150", "Yo")
			p.Put("s|ann|liz", "1") // a lazy log entry on ann's timeline, well within budget
			stale := 1
			if f.name == "Get" {
				stale = 0 // liz's row is not there yet
			}
			if n, err := f.read(p, lizs, budget, time.Time{}); err != nil || n != stale {
				t.Fatalf("bounded read with an idle queue = %d rows, %v; want the stale %d", n, err, stale)
			}
			// The forwarded-write queue now lags an hour: what the shard has
			// applied may be arbitrarily old, so the budget buys nothing.
			sh := p.Shard(0)
			sh.qmu.Lock()
			sh.busy, sh.batchAt = true, time.Now().Add(-time.Hour)
			sh.qmu.Unlock()
			n, err := f.read(p, lizs, budget, time.Time{})
			sh.qmu.Lock()
			sh.busy = false
			sh.qmu.Unlock()
			if err != nil || n != stale+1 {
				t.Fatalf("bounded read behind a lagging queue = %d rows, %v; want the fresh %d", n, err, stale+1)
			}
		})
	}
}

// TestGatherOverPool: the three things the split–gather–re-split helper
// promises, seen through Pool.ScanBounded (TestGatherOverCluster shows
// the same three over the wire; partition's TestGather scripts the
// helper itself).
func TestGatherOverPool(t *testing.T) {
	home := []core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "s|zed|bob", Value: "1"},
		{Key: "p|bob|100", Value: "Hi"}, {Key: "p|bob|200", Value: "Yo"}}
	scans := func(p *Pool) (n [2]int64) {
		for i := range n {
			p.Shard(i).WithEngine(func(e *core.Engine) { n[i] = e.Stats().Scans })
		}
		return n
	}
	warm := func(t *testing.T) *Pool {
		p := newPool(t, Config{Shards: 2, Bounds: []string{"t|m"}}) // ann's timeline | zed's
		if err := p.InstallText(timelineJoin); err != nil {
			t.Fatal(err)
		}
		for _, kv := range home {
			p.Put(kv.Key, kv.Value)
		}
		p.Quiesce()
		return p
	}

	t.Run("a limit the first piece meets visits no second piece", func(t *testing.T) {
		p := warm(t)
		before := scans(p)
		kvs, err := p.ScanBounded("t|", "t}", 2, nil, nil, 0, time.Time{})
		after := scans(p)
		if err != nil || len(kvs) != 2 || kvs[1].Key != "t|ann|200|bob" || after[0] != before[0]+1 || after[1] != before[1] {
			t.Fatalf("limited scan = %v, %v; engine scans %v -> %v", kvs, err, before, after)
		}
	})

	t.Run("unlimited fans out", func(t *testing.T) {
		p := warm(t)
		before := scans(p)
		kvs, err := p.ScanBounded("t|", "t}", 0, nil, nil, 0, time.Time{})
		after := scans(p)
		if err != nil || len(kvs) != 4 || kvs[0].Key != "t|ann|100|bob" || kvs[3].Key != "t|zed|200|bob" ||
			after[0] != before[0]+1 || after[1] != before[1]+1 {
			t.Fatalf("unlimited scan = %v, %v; engine scans %v -> %v", kvs, err, before, after)
		}
		if n, err := p.CountBounded("t|", "t}", 0, time.Time{}); err != nil || n != 4 {
			t.Fatalf("count = %d, %v", n, err)
		}
	})

	t.Run("a moved piece re-splits against the new map", func(t *testing.T) {
		// ann's timeline | nobody's | zed's. A limit keeps the pieces in
		// order, and computing ann's timeline in the first one moves zed's
		// range into the middle shard — the hook runs under shard 0's
		// lock, the move takes shards 1 and 2 — so the third piece finds
		// its range gone and the scan re-splits.
		p := newPool(t, Config{Bounds: []string{"t|g", "t|m"}})
		if err := p.InstallText(timelineJoin); err != nil {
			t.Fatal(err)
		}
		for _, kv := range home {
			p.Put(kv.Key, kv.Value)
		}
		p.Quiesce()
		var once sync.Once
		p.SetHook(func(core.Change) {
			once.Do(func() {
				if err := p.MoveBound(1, "t|zz"); err != nil {
					t.Error(err)
				}
			})
		})
		kvs, err := p.ScanBounded("t|", "t}", len(home)+1, nil, nil, 0, time.Time{})
		if err != nil || len(kvs) != 4 || kvs[0].Key != "t|ann|100|bob" || kvs[3].Key != "t|zed|200|bob" {
			t.Fatalf("scan across a bound that moved under it = %v, %v", kvs, err)
		}
		var rows [3]int
		for i := range rows {
			p.Shard(i).WithEngine(func(e *core.Engine) { rows[i] = e.Store().CountRange("t|", "t}") })
		}
		if rows != [3]int{2, 2, 0} {
			t.Fatalf("timeline rows per shard after the re-split = %v, want zed's at its new owner", rows)
		}
	})
}
