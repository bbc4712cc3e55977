package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pequod/internal/core"
	"pequod/internal/keys"
	"pequod/internal/partition"
)

// readForms are the three reads that share the step: each reads ann's
// timeline (Get: one key of it) and reports how many rows it saw.
var readForms = []struct {
	name string
	read func(p *Pool, key string, maxStale time.Duration) (int, error)
}{
	{"Get", func(p *Pool, key string, maxStale time.Duration) (int, error) {
		_, ok, err := p.GetBounded(key, maxStale)
		if ok {
			return 1, err
		}
		return 0, err
	}},
	{"Scan", func(p *Pool, _ string, maxStale time.Duration) (int, error) {
		kvs, err := p.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, maxStale)
		return len(kvs), err
	}},
	{"Count", func(p *Pool, _ string, maxStale time.Duration) (int, error) {
		return p.CountBounded("t|ann|", "t|ann}", maxStale)
	}},
}

// pendingWait returns the restart context a read that found base data
// loading reports, failing the test on any other outcome.
func pendingWait(t *testing.T, n int, err error) *core.LoadWait {
	t.Helper()
	var lp *LoadPending
	if !errors.As(err, &lp) || lp.W == nil {
		t.Fatalf("cold read = %d rows, %v; want its restart context", n, err)
	}
	return lp.W
}

// resolves waits for w's loads to resolve.
func resolves(t *testing.T, w *core.LoadWait) {
	t.Helper()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("restart context never resolved")
	}
}

// homeLoader lands every load it is handed with the rows of home that
// fall in it — once released; until then the restart contexts of the
// reads that started them stay unresolved.
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

// TestStepTable runs the locked step's outcomes — everything that can
// happen to one attempt of a read — against each of the reads built on
// it: a read that finds base data loading gets its restart context,
// which resolves when the loads do (or are abandoned), and the retry
// completes (or bounces).
func TestStepTable(t *testing.T) {
	home := []core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "p|bob|100", Value: "Hi"}}
	const bobs = "t|ann|100|bob"
	for _, f := range readForms {
		t.Run(f.name+"/gate bounce carries the view", func(t *testing.T) {
			peers := []string{"a:1", "a:2"}
			p, ld, _ := coldPool(t, home)
			p.ApplyMapUpdate(viewAt(t, 0, 0, "m", peers, 1)) // owns [m, +inf): s|, p| and t|
			n, err := f.read(p, bobs, 0)
			w := pendingWait(t, n, err)
			<-ld.started
			// The range leaves while the read is parked; the extraction
			// abandons the load, and the retry must bounce with the new view.
			next := viewAt(t, 0, 1, "u", peers, 1)
			if _, err := p.ExtractClusterRange(keys.Range{Lo: "m", Hi: "u"}, next); err != nil {
				t.Fatal(err)
			}
			resolves(t, w)
			var noe *partition.NotOwnerError
			if n, err = f.read(p, bobs, 0); !errors.As(err, &noe) || noe.View != next {
				t.Fatalf("retry after the range left = %d rows, %v", n, err)
			}
		})

		t.Run(f.name+"/load pending resolves and the retry completes", func(t *testing.T) {
			p, ld, open := coldPool(t, home)
			n, err := f.read(p, bobs, 0)
			w := pendingWait(t, n, err)
			<-ld.started
			select {
			case <-w.Done():
				t.Fatal("restart context resolved with its load still held")
			default:
			}
			open()
			// s|ann| lands first; a retry then finds p|bob| missing and
			// parks once more, and the one after that emits.
			for round := 0; ; round++ {
				resolves(t, w)
				if n, err = f.read(p, bobs, 0); err == nil {
					break
				}
				if round == 2 {
					t.Fatalf("retry %d still pending: %v", round, err)
				}
				w = pendingWait(t, n, err)
			}
			if n != 1 {
				t.Fatalf("completed retry = %d rows, want 1", n)
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
			if n, err := f.read(p, lizs, budget); err != nil || n != stale {
				t.Fatalf("bounded read with an idle queue = %d rows, %v; want the stale %d", n, err, stale)
			}
			// The forwarded-write queue now lags an hour: what the shard has
			// applied may be arbitrarily old, so the budget buys nothing.
			sh := p.Shard(0)
			sh.qmu.Lock()
			sh.busy, sh.batchAt = true, time.Now().Add(-time.Hour)
			sh.qmu.Unlock()
			n, err := f.read(p, lizs, budget)
			sh.qmu.Lock()
			sh.busy = false
			sh.qmu.Unlock()
			if err != nil || n != stale+1 {
				t.Fatalf("bounded read behind a lagging queue = %d rows, %v; want the fresh %d", n, err, stale+1)
			}
		})
	}
}

// TestGatherOverPool: what the split–gather–re-split helper promises
// over a pool's fixed map — a limit the first piece meets visits no
// second piece, an unlimited scan fans out — seen through
// Pool.ScanBounded. A pool's map never moves, so the re-split is
// TestGatherOverCluster's to show over the wire and partition's
// TestGather's to script.
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
		kvs, err := p.ScanBounded("t|", "t}", 2, nil, nil, 0)
		after := scans(p)
		if err != nil || len(kvs) != 2 || kvs[1].Key != "t|ann|200|bob" || after[0] != before[0]+1 || after[1] != before[1] {
			t.Fatalf("limited scan = %v, %v; engine scans %v -> %v", kvs, err, before, after)
		}
	})

	t.Run("unlimited fans out", func(t *testing.T) {
		p := warm(t)
		before := scans(p)
		kvs, err := p.ScanBounded("t|", "t}", 0, nil, nil, 0)
		after := scans(p)
		if err != nil || len(kvs) != 4 || kvs[0].Key != "t|ann|100|bob" || kvs[3].Key != "t|zed|200|bob" ||
			after[0] != before[0]+1 || after[1] != before[1]+1 {
			t.Fatalf("unlimited scan = %v, %v; engine scans %v -> %v", kvs, err, before, after)
		}
		if n, err := p.CountBounded("t|", "t}", 0); err != nil || n != 4 {
			t.Fatalf("count = %d, %v", n, err)
		}
	})

}
