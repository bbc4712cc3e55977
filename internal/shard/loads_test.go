package shard

import (
	"sync"
	"testing"
	"time"

	"pequod/internal/core"
)

// heldLoader collects started loads and resolves them when the test
// says so, through Shard.LoadsDone — a loader's whole contract with the
// shard.
type heldLoader struct {
	mu      sync.Mutex
	batches [][]core.Load
	started chan struct{} // one token per StartLoads call
}

func (l *heldLoader) StartLoads(loads []core.Load) {
	l.mu.Lock()
	l.batches = append(l.batches, loads)
	l.mu.Unlock()
	l.started <- struct{}{}
}

// next waits for the next StartLoads call and returns its loads.
func (l *heldLoader) next(t *testing.T) []core.Load {
	t.Helper()
	select {
	case <-l.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no load started")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.batches[0]
	l.batches = l.batches[1:]
	return b
}

// TestBlockedReadWakesOncePerBatch: a timeline read over loader-backed
// sources returns its restart context while loads are in flight, and
// the context resolves once, when the last load of the batch lands —
// rows and residency marks together — for the retry to emit; a failed
// load resolves it too, and the retry starts that load again.
func TestBlockedReadWakesOncePerBatch(t *testing.T) {
	p := newPool(t, Config{})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	sh := p.Shard(0)
	ld := &heldLoader{started: make(chan struct{}, 16)}
	sh.SetLoader(ld, "s", "p")
	read := func() *core.LoadWait {
		t.Helper()
		kvs, err := p.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, 0)
		return pendingWait(t, len(kvs), err)
	}

	// Round one (s|ann|) fails once and is retried, round two lands both
	// posters' ranges, the context resolving only with the second.
	w := read()
	round1 := ld.next(t)
	sh.LoadsDone(nil, nil, round1)
	resolves(t, w)
	w = read()
	round1 = ld.next(t)
	if len(round1) != 1 || round1[0].Table != "s" {
		t.Fatalf("retry after the failed load started %v", round1)
	}
	sh.LoadsDone([]core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "s|ann|liz", Value: "1"}}, round1, nil)
	resolves(t, w)
	w = read()
	round2 := ld.next(t)
	if len(round2) != 2 {
		t.Fatalf("second round = %v, want both posters in one batch", round2)
	}
	sh.LoadsDone([]core.KV{{Key: "p|bob|100", Value: "b"}, {Key: "p|liz|150", Value: "l"}}, round2[:1], nil)
	select {
	case <-w.Done():
		t.Fatal("restart context resolved with a load still in flight")
	default:
	}
	sh.LoadsDone(nil, round2[1:], nil)
	resolves(t, w)
	kvs, err := p.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, 0)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("read = %v, %v", kvs, err)
	}
	st := p.Stats()
	if st.JoinExecs-st.Restarts != 1 || st.LoadsFailed != 1 || st.LoadBatches != 3 {
		t.Fatalf("emits=%d failed=%d batches=%d", st.JoinExecs-st.Restarts, st.LoadsFailed, st.LoadBatches)
	}
}
