package shard

import (
	"errors"
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
// sources blocks in the pool until LoadsDone lands its batch — rows and
// residency marks together — then emits; a failed load makes it retry;
// and a deadline turns the wait into ErrDeadline.
func TestBlockedReadWakesOncePerBatch(t *testing.T) {
	p := newPool(t, Config{})
	if err := p.InstallText(timelineJoin); err != nil {
		t.Fatal(err)
	}
	sh := p.Shard(0)
	ld := &heldLoader{started: make(chan struct{}, 16)}
	sh.SetLoader(ld, "s", "p")

	type result struct {
		kvs []core.KV
		err error
	}
	read := func(dl time.Time) chan result {
		out := make(chan result, 1)
		go func() {
			kvs, err := p.ScanBounded("t|ann|", "t|ann}", 0, nil, nil, 0, dl)
			out <- result{kvs, err}
		}()
		return out
	}

	// No deadline: round one (s|ann|) fails once and is retried, round
	// two lands both posters' ranges in one LoadsDone.
	res := read(time.Time{})
	round1 := ld.next(t)
	sh.LoadsDone(nil, nil, round1)
	round1 = ld.next(t)
	if len(round1) != 1 || round1[0].Table != "s" {
		t.Fatalf("retry after the failed load started %v", round1)
	}
	sh.LoadsDone([]core.KV{{Key: "s|ann|bob", Value: "1"}, {Key: "s|ann|liz", Value: "1"}}, round1, nil)
	round2 := ld.next(t)
	if len(round2) != 2 {
		t.Fatalf("second round = %v, want both posters in one batch", round2)
	}
	select {
	case r := <-res:
		t.Fatalf("read returned with loads in flight: %v %v", r.kvs, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	sh.LoadsDone([]core.KV{{Key: "p|bob|100", Value: "b"}, {Key: "p|liz|150", Value: "l"}}, round2, nil)
	r := <-res
	if r.err != nil || len(r.kvs) != 2 {
		t.Fatalf("read = %v, %v", r.kvs, r.err)
	}
	st := p.Stats()
	if st.JoinExecs-st.Restarts != 1 || st.LoadsFailed != 1 || st.LoadBatches != 3 {
		t.Fatalf("emits=%d failed=%d batches=%d", st.JoinExecs-st.Restarts, st.LoadsFailed, st.LoadBatches)
	}

	// A deadline bounds the wait.
	r = <-read(time.Now().Add(30 * time.Millisecond)) // t|ann| is warm: no wait at all
	if r.err != nil {
		t.Fatal(r.err)
	}
	kvs, err := p.ScanBounded("t|cat|", "t|cat}", 0, nil, nil, 0, time.Now().Add(30*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("read past its deadline = %v, %v", kvs, err)
	}
	ld.next(t) // the abandoned read's load is still the loader's to resolve
}
