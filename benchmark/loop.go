package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pequod/internal/core"
	"pequod/internal/twip"
)

// deadline is the longest an op (or a freshness probe) may take before
// it counts as failed; an open-loop arrival found this far behind its
// schedule is shed unexecuted.
const deadline = 500 * time.Millisecond

// spinWithin is how close to its scheduled instant a worker stops
// sleeping and starts yield-spinning: a sleep on the defining machine
// overshoots by up to about a millisecond.
const spinWithin = 2 * time.Millisecond

// auditEvery makes every k-th read of a worker an oracle-checked read.
const auditEvery = 8

// runner executes ops against one deployment and keeps the state ops
// depend on: the logical clock and each reader's last-check mark.
type runner struct {
	u   *universe
	tgt target
	or  *oracle

	clock     atomic.Int64
	lastCheck []atomic.Int64
	posts     atomic.Int64 // posts issued, selects freshness probes
	base      atomic.Int64 // base bytes written by ops

	attempted atomic.Int64
	failed    atomic.Int64 // errors + shed + deadline misses
}

func newRunner(u *universe, p *prepared) *runner {
	r := &runner{u: u, tgt: p.d.tgt, or: p.or, lastCheck: make([]atomic.Int64, len(u.active))}
	r.clock.Store(int64(u.sp.Posts))
	r.base.Store(p.base)
	return r
}

// worker is one caller: its samples, its scan scratch, its span buffer.
type worker struct {
	samples []sample
	buf     []core.KV
	reads   int
	spans   *[]span // nil when untraced
	layer   string  // span name prefix
	opID    int64

	// The last op's key and value (a scan's bounds), for the rpc rung.
	lastKey, lastVal string
}

func (w *worker) record(at, lat time.Duration, kind uint8) {
	if at < 0 {
		return // ramp: executed, not measured
	}
	w.samples = append(w.samples, sample{at: clampU32(at.Microseconds()), lat: clampU32(lat.Nanoseconds()), kind: kind})
}

// do runs one op. origin is when the op was due (its scheduled arrival
// in an open loop, now in a closed loop); win is the start of the
// measured window, so samples finishing before it are dropped; probe
// lets a post that is due one run its freshness probe. It reports
// whether the op completed in time.
func (r *runner) do(w *worker, o op, origin, win time.Time, probe bool) (ok bool) {
	u := r.u
	r.attempted.Add(1)
	var err error
	var end time.Time
	begin := time.Now()
	switch o.kind {
	case twip.OpLogin, twip.OpCheck:
		var since int64
		if o.kind == twip.OpCheck && o.idx >= 0 {
			since = r.lastCheck[o.idx].Load()
		}
		mark := r.clock.Load()
		id := u.ids[o.user]
		lo := "t|" + id + "|"
		if since > 0 {
			lo += timeID(since)
		}
		hi := "t|" + id + "}"
		w.buf, err = r.tgt.Scan(lo, hi, w.buf)
		end = time.Now()
		w.lastKey, w.lastVal = lo, hi
		if err == nil {
			if o.idx >= 0 {
				r.lastCheck[o.idx].Store(mark)
			}
			if w.reads++; w.reads%auditEvery == 0 {
				r.or.checkRead(o.user, since, asRows(w.buf))
			}
		}
	case twip.OpSubscribe:
		k := "s|" + u.ids[o.user] + "|" + u.ids[o.target]
		r.or.subscribe(o.user, o.target)
		r.base.Add(int64(len(k) + 1))
		err = r.tgt.Put(k, "1")
		end = time.Now()
		w.lastKey, w.lastVal = k, "1"
	case twip.OpPost:
		t := r.clock.Add(1)
		text := u.texts[o.text]
		k := "p|" + u.ids[o.target] + "|" + timeID(t)
		r.or.post(o.target, t, text)
		r.base.Add(int64(len(k) + len(text)))
		err = r.tgt.Put(k, text)
		end = time.Now()
		w.lastKey, w.lastVal = k, text
		if n := r.posts.Add(1); probe && err == nil && n%int64(u.sp.ProbeEvery) == 0 {
			r.probe(w, o.target, t, n, end, win)
		}
	}
	lat := end.Sub(origin)
	if err != nil || lat > deadline {
		r.failed.Add(1)
		if err != nil {
			r.or.violate("op failed: %v", err)
		}
		return false
	}
	w.record(end.Sub(win), lat, uint8(o.kind))
	if w.spans != nil {
		w.trace(o.kind, origin, begin, end)
	}
	return true
}

// probe measures achieved freshness: after the post's acknowledgement
// the same worker re-reads one follower's timeline from the post's
// timestamp until the row is there. The lag runs from the ack to the
// return of the first read that shows it.
func (r *runner) probe(w *worker, poster int32, t, n int64, ack, win time.Time) {
	fs := r.u.g.Followers[poster]
	if len(fs) == 0 {
		return
	}
	f := r.u.ids[fs[int(n)%len(fs)]]
	lo, hi := "t|"+f+"|"+timeID(t), "t|"+f+"}"
	want := lo + "|" + r.u.ids[poster]
	for {
		var err error
		w.buf, err = r.tgt.Scan(lo, hi, w.buf)
		now := time.Now()
		if err != nil {
			r.failed.Add(1)
			r.or.violate("freshness probe failed: %v", err)
			return
		}
		for _, kv := range w.buf {
			if kv.Key == want {
				w.record(now.Sub(win), now.Sub(ack), kFresh)
				return
			}
		}
		if now.Sub(ack) > deadline {
			r.failed.Add(1)
			r.or.violate("post %s not visible to %s within %v of its ack", want, f, deadline)
			return
		}
		runtime.Gosched()
	}
}

func asRows(kvs []core.KV) []row {
	rows := make([]row, len(kvs))
	for i, kv := range kvs {
		rows[i] = row{kv.Key, kv.Value}
	}
	return rows
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is one reading at a segment boundary.
type mark struct {
	at  time.Duration
	ops int64
	cpu time.Duration
}

// window is what one timed window measured.
type window struct {
	length  time.Duration
	workers [][]sample
	marks   []mark // segments+1 readings
	mem0    runtime.MemStats
	mem1    runtime.MemStats

	// Open loop only.
	offered, completed  int64
	backlogMid, backlog int64
}

// counters are per-worker completed-op counts on separate cache lines.
type counters []struct {
	n atomic.Int64
	_ [56]byte
}

func (c counters) sum() int64 {
	var t int64
	for i := range c {
		t += c[i].n.Load()
	}
	return t
}

// newWorkers builds n workers with sample room for about perWorker ops.
// Worker i of the window on stream numbers its ops from (stream+i)<<32,
// so an op id names one op of the whole run.
func newWorkers(n, perWorker, stream int, spans []*[]span, layer string) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{samples: make([]sample, 0, perWorker), layer: layer, opID: int64(stream+i) << 32}
		if spans != nil {
			ws[i].spans = spans[i]
		}
	}
	return ws
}

// closedLoop runs n callers, each sending its next op when the previous
// one completes, for d.
func (r *runner) closedLoop(n int, d time.Duration, stream int, spans []*[]span) *window {
	win := &window{length: d}
	ws := newWorkers(n, int(d.Seconds()*120000)+1024, stream, spans, layerClosed)
	done := make(counters, n)
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			g := r.u.gen(stream + i)
			for {
				now := time.Now()
				if !now.Before(stop) {
					return
				}
				r.do(w, g.next(), now, start, true)
				done[i].n.Add(1)
			}
		}(i, w)
	}
	win.marks = append(win.marks, mark{0, 0, cpuTime()})
	for s := 1; s <= segments; s++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(s) / segments)))
		win.marks = append(win.marks, mark{time.Since(start), done.sum(), cpuTime()})
	}
	wg.Wait()
	runtime.ReadMemStats(&win.mem1)
	for _, w := range ws {
		win.workers = append(win.workers, w.samples)
	}
	return win
}

// openStep offers a precomputed Poisson schedule at rate ops/s for ramp
// (discarded) plus d. Workers pull the next arrival themselves — no
// dispatcher, no channel — sleep only while it is more than spinWithin
// away, then yield-spin to the scheduled instant, so the generator's own
// wake-up error stays out of the latencies.
func (r *runner) openStep(n int, rate float64, ramp, d time.Duration, stream int, spans []*[]span) *window {
	win := &window{length: d}
	arr := r.u.schedule(stream, rate, ramp+d)
	ws := newWorkers(n, 2*len(arr)/n+1024, stream, spans, layerOpen)
	var next, completed atomic.Int64
	start := time.Now()
	measured := start.Add(ramp)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(arr)) {
					return
				}
				due := start.Add(arr[i].at)
				idle := false
				for {
					wait := time.Until(due)
					if wait <= 0 {
						break
					}
					idle = true
					if wait > spinWithin {
						time.Sleep(wait - spinWithin)
					} else {
						runtime.Gosched()
					}
				}
				began := time.Now()
				late := began.Sub(due)
				if late > deadline {
					r.attempted.Add(1)
					r.failed.Add(1) // shed
					continue
				}
				if !due.Before(measured) {
					w.record(began.Sub(measured), late, kQueueWait)
					if idle {
						w.record(began.Sub(measured), late, kLate)
					}
				}
				if r.do(w, arr[i].op, due, measured, true) && !due.Before(measured) {
					completed.Add(1)
				}
			}
		}(w)
	}
	// Backlog: arrivals already due that no worker has pulled yet.
	backlog := func() int64 {
		elapsed := time.Since(start)
		due := int64(sort.Search(len(arr), func(i int) bool { return arr[i].at > elapsed }))
		if b := due - next.Load(); b > 0 {
			return b
		}
		return 0
	}
	time.Sleep(time.Until(measured.Add(d / 2)))
	win.backlogMid = backlog()
	time.Sleep(time.Until(measured.Add(d)))
	win.backlog = backlog()
	wg.Wait()
	win.completed = completed.Load()
	for _, a := range arr {
		if a.at >= ramp {
			win.offered++
		}
	}
	for _, w := range ws {
		win.workers = append(win.workers, w.samples)
	}
	return win
}
