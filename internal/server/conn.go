package server

// One client connection: the goroutine that reads its frames and
// dispatches them in arrival order, the writer its replies and pushes
// share, the notify queue that carries its subscription pushes (§2.4),
// and the continuations of its reads that found base data loading
// (§3.3's restart contexts), and of its quiesces. A continuation
// answers by Seq, which the client demultiplexes by, so the frames
// behind it are served meanwhile: only reads that found loads pending
// (and quiesces, whose callers wait for the reply) reorder.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pequod/internal/core"
	"pequod/internal/interval"
	"pequod/internal/keys"
	"pequod/internal/perrs"
	"pequod/internal/rpc"
)

type conn struct {
	s  *Server
	c  net.Conn
	bw *bufio.Writer

	wmu     sync.Mutex // guards bw
	scratch []byte

	// Scan result buffer, reused across the requests serve answers
	// itself: the reply aliases it (rpc.KV is core.KV) and is fully
	// encoded before the next frame is read. A parked read's
	// continuation runs beside serve, so it must not alias it.
	kvBuf []core.KV

	// notify queue drained by the notifier goroutine; nbusy marks a
	// batch mid-write so drainNotify can wait for bytes to reach the
	// socket, not just the queue to empty. done is closed with nclosed,
	// for the continuations.
	nmu     sync.Mutex
	ncond   *sync.Cond
	nqueue  []rpc.Change
	nbusy   bool
	nclosed bool
	done    chan struct{}

	subs   map[keys.Range]*interval.Entry[*subscription] // guarded by s.smu
	pushed uint64                                        // Server.pushes at the last change pushed here; guarded by s.smu
}

func newConn(s *Server, c net.Conn) *conn {
	cn := &conn{s: s, c: c, bw: bufio.NewWriterSize(c, 64<<10), done: make(chan struct{})}
	cn.ncond = sync.NewCond(&cn.nmu)
	return cn
}

func (cn *conn) serve() {
	defer cn.s.connWG.Done()
	defer cn.s.dropConn(cn)
	defer cn.close()
	go cn.notifyLoop()
	br := bufio.NewReaderSize(cn.c, 64<<10)
	var scratch []byte
	for {
		m, sc, err := rpc.ReadMessage(br, scratch)
		if err != nil {
			return
		}
		scratch = sc
		// Batch flushes across pipelined requests: only force bytes out
		// when the input buffer has drained, so a burst of pipelined
		// requests costs one write syscall, not one per reply — and
		// flush then even for a frame with no reply here (one-way, or
		// parked), so the replies before it are not held back.
		if err := cn.write(cn.s.handle(cn, m), br.Buffered() == 0); err != nil {
			return
		}
	}
}

// errDeadline reports a read whose deadline (TimeoutMS) passed while
// base data it needs was still loading.
var errDeadline = errors.New("pequod server: deadline exceeded waiting for base data")

// later answers a request off serve's goroutine, so the frames behind
// it are served meanwhile: fn runs in a continuation counted in connWG
// (Server.Close waits for it before closing the pool), and the reply it
// returns, if any, is written by Seq.
func (cn *conn) later(fn func() *rpc.Message) {
	cn.s.connWG.Add(1)
	go func() {
		defer cn.s.connWG.Done()
		if r := fn(); r != nil {
			_ = cn.write(r, true) // a failed write broke the connection; serve's read sees it
		}
	}()
}

// park is the continuation of read request m, which found base data
// loading and returned w, its restart context: it waits for w, m's
// deadline dl (zero = none) or the connection's close, retries the
// read, and answers — waiting again if the retry meets loads in turn. A
// read that carried a staleness budget and still timed out could not be
// served even with the latitude the budget granted, so its error
// carries ErrOverBudget too (subscribing scans run fresh, budget or not).
func (cn *conn) park(m *rpc.Message, dl time.Time, w *core.LoadWait) {
	cn.later(func() *rpc.Message {
		var expired <-chan time.Time
		if !dl.IsZero() {
			t := time.NewTimer(time.Until(dl))
			defer t.Stop()
			expired = t.C
		}
		for {
			select {
			case <-w.Done():
			case <-expired:
				if m.StaleMS > 0 && !m.SubscribeFlag {
					return rpc.ErrReply(m.Seq, fmt.Errorf("%w: %w", perrs.ErrOverBudget, errDeadline))
				}
				return rpc.ErrReply(m.Seq, errDeadline)
			case <-cn.done:
				return nil
			}
			r, next := cn.s.read(cn, m, nil)
			if next == nil {
				return r
			}
			w = next
		}
	})
}

// write sends a frame (none when m is nil), flushing when requested
// (end of a pipelined burst) — the notifier goroutine and the
// continuations always flush their own frames.
func (cn *conn) write(m *rpc.Message, flush bool) error {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if m != nil {
		var err error
		if cn.scratch, err = rpc.WriteMessage(cn.bw, m, cn.scratch); err != nil {
			return err
		}
	}
	if flush {
		return cn.bw.Flush()
	}
	return nil
}

// pushNotify enqueues a subscription push (called with the engine's
// lock held; must not block). Broadcast, not Signal: the cond is shared with
// drainNotify waiters, and a Signal could wake one of those instead of
// the notifier goroutine.
func (cn *conn) pushNotify(c rpc.Change) {
	cn.nmu.Lock()
	cn.nqueue = append(cn.nqueue, c)
	cn.nmu.Unlock()
	cn.ncond.Broadcast()
}

// notifyLoop drains the notify queue into batched MsgNotify frames —
// asynchronous update propagation, the source of Pequod's eventual
// consistency (§2.4).
func (cn *conn) notifyLoop() {
	for {
		cn.nmu.Lock()
		for len(cn.nqueue) == 0 && !cn.nclosed {
			cn.ncond.Wait()
		}
		if cn.nclosed && len(cn.nqueue) == 0 {
			cn.nmu.Unlock()
			return
		}
		batch := cn.nqueue
		cn.nqueue = nil
		cn.nbusy = true
		cn.nmu.Unlock()
		err := cn.write(&rpc.Message{Type: rpc.MsgNotify, Changes: batch}, true)
		cn.nmu.Lock()
		cn.nbusy = false
		cn.nmu.Unlock()
		cn.ncond.Broadcast()
		if err != nil {
			return
		}
	}
}

// drainNotify blocks until this connection's queued pushes are written
// out (or the connection is closed), reporting false when a non-zero
// deadline expired first. Called by the quiesce and ping paths; the
// notifier goroutine does the writing. The timer's broadcast cannot be
// lost: it needs nmu, which the waiter holds until it parks.
func (cn *conn) drainNotify(dl time.Time) bool {
	cn.nmu.Lock()
	defer cn.nmu.Unlock()
	if !dl.IsZero() {
		t := time.AfterFunc(time.Until(dl), func() {
			cn.nmu.Lock()
			cn.ncond.Broadcast()
			cn.nmu.Unlock()
		})
		defer t.Stop()
	}
	for (len(cn.nqueue) > 0 || cn.nbusy) && !cn.nclosed {
		if !dl.IsZero() && !time.Now().Before(dl) {
			return false
		}
		cn.ncond.Wait()
	}
	return true
}

// close shuts the connection down; serve's exit and Server.Close both
// call it.
func (cn *conn) close() {
	cn.nmu.Lock()
	if !cn.nclosed {
		cn.nclosed = true
		close(cn.done)
	}
	cn.nmu.Unlock()
	cn.ncond.Broadcast()
	cn.c.Close()
}
