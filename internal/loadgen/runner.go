package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/freshness"
	"pequod/internal/keys"
	"pequod/internal/perrs"
	"pequod/internal/server"
	"pequod/internal/twip"
)

// Phase is one segment of the run's script: traffic flows at the
// configured rate throughout; Event names the membership/topology
// change fired at the phase's start (empty = steady state). The phase
// lasts at least Duration, extended if the event takes longer.
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"-"`
	// Event: "" | "join" | "drain" | "rebalance" | "kill" | "restart".
	Event string `json:"event,omitempty"`
}

// Standard event names.
const (
	EventJoin      = "join"      // start a spare server and AddServer it
	EventDrain     = "drain"     // DrainServer the joined spare
	EventRebalance = "rebalance" // move a timeline partition bound
	EventKill      = "kill"      // quiesce, hard-stop a member, await automatic repair
	EventRestart   = "restart"   // gracefully stop a durable member, warm-restart it in place
)

// StandardPhases is the full chaos script: steady state, then every
// admin-driven topology change the cluster supports, each given d of
// traffic. Restart precedes kill so the warm-restarted member is back
// and settled before the failure detector has a death to chew on.
func StandardPhases(d time.Duration) []Phase {
	return []Phase{
		{Name: "steady", Duration: d},
		{Name: "join", Duration: d, Event: EventJoin},
		{Name: "drain", Duration: d, Event: EventDrain},
		{Name: "rebalance", Duration: d, Event: EventRebalance},
		{Name: "restart", Duration: d, Event: EventRestart},
		{Name: "kill", Duration: d, Event: EventKill},
	}
}

// DefaultMix is the open-loop operation blend. It keeps the paper's
// read-mostly shape but posts far more than the §5.1 closed-loop mix
// (whose 1% rides on a 1M-post prepopulation): the open-loop harness
// starts from empty timelines and the checker derives expectations
// only for posts it saw issued, so the posts themselves build the
// content under audit.
var DefaultMix = twip.Mix{Login: 5, Check: 70, Subscribe: 5, Post: 20}

// Config parameterizes an open-loop run. The zero value of most
// fields picks a sensible default (see withDefaults); Seed fully
// determines the simulated universe and the arrival schedule.
type Config struct {
	Users       int // simulated universe size (ids that can post / be followed)
	ActiveUsers int // reader pool actually issuing timeline checks
	Follows     int // mean followee-set size for active users
	TrackEvery  int // every k-th active user is checker-tracked

	Rate     float64       // offered arrival rate, ops/sec
	Mix      twip.Mix      // operation blend (DefaultMix if zero)
	Seed     int64         // determinism root; printed in the report
	Workers  int           // concurrent executors draining the queue
	Queue    int           // dispatch queue depth; arrivals beyond it are shed
	Budget   time.Duration // staleness budget for the online checker
	TweetLen int           // synthetic post payload size
	Phases   []Phase       // the script; StandardPhases(2s) if nil

	// ReadStale > 0 issues every timeline read with that per-read
	// staleness budget (carried on the wire per frame, surviving
	// routing retries); the checker loosens only its absence grace by
	// the same amount — payloads and phantoms stay strict. DualRead
	// additionally re-issues each tracked read fresh immediately after
	// the bounded one and cross-audits the pair (the freshness
	// oracle): bounded may trail fresh by at most the budget, and
	// neither side may fabricate or lose settled rows.
	ReadStale time.Duration
	DualRead  bool

	// Self-contained mode (Addrs empty): the runner owns the cluster.
	Servers          int
	Replicas         int
	DataDir          string // root for per-member durable dirs; required by EventRestart
	FailoverInterval time.Duration
	FailoverMisses   int

	// Connect mode: run against an existing cluster at these
	// addresses, with the deployment's partition bounds (as for
	// pequod-cli -bounds). Process-level events (join/kill/restart)
	// need server ownership and are rejected; see docs/OPERATIONS.md.
	Addrs  []string
	Bounds []string

	Logf func(format string, args ...any) // optional progress output
}

func (c Config) withDefaults() Config {
	if c.Users < 2 {
		c.Users = 100_000
	}
	if c.ActiveUsers <= 0 {
		c.ActiveUsers = 2000
	}
	if c.ActiveUsers > c.Users {
		c.ActiveUsers = c.Users
	}
	if c.Follows <= 0 {
		c.Follows = 8
	}
	if c.TrackEvery <= 0 {
		c.TrackEvery = 16
	}
	if c.Rate <= 0 {
		c.Rate = 500
	}
	if c.Mix.Total() == 0 {
		c.Mix = DefaultMix
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Queue <= 0 {
		c.Queue = c.Workers * 64
	}
	if c.Budget <= 0 {
		c.Budget = 2 * time.Second
	}
	if c.TweetLen <= 0 {
		c.TweetLen = 100
	}
	if c.Phases == nil {
		c.Phases = StandardPhases(2 * time.Second)
	}
	if c.Servers <= 0 {
		c.Servers = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.FailoverInterval <= 0 {
		c.FailoverInterval = 25 * time.Millisecond
	}
	if c.FailoverMisses <= 0 {
		c.FailoverMisses = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

func (c Config) validate() error {
	connect := len(c.Addrs) > 0
	// A rebalance moves a t|u<n> bound, so the run must start with one.
	bounds := c.Bounds
	if !connect {
		bounds = boundsFor(c.Servers, c.Users)
	}
	movable := slices.ContainsFunc(bounds, func(b string) bool { _, ok := parseUserBound(b); return ok })
	for _, ph := range c.Phases {
		switch ph.Event {
		case "":
		case EventRebalance:
			if !movable {
				return fmt.Errorf("loadgen: event %q needs a t|u<n> bound to move; the run starts from %q", ph.Event, bounds)
			}
		case EventJoin, EventDrain, EventKill, EventRestart:
			if connect {
				return fmt.Errorf("loadgen: event %q needs server ownership; not available in connect mode", ph.Event)
			}
		default:
			return fmt.Errorf("loadgen: unknown event %q", ph.Event)
		}
		if ph.Event == EventRestart && !connect && c.DataDir == "" {
			return fmt.Errorf("loadgen: event %q needs durable members (set DataDir)", ph.Event)
		}
	}
	if c.DualRead && c.ReadStale <= 0 {
		return fmt.Errorf("loadgen: DualRead needs ReadStale > 0 (the bounded side's budget)")
	}
	if !connect && c.Servers < 2 {
		for _, ph := range c.Phases {
			if ph.Event == EventKill || ph.Event == EventRestart {
				return fmt.Errorf("loadgen: event %q needs at least 2 servers", ph.Event)
			}
		}
	}
	return nil
}

// op is one scheduled arrival. Latency is measured from scheduled, so
// time spent queued behind slow ops counts against the op.
type op struct {
	kind      twip.OpKind
	scheduled time.Time
	phase     int32
	idx       int   // active-pool index (check/login/subscribe)
	user      int32 // active user id
	target    int32 // subscription target
	poster    int32
	text      string
}

// Runner executes one open-loop run. Create with Run; it is not
// reusable.
type Runner struct {
	cfg     Config
	uni     *Universe
	checker *Checker
	cl      *cluster.Cluster

	// Self-contained members, by address. killAddr dies in EventKill;
	// restartAddr warm-restarts in EventRestart; joined is the spare
	// added by EventJoin (and drained by EventDrain).
	servers     map[string]*server.Server
	dirs        map[string]string
	addrs       []string
	killAddr    string
	restartAddr string
	joined      string

	active    []int32
	lastCheck []atomic.Int64
	clock     atomic.Int64

	// fence is the write-acknowledge fence: post workers hold it
	// shared from expectation-registration through acknowledgment;
	// destructive events take it exclusively, then quiesce, so every
	// acknowledged post is settled onto replicas (or durable state)
	// before a member goes away. This is what makes "no lost
	// acknowledged writes" a fair property to demand under kill.
	fence sync.RWMutex

	phaseIdx  atomic.Int32
	ops       chan op
	stop      chan struct{}
	offered   []atomic.Int64
	completed []atomic.Int64
	errs      []atomic.Int64
	shed      []atomic.Int64
	hists     []*ShardedHist
	elapsed   []time.Duration
	members   []int
	hotShare  []float64
}

// Run executes the configured scenario end to end and returns the
// report. Self-contained mode builds, loads, and tears down its own
// cluster; connect mode drives load at cfg.Addrs.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:       cfg,
		uni:       NewUniverse(int32(cfg.Users), cfg.Follows, cfg.Seed),
		servers:   make(map[string]*server.Server),
		dirs:      make(map[string]string),
		ops:       make(chan op, cfg.Queue),
		stop:      make(chan struct{}),
		offered:   make([]atomic.Int64, len(cfg.Phases)),
		completed: make([]atomic.Int64, len(cfg.Phases)),
		errs:      make([]atomic.Int64, len(cfg.Phases)),
		shed:      make([]atomic.Int64, len(cfg.Phases)),
		elapsed:   make([]time.Duration, len(cfg.Phases)),
		members:   make([]int, len(cfg.Phases)),
		hotShare:  make([]float64, len(cfg.Phases)),
	}
	r.hists = make([]*ShardedHist, len(cfg.Phases))
	for i := range r.hists {
		r.hists[i] = NewShardedHist(cfg.Workers)
	}

	r.active = make([]int32, cfg.ActiveUsers)
	r.lastCheck = make([]atomic.Int64, cfg.ActiveUsers)
	var tracked []int32
	for i := range r.active {
		r.active[i] = r.uni.ActiveUser(i)
		if i%cfg.TrackEvery == 0 {
			tracked = append(tracked, r.active[i])
		}
	}
	r.checker = NewChecker(cfg.Budget, tracked, r.uni.Followees)

	cfg.Logf("loadgen: seed=%d users=%d active=%d tracked=%d rate=%.0f/s workers=%d budget=%v",
		cfg.Seed, cfg.Users, cfg.ActiveUsers, len(tracked), cfg.Rate, cfg.Workers, cfg.Budget)

	defer r.teardown()
	if err := r.setup(ctx); err != nil {
		return nil, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) { defer wg.Done(); r.worker(ctx, id) }(w)
	}
	dispatchDone := make(chan struct{})
	go func() { defer close(dispatchDone); r.dispatch(ctx) }()

	runErr := r.runPhases(ctx)

	close(r.stop)
	<-dispatchDone
	close(r.ops)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	if err := r.finalSweep(ctx); err != nil {
		return nil, err
	}

	rep := &Report{
		Seed:        cfg.Seed,
		Users:       cfg.Users,
		ActiveUsers: cfg.ActiveUsers,
		Follows:     cfg.Follows,
		Mix:         cfg.Mix,
		OfferedRate: cfg.Rate,
		Workers:     cfg.Workers,
		Servers:     len(r.addrs),
		Replicas:    cfg.Replicas,
		Durable:     cfg.DataDir != "",
		BudgetMs:    cfg.Budget.Milliseconds(),
		ReadStaleMs: cfg.ReadStale.Milliseconds(),
		DualRead:    cfg.DualRead,
		ElapsedSec:  time.Since(start).Seconds(),
		Checker:     r.checker.Report(),
	}
	for i, ph := range cfg.Phases {
		pr := phaseReport(ph.Name, ph.Event, r.elapsed[i],
			r.offered[i].Load(), r.completed[i].Load(), r.errs[i].Load(), r.shed[i].Load(), r.hists[i])
		pr.Members, pr.HotShare = r.members[i], r.hotShare[i]
		rep.Phases = append(rep.Phases, pr)
	}
	return rep, nil
}

// runPhases walks the script: each phase pins the attribution index,
// fires its event concurrently with traffic, and lasts
// max(Duration, event time). Member loads are polled at every phase
// boundary, giving each phase its member count and hot share.
func (r *Runner) runPhases(ctx context.Context) error {
	loads := r.pollLoads(ctx)
	for i, ph := range r.cfg.Phases {
		r.phaseIdx.Store(int32(i))
		start := time.Now()
		r.cfg.Logf("loadgen: phase %q begins (event=%q)", ph.Name, ph.Event)
		evErr := make(chan error, 1)
		go func(ev string) { evErr <- r.runEvent(ctx, ev) }(ph.Event)
		select {
		case <-time.After(ph.Duration):
		case <-ctx.Done():
			<-evErr
			return ctx.Err()
		}
		if err := <-evErr; err != nil {
			return fmt.Errorf("loadgen: phase %q event %q: %w", ph.Name, ph.Event, err)
		}
		next := r.pollLoads(ctx)
		r.elapsed[i] = time.Since(start)
		r.members[i] = r.cl.Members()
		if loads != nil && next != nil {
			r.hotShare[i] = cluster.HotShare(loads, next)
		}
		loads = next
	}
	return nil
}

// pollLoads reads every member's cumulative load units. A failed poll
// is logged and returns nil, leaving the hot share of the phases on
// either side at 0; it never fails the run.
func (r *Runner) pollLoads(ctx context.Context) []cluster.MemberLoad {
	loads, err := r.cl.MemberLoads(ctx)
	if err != nil {
		r.cfg.Logf("loadgen: polling member loads (hot_share reads 0): %v", err)
		return nil
	}
	return loads
}

// dispatch is the open-loop arrival clock: exponential inter-arrival
// gaps at the offered rate, independent of completion. A full queue
// sheds the arrival (counted per phase) instead of applying
// back-pressure — the generator never degrades into lock-step.
func (r *Runner) dispatch(ctx context.Context) {
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	sampler := twip.NewOpSampler(r.cfg.Mix)
	posters := r.uni.NewPosterSampler(rand.New(rand.NewSource(r.cfg.Seed + 1)))
	start := time.Now()
	offset := 0.0
	for {
		offset += rng.ExpFloat64() / r.cfg.Rate
		at := start.Add(time.Duration(offset * float64(time.Second)))
		if d := time.Until(at); d > 0 {
			select {
			case <-time.After(d):
			case <-r.stop:
				return
			case <-ctx.Done():
				return
			}
		} else {
			select {
			case <-r.stop:
				return
			case <-ctx.Done():
				return
			default:
			}
		}
		o := r.genOp(rng, sampler, posters)
		o.scheduled = at
		ph := r.phaseIdx.Load()
		o.phase = ph
		r.offered[ph].Add(1)
		select {
		case r.ops <- o:
		default:
			r.shed[ph].Add(1)
		}
	}
}

// genOp draws the next arrival's shape from the mix.
func (r *Runner) genOp(rng *rand.Rand, sampler twip.OpSampler, posters *PosterSampler) op {
	kind := sampler.Sample(rng)
	switch kind {
	case twip.OpPost:
		return op{kind: kind, poster: posters.Sample(),
			text: twip.TweetBody(rng, r.cfg.TweetLen)}
	case twip.OpSubscribe:
		// Tracked users' followee sets are frozen for the run (the
		// checker's expectations depend on them), so subscriptions come
		// from the untracked part of the pool.
		idx := rng.Intn(len(r.active))
		for tries := 0; r.checker.Tracked(r.active[idx]) && tries < 8; tries++ {
			idx = rng.Intn(len(r.active))
		}
		if r.checker.Tracked(r.active[idx]) {
			return op{kind: twip.OpCheck, idx: idx, user: r.active[idx]}
		}
		return op{kind: kind, idx: idx, user: r.active[idx],
			target: int32(rng.Intn(r.cfg.Users))}
	default: // login / check
		idx := rng.Intn(len(r.active))
		return op{kind: kind, idx: idx, user: r.active[idx]}
	}
}

// opTimeout bounds one operation so a stall never wedges a worker.
const opTimeout = 20 * time.Second

// worker drains the queue, executes ops against the cluster, feeds the
// checker, and records latency from the scheduled arrival.
func (r *Runner) worker(ctx context.Context, id int) {
	for o := range r.ops {
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		err := r.execOp(opCtx, o)
		cancel()
		if err != nil {
			r.errs[o.phase].Add(1)
			continue
		}
		r.completed[o.phase].Add(1)
		r.hists[o.phase].Record(id, time.Since(o.scheduled).Microseconds())
	}
}

func (r *Runner) execOp(ctx context.Context, o op) error {
	switch o.kind {
	case twip.OpPost:
		// Expectation before write, ack after: the shared fence spans
		// both, so a destructive event can't slip between a successful
		// Put and the checker learning it was acknowledged.
		r.fence.RLock()
		defer r.fence.RUnlock()
		t := r.clock.Add(1)
		r.checker.PostIssued(o.poster, t, o.text)
		err := r.cl.Put(ctx, keys.Join("p", twip.UserID(o.poster), twip.TimeID(t)), o.text)
		if err != nil {
			r.checker.PostFailed(o.poster, t)
			return err
		}
		r.checker.PostAcked(o.poster, t)
		return nil
	case twip.OpSubscribe:
		return r.cl.Put(ctx, keys.Join("s", twip.UserID(o.user), twip.UserID(o.target)), "1")
	default: // OpLogin scans the whole timeline; OpCheck since the last read.
		var since int64
		if o.kind == twip.OpCheck {
			since = r.lastCheck[o.idx].Load()
		}
		mark := r.clock.Load()
		rctx := ctx
		if r.cfg.ReadStale > 0 {
			rctx = freshness.WithBudget(ctx, r.cfg.ReadStale)
		}
		started := time.Now()
		kvs, err := r.scanTimeline(rctx, o.user, since)
		if err != nil {
			return err
		}
		switch {
		case r.cfg.DualRead && r.checker.Tracked(o.user):
			// The freshness oracle: the same window read fresh right
			// after the bounded scan, the pair cross-audited.
			fstart := time.Now()
			fkvs, err := r.scanTimeline(ctx, o.user, since)
			if err != nil {
				return err
			}
			r.checker.OnDualCheck(o.user, since, kvs, fkvs, started, fstart, r.cfg.ReadStale)
		case r.cfg.ReadStale > 0:
			r.checker.OnBoundedCheck(o.user, since, kvs, started, r.cfg.ReadStale)
		default:
			r.checker.OnCheck(o.user, since, kvs, started)
		}
		r.lastCheck[o.idx].Store(mark)
		return nil
	}
}

func (r *Runner) scanTimeline(ctx context.Context, user int32, since int64) ([]core.KV, error) {
	u := twip.UserID(user)
	return r.cl.Scan(ctx, keys.Join("t", u, twip.TimeID(since)), keys.RangeEnd("t", u), 0)
}

// quiesceRetry settles joins and replication, retrying through
// failure-detection windows where a member is (expectedly) down.
func (r *Runner) quiesceRetry(ctx context.Context, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		err := r.cl.Quiesce(ctx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, perrs.ErrMemberDown) || time.Now().After(deadline) {
			return err
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// finalSweep closes the audit: with load stopped and the cluster
// quiesced, every tracked timeline is scanned in full and every
// acknowledged row must be present (budget zero).
func (r *Runner) finalSweep(ctx context.Context) error {
	if err := r.quiesceRetry(ctx, 15*time.Second); err != nil {
		return fmt.Errorf("loadgen: final quiesce: %w", err)
	}
	for _, id := range r.checker.TrackedIDs() {
		kvs, err := r.scanTimeline(ctx, id, 0)
		if err != nil {
			return fmt.Errorf("loadgen: final sweep scan for %s: %w", twip.UserID(id), err)
		}
		r.checker.FinalSweep(id, kvs, time.Now())
	}
	return nil
}
