package loadgen

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pequod/internal/cluster"
	"pequod/internal/core"
	"pequod/internal/partition"
	"pequod/internal/server"
	"pequod/internal/twip"
)

// boundsFor splits the keyspace for n servers: member 0 owns the base
// tables (p| posts, s| subscriptions — every post fans out from
// there), members 1..n-1 split the computed t| timelines by user, so
// joins always straddle members and timeline reads spread across the
// fleet.
func boundsFor(n, users int) []string {
	if n <= 1 {
		return nil
	}
	bounds := []string{"t|"}
	if n > 2 {
		bounds = append(bounds, partition.UserBounds(n-1, users, 7, "u", "t")...)
	}
	return bounds
}

// serverConfig is one self-contained member's shape. With a data dir
// the member is durable, fsyncing fast enough that a graceful close
// never races the flush loop and snapshotting often enough that a
// warm restart replays snapshot+log (mirroring the cluster suite's
// durable configuration).
func (r *Runner) serverConfig(name string) (server.Config, error) {
	cfg := server.Config{Name: name}
	if r.cfg.DataDir != "" {
		dir := filepath.Join(r.cfg.DataDir, name)
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return cfg, err
		}
		cfg.DataDir = dir
		cfg.SyncInterval = 2 * time.Millisecond
		cfg.SnapshotInterval = 100 * time.Millisecond
		cfg.ScrubInterval = -1
	}
	return cfg, nil
}

// setup builds the cluster (self-contained mode) or connects to one,
// installs the Twip joins, and loads the active pool's subscription
// graph — the frozen followee sets the checker's expectations are
// derived from.
func (r *Runner) setup(ctx context.Context) error {
	addrs := r.cfg.Addrs
	if len(addrs) == 0 {
		addrs = make([]string, r.cfg.Servers)
		for i := range addrs {
			name := fmt.Sprintf("lg%d", i)
			scfg, err := r.serverConfig(name)
			if err != nil {
				return err
			}
			s, err := server.New(scfg)
			if err != nil {
				return err
			}
			addr, err := s.Start()
			if err != nil {
				s.Close()
				return err
			}
			r.servers[addr] = s
			r.dirs[addr] = scfg.DataDir
			addrs[i] = addr
		}
		// The last member warm-restarts, the second-to-last dies for
		// good; both are timeline owners, so their ranges carry live
		// computed state when the event lands.
		r.restartAddr = addrs[len(addrs)-1]
		if len(addrs) >= 3 {
			r.killAddr = addrs[len(addrs)-2]
		} else {
			r.killAddr = addrs[len(addrs)-1]
		}
	}
	r.addrs = addrs

	ccfg := cluster.Config{
		Addrs:            addrs,
		Joins:            twip.Joins,
		Replicas:         r.cfg.Replicas,
		FailoverInterval: r.cfg.FailoverInterval,
		FailoverMisses:   r.cfg.FailoverMisses,
		CoordinatorName:  "loadgen",
	}
	if len(r.cfg.Addrs) == 0 {
		ccfg.Bounds = boundsFor(len(addrs), r.cfg.Users)
	} else {
		// Connect mode: the deployment's bounds come from the caller,
		// like pequod-cli's -bounds (a stale list costs NotOwner
		// round-trips until the client adopts the live map).
		ccfg.Bounds = r.cfg.Bounds
	}
	cl, err := cluster.New(ctx, ccfg)
	if err != nil {
		return err
	}
	r.cl = cl
	return r.preload(ctx)
}

// preload writes the subscription rows for every active user. Batched:
// the cluster pipelines per-server, so this is the fastest way in.
func (r *Runner) preload(ctx context.Context) error {
	var batch []core.KV
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := r.cl.PutBatch(ctx, batch)
		batch = batch[:0]
		return err
	}
	for _, u := range r.active {
		for _, p := range r.uni.Followees(u) {
			batch = append(batch, core.KV{
				Key:   keysJoinSub(u, p),
				Value: "1",
			})
			if len(batch) >= 1024 {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := r.quiesceRetry(ctx, 15*time.Second); err != nil {
		return fmt.Errorf("loadgen: preload quiesce: %w", err)
	}
	r.cfg.Logf("loadgen: preloaded subscriptions for %d active users across %d members",
		len(r.active), len(r.addrs))
	return nil
}

func keysJoinSub(u, p int32) string {
	return "s|" + twip.UserID(u) + "|" + twip.UserID(p)
}

// teardown closes everything the runner owns. Safe on partial setup.
func (r *Runner) teardown() {
	if r.cl != nil {
		r.cl.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
}

// runEvent fires one phase's topology change while traffic flows.
func (r *Runner) runEvent(ctx context.Context, event string) error {
	switch event {
	case "":
		return nil
	case EventJoin:
		return r.eventJoin(ctx)
	case EventDrain:
		return r.eventDrain(ctx)
	case EventRebalance:
		return r.eventRebalance(ctx)
	case EventKill:
		return r.eventKill(ctx)
	case EventRestart:
		return r.eventRestart(ctx)
	}
	return fmt.Errorf("unknown event %q", event)
}

// eventJoin starts a spare member and splits the hottest range onto it
// under live load.
func (r *Runner) eventJoin(ctx context.Context) error {
	scfg, err := r.serverConfig("lgJ")
	if err != nil {
		return err
	}
	s, err := server.New(scfg)
	if err != nil {
		return err
	}
	addr, err := s.Start()
	if err != nil {
		s.Close()
		return err
	}
	r.servers[addr] = s
	r.dirs[addr] = scfg.DataDir
	if err := r.cl.AddServer(ctx, addr); err != nil {
		return err
	}
	r.joined = addr
	r.cfg.Logf("loadgen: joined %s (members now %d)", addr, r.cl.Members())
	return nil
}

// eventDrain drains the member EventJoin added, handing its ranges
// back under live load.
func (r *Runner) eventDrain(ctx context.Context) error {
	if r.joined == "" {
		return fmt.Errorf("drain: no joined member (script a join phase first)")
	}
	if err := r.cl.DrainServer(ctx, r.joined); err != nil {
		return err
	}
	r.cfg.Logf("loadgen: drained %s (members now %d)", r.joined, r.cl.Members())
	r.joined = ""
	return nil
}

// eventRebalance migrates a slice of the timeline keyspace between
// neighbors by moving the highest t|u bound — the same ExtractRange/
// SpliceRange/MapUpdate path an operator's pequod-cli move drives.
func (r *Runner) eventRebalance(ctx context.Context) error {
	bounds := r.cl.Map().Bounds()
	for i := len(bounds) - 1; i >= 0; i-- {
		num, ok := parseUserBound(bounds[i])
		if !ok {
			continue
		}
		delta := r.cfg.Users/16 + 1
		next := num + delta
		if next >= r.cfg.Users {
			next = num - delta
		}
		if next <= 0 {
			continue
		}
		target := fmt.Sprintf("t|u%07d", next)
		// Keep the bound list strictly ordered after the move.
		if i > 0 && target <= bounds[i-1] || i < len(bounds)-1 && target >= bounds[i+1] {
			continue
		}
		if err := r.cl.MoveBound(ctx, i, target); err != nil {
			return err
		}
		r.cfg.Logf("loadgen: moved bound %d: %q -> %q", i, bounds[i], target)
		return nil
	}
	return fmt.Errorf("rebalance: no movable t|u bound in %v", bounds)
}

func parseUserBound(b string) (int, bool) {
	if !strings.HasPrefix(b, "t|u") {
		return 0, false
	}
	n, err := strconv.Atoi(b[len("t|u"):])
	if err != nil {
		return 0, false
	}
	return n, true
}

// eventKill hard-stops a member and waits for the failure detector and
// coordinator to repair the map around the death. The write fence is
// held exclusively across quiesce+close, so every acknowledged post
// has settled onto its replicas before they become the only copy —
// the durability contract automatic repair promotes under.
func (r *Runner) eventKill(ctx context.Context) error {
	s := r.servers[r.killAddr]
	if s == nil {
		return fmt.Errorf("kill: no owned server at %s", r.killAddr)
	}
	r.fence.Lock()
	err := r.quiesceRetry(ctx, 15*time.Second)
	if err == nil {
		s.Close()
		delete(r.servers, r.killAddr)
	}
	r.fence.Unlock()
	if err != nil {
		return fmt.Errorf("kill: pre-kill quiesce: %w", err)
	}
	r.cfg.Logf("loadgen: killed %s, awaiting automatic repair", r.killAddr)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if !containsStr(r.cl.MemberAddrs(), r.killAddr) {
			r.cfg.Logf("loadgen: repair complete (members now %d)", r.cl.Members())
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("kill: automatic repair never removed %s", r.killAddr)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// eventRestart gracefully stops a durable member and warm-restarts it
// from its data dir at the same address: recovery replays snapshot+log
// inside server.New before the listener rebinds, so the member comes
// back owning what it owned. The fence (plus quiesce) is held across
// the gap; the gap is short enough that the failure detector's miss
// budget normally keeps the map unchanged, and if a detection does
// race the restart the pre-close quiesce means repair loses nothing.
func (r *Runner) eventRestart(ctx context.Context) error {
	addr := r.restartAddr
	s := r.servers[addr]
	if s == nil {
		return fmt.Errorf("restart: no owned server at %s", addr)
	}
	dir := r.dirs[addr]
	if dir == "" {
		return fmt.Errorf("restart: member %s is not durable", addr)
	}
	r.fence.Lock()
	defer r.fence.Unlock()
	if err := r.quiesceRetry(ctx, 15*time.Second); err != nil {
		return fmt.Errorf("restart: pre-restart quiesce: %w", err)
	}
	s.Close()
	scfg, err := r.serverConfig(filepath.Base(dir))
	if err != nil {
		return err
	}
	s2, err := server.New(scfg)
	if err != nil {
		return fmt.Errorf("restart: recovering from %s: %w", dir, err)
	}
	var ln net.Listener
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			s2.Close()
			return fmt.Errorf("restart: rebinding %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	go s2.Serve(ln) //nolint:errcheck // exits when teardown closes the server
	r.servers[addr] = s2
	r.cfg.Logf("loadgen: warm-restarted %s from %s", addr, dir)
	return nil
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
