// Command pequod-cli is a command-line client for Pequod servers. It
// speaks the unified Store API: point it at one server (-addr) or at a
// partitioned cluster (-addrs with -bounds), and the same commands work
// against either. Cluster mode additionally drives live re-partitioning
// (the move and rebalance subcommands).
//
// Usage:
//
//	pequod-cli [-addr host:port] command args...
//	pequod-cli -addrs a:1,a:2 -bounds 'm' command args...
//
// Flags:
//
//	-addr host:port   single server address (default 127.0.0.1:7744)
//	-addrs a,b,...    cluster member addresses, one per partition range
//	-bounds k1,k2     partition split points (cluster mode; one fewer
//	                  than -addrs)
//	-timeout dur      per-invocation deadline (default 10s)
//	-stale dur        staleness budget for reads (get/scan/scanpfx/count;
//	                  default 0 = fully fresh): the server may answer
//	                  from its current view when all deferred
//	                  maintenance covering the read is younger than the
//	                  budget — see `health`'s lag column for what the
//	                  cluster's current debt looks like
//
// Commands (both modes):
//
//	get KEY                  print the value under KEY
//	put KEY VALUE            store VALUE under KEY
//	rm KEY                   remove KEY
//	scan LO HI [LIMIT]       print pairs in [LO, HI)
//	scanpfx COMP [COMP...]   print pairs with the component prefix
//	count LO HI              count keys in [LO, HI)
//	addjoin SPEC             install a cache join
//	quiesce                  settle asynchronous replication
//	stat                     print engine counters
//
// Commands (single-server mode only):
//
//	statjson                 print the raw per-server stats JSON
//	                         (entries, bytes, rebalancer state, load,
//	                         cluster map) — cluster members each have
//	                         their own; point -addr at one to inspect it
//
// Commands (cluster mode only — the pequod.Admin surface):
//
//	move IDX BOUND           live-migrate: move partition bound IDX to
//	                         BOUND, transferring the implied key range
//	                         between the servers on either side
//	rebalance [DUR]          watch per-server load and migrate hot
//	                         ranges for DUR (default 30s), one decision
//	                         per second, printing each move
//	add ADDR [OWNER BOUND]   join the server at ADDR to the cluster
//	                         live: wire it into the mesh, grant it an
//	                         initial slice (owner OWNER's range split
//	                         at BOUND; picked from load samples when
//	                         omitted), and publish the grown map
//	drain ADDR               stream every range the member at ADDR
//	                         owns to its neighbors, remove it from the
//	                         map, and tear down its mesh wiring — then
//	                         it is safe to stop the process
//	health                   probe every member and print one line each:
//	                         liveness, durable ID, owned ranges, replicas
//	                         held, replication lag and staleness debt
//	                         (what bounded reads trade against a -stale
//	                         budget), and — on members running with a
//	                         -data-dir — durability state (write-behind
//	                         log lag, last snapshot age, and lineage
//	                         damage: a corrupt lineage or dropped records
//	                         print a CORRUPT/DROPPED marker, while a
//	                         recovered crash tail prints torn-tail —
//	                         healthy, nothing beyond the crash window
//	                         was lost)
//	repair                   reassign every unreachable member's ranges
//	                         to surviving replica holders and publish
//	                         the repaired map (what the automatic
//	                         failure detector runs on a confirmed death)
//	snapshot                 ask every member to write a durable snapshot
//	                         now, bounding restart replay before planned
//	                         maintenance (members without a -data-dir
//	                         fail theirs and are named in the error)
//	restore OLD NEW          substitute NEW for the confirmed-dead member
//	                         OLD in the map, serving OLD's ranges from
//	                         the durable lineage the server at NEW
//	                         recovered (start it with -data-dir over the
//	                         re-keyed dir first; see -from below)
//
// Commands (no server connection — local data dir):
//
//	restore -from DIR NEW    re-key the meta.json identity of the dead
//	                         member's data dir DIR to the new address
//	                         NEW, the offline first step of a
//	                         cross-address restore; prints the old
//	                         address to pass to the cluster-mode restore
//
// See docs/OPERATIONS.md for the full add/drain/repair runbooks
// (including what the failure modes look like and how to read the stat
// output).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pequod"
)

// usageText is the -h command summary (the flag package prints the
// flags themselves).
const usageText = `usage:
  pequod-cli [-addr host:port] command args...
  pequod-cli -addrs a:1,a:2 -bounds 'm' command args...

commands (both modes):
  get KEY                  print the value under KEY
  put KEY VALUE            store VALUE under KEY
  rm KEY                   remove KEY
  scan LO HI [LIMIT]       print pairs in [LO, HI)
  scanpfx COMP [COMP...]   print pairs with the component prefix
  count LO HI              count keys in [LO, HI)
  addjoin SPEC             install a cache join
  quiesce                  settle asynchronous replication
  stat                     print engine counters

commands (single-server mode only):
  statjson                 print the raw per-server stats JSON

commands (cluster mode only):
  move IDX BOUND           live-migrate bound IDX to BOUND
  rebalance [DUR]          auto-migrate hot ranges for DUR (default 30s)
  add ADDR [OWNER BOUND]   join the server at ADDR live (see docs/OPERATIONS.md)
  drain ADDR               drain the member at ADDR live, then remove it
  health                   probe every member: liveness, ID, ranges, replicas,
                           replication lag / staleness debt, durability
                           (log lag, snapshot age, lineage damage)
  repair                   promote replicas over unreachable members (failover)
  snapshot                 durable snapshot at every member (bounds restart replay)
  restore OLD NEW          substitute NEW for dead member OLD, serving OLD's
                           ranges from the lineage the server at NEW recovered

commands (no server connection):
  restore -from DIR NEW    re-key the data dir DIR's identity to address NEW
                           (the offline first step of a cross-address restore)

flags:
`

func main() {
	log.SetPrefix("pequod-cli: ")
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7744", "server address")
	addrs := flag.String("addrs", "", "comma-separated cluster member addresses, one per partition range")
	bounds := flag.String("bounds", "", "comma-separated partition split points (cluster mode; one fewer than -addrs)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-invocation deadline")
	stale := flag.Duration("stale", 0, "staleness budget for reads (0 = fully fresh)")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), usageText)
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// `restore -from DIR NEW` is purely local (it rewrites a data dir's
	// meta.json); handle it before dialing anything.
	if args[0] == "restore" && len(args) == 4 && args[1] == "-from" {
		dir, newAddr := args[2], args[3]
		old, err := pequod.RekeyDataDir(dir, newAddr)
		if err != nil {
			log.Fatal(err)
		}
		if old == newAddr {
			fmt.Printf("%s already keyed to %s (re-key is idempotent)\n", dir, newAddr)
		} else {
			fmt.Printf("re-keyed %s: %s -> %s\n", dir, old, newAddr)
		}
		fmt.Printf("next: start the server over it:\n  pequod-server -addr %s -data-dir %s ...\n", newAddr, dir)
		fmt.Printf("then publish the substitution:\n  pequod-cli -addrs ... -bounds ... restore %s %s\n", old, newAddr)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if *stale > 0 {
		ctx = pequod.WithFreshness(ctx, *stale)
	}

	var store pequod.Store
	if *addrs != "" {
		cfg := pequod.ClusterConfig{Addrs: strings.Split(*addrs, ",")}
		if *bounds != "" {
			cfg.Bounds = strings.Split(*bounds, ",")
		}
		cl, err := pequod.NewCluster(ctx, cfg)
		if err != nil {
			log.Fatal(err)
		}
		store = cl
	} else {
		c, err := pequod.DialContext(ctx, *addr)
		if err != nil {
			log.Fatal(err)
		}
		store = c
	}
	defer store.Close()
	if err := run(ctx, store, args); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, c pequod.Store, args []string) error {
	switch cmd := args[0]; cmd {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("get KEY")
		}
		v, found, err := c.Get(ctx, args[1])
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("%q not found", args[1])
		}
		fmt.Println(v)
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("put KEY VALUE")
		}
		return c.Put(ctx, args[1], args[2])
	case "rm":
		if len(args) != 2 {
			return fmt.Errorf("rm KEY")
		}
		found, err := c.Remove(ctx, args[1])
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("%q not found", args[1])
		}
	case "scan":
		if len(args) < 3 || len(args) > 4 {
			return fmt.Errorf("scan LO HI [LIMIT]")
		}
		limit := 0
		if len(args) == 4 {
			var err error
			limit, err = strconv.Atoi(args[3])
			if err != nil {
				return err
			}
		}
		return printScan(ctx, c, args[1], args[2], limit)
	case "scanpfx":
		if len(args) < 2 {
			return fmt.Errorf("scanpfx COMP [COMP...]")
		}
		r := pequod.ScanRange(args[1:]...)
		return printScan(ctx, c, r.Lo, r.Hi, 0)
	case "count":
		if len(args) != 3 {
			return fmt.Errorf("count LO HI")
		}
		n, err := c.Count(ctx, args[1], args[2])
		if err != nil {
			return err
		}
		fmt.Println(n)
	case "addjoin":
		if len(args) != 2 {
			return fmt.Errorf("addjoin SPEC")
		}
		return c.Install(ctx, args[1])
	case "quiesce":
		return c.Quiesce(ctx)
	case "stat":
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%+v\n", st)
	case "statjson":
		cl, ok := c.(*pequod.Client)
		if !ok {
			return fmt.Errorf("statjson needs a single server (-addr); cluster members each have their own")
		}
		raw, err := cl.Stat(ctx)
		if err != nil {
			return err
		}
		fmt.Println(raw)
	case "move":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("move needs cluster mode (-addrs with -bounds)")
		}
		if len(args) != 3 {
			return fmt.Errorf("move IDX BOUND")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		if err := adm.MoveBound(ctx, idx, args[2]); err != nil {
			return err
		}
		st := adm.RebalancerStats()
		fmt.Printf("moved bound %d to %q (map v%d: %q)\n", idx, args[2], st.Version, st.Bounds)
	case "add":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("add needs cluster mode (-addrs with -bounds)")
		}
		switch len(args) {
		case 2:
			if err := adm.AddServer(ctx, args[1]); err != nil {
				return err
			}
		case 4:
			owner, err := strconv.Atoi(args[2])
			if err != nil {
				return err
			}
			if err := adm.AddServerAt(ctx, args[1], owner, args[3]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("add ADDR [OWNER BOUND]")
		}
		st := adm.RebalancerStats()
		fmt.Printf("added %s (map e%d v%d: %d members, bounds %q)\n",
			args[1], st.Epoch, st.Version, adm.Members(), st.Bounds)
	case "drain":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("drain needs cluster mode (-addrs with -bounds)")
		}
		if len(args) != 2 {
			return fmt.Errorf("drain ADDR")
		}
		if err := adm.DrainServer(ctx, args[1]); err != nil {
			return err
		}
		st := adm.RebalancerStats()
		fmt.Printf("drained %s (map e%d v%d: %d members, bounds %q); the process can be stopped\n",
			args[1], st.Epoch, st.Version, adm.Members(), st.Bounds)
	case "health":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("health needs cluster mode (-addrs with -bounds)")
		}
		if len(args) != 1 {
			return fmt.Errorf("health")
		}
		down, damaged := 0, 0
		for _, h := range adm.Health(ctx) {
			if h.Alive {
				durable := "durable=off"
				if h.Durable {
					age := "none"
					if h.SnapshotAgeMS >= 0 {
						age = (time.Duration(h.SnapshotAgeMS) * time.Millisecond).String()
					}
					durable = fmt.Sprintf("log-lag=%dB\tsnapshot-age=%s", h.LogLagBytes, age)
					// A recovered crash tail is healthy — only the un-fsynced
					// window was lost, by design. Corruption and drops mean
					// fsynced, acknowledged data is gone; mark them loudly.
					if h.TornTail {
						durable += "\ttorn-tail (healthy post-crash recovery)"
					}
					if h.CorruptSegments > 0 || h.CorruptSnapshots > 0 {
						damaged++
						durable += fmt.Sprintf("\tCORRUPT lineage: %d segment(s), %d snapshot(s)", h.CorruptSegments, h.CorruptSnapshots)
					}
					if h.DroppedRecords > 0 {
						damaged++
						durable += fmt.Sprintf("\tDROPPED %d record(s)", h.DroppedRecords)
					}
					if h.PendingRecords > 0 {
						durable += fmt.Sprintf("\tpending %d record(s) on flush retry", h.PendingRecords)
					}
				}
				stale := ""
				if h.StaleSpans > 0 {
					stale = fmt.Sprintf("\tstale-spans=%d\tstale-oldest=%s", h.StaleSpans, time.Duration(h.StaleOldUS)*time.Microsecond)
				}
				fmt.Printf("%s\talive\tid=%s\towners=%d\treplicas=%d%s\t%s\n", h.Addr, h.ID, h.Owners, h.Replicas, stale, durable)
				continue
			}
			down++
			fmt.Printf("%s\tDOWN\towners=%d\t%s\n", h.Addr, h.Owners, h.Err)
		}
		if down > 0 {
			return fmt.Errorf("%d member(s) down; run `pequod-cli repair` (or let the failure detector catch it)", down)
		}
		if damaged > 0 {
			return fmt.Errorf("%d member(s) report durable lineage damage; see the scrub triage row in docs/OPERATIONS.md", damaged)
		}
	case "repair":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("repair needs cluster mode (-addrs with -bounds)")
		}
		if len(args) != 1 {
			return fmt.Errorf("repair")
		}
		repaired, err := adm.Repair(ctx)
		if err != nil {
			return err
		}
		st := adm.RebalancerStats()
		if len(repaired) == 0 {
			fmt.Printf("all members healthy; nothing to repair (map e%d v%d)\n", st.Epoch, st.Version)
		} else {
			fmt.Printf("repaired %s out of the map (map e%d v%d: %d members remain)\n",
				strings.Join(repaired, ","), st.Epoch, st.Version, adm.Members())
		}
	case "restore":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("restore OLD NEW needs cluster mode (-addrs with -bounds); restore -from DIR NEW needs no connection")
		}
		if len(args) != 3 {
			return fmt.Errorf("restore OLD NEW (or restore -from DIR NEW for the offline re-key step)")
		}
		if err := adm.Restore(ctx, args[1], args[2]); err != nil {
			return err
		}
		st := adm.RebalancerStats()
		fmt.Printf("restored %s as %s (map e%d v%d: %d members, bounds %q)\n",
			args[1], args[2], st.Epoch, st.Version, adm.Members(), st.Bounds)
	case "snapshot":
		adm, ok := c.(pequod.Admin)
		if !ok {
			return fmt.Errorf("snapshot needs cluster mode (-addrs with -bounds)")
		}
		if len(args) != 1 {
			return fmt.Errorf("snapshot")
		}
		if err := adm.Snapshot(ctx); err != nil {
			return err
		}
		fmt.Printf("snapshot written at all %d members; restart replay starts from here\n", adm.Members())
	case "rebalance":
		cl, ok := c.(*pequod.Cluster)
		if !ok {
			return fmt.Errorf("rebalance needs cluster mode (-addrs with -bounds)")
		}
		dur := 30 * time.Second
		if len(args) > 2 {
			return fmt.Errorf("rebalance [DUR]")
		}
		if len(args) == 2 {
			var err error
			if dur, err = time.ParseDuration(args[1]); err != nil {
				return err
			}
		}
		return rebalance(cl, dur)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// rebalance drives one load-sampling/migration decision per second for
// dur, printing each executed move. Each tick gets its own deadline so
// a long watch is not cut short by the -timeout connection budget.
func rebalance(cl *pequod.Cluster, dur time.Duration) error {
	deadline := time.Now().Add(dur)
	for {
		tctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		moved, err := cl.RebalanceTick(tctx)
		cancel()
		if err != nil {
			return err
		}
		if moved {
			st := cl.RebalancerStats()
			fmt.Printf("migration %d: map v%d, bounds %q, loads %.0f\n",
				st.Migrations, st.Version, st.Bounds, st.Loads)
		}
		if !time.Now().Add(time.Second).Before(deadline) {
			st := cl.RebalancerStats()
			fmt.Printf("done: %d migrations, map v%d\n", st.Migrations, st.Version)
			return nil
		}
		time.Sleep(time.Second)
	}
}

func printScan(ctx context.Context, c pequod.Store, lo, hi string, limit int) error {
	kvs, err := c.Scan(ctx, lo, hi, limit)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		fmt.Printf("%s\t%s\n", kv.Key, kv.Value)
	}
	return nil
}
