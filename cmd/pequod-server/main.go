// Command pequod-server runs a standalone Pequod cache server.
//
// Usage:
//
//	pequod-server [-addr :7744] [-name pequod] [-id node-a]
//	              [-joins file.pql] [-subtable t=2]...
//	              [-mem bytes] [-no-hints] [-no-sharing]
//	              [-data-dir dir] [-sync-interval 25ms] [-snapshot-interval 30s]
//	              [-scrub-interval 1m] [-compact-interval 10s]
//
// A server is one single-writer engine, as in the paper: to use more
// cores, run more servers and let a cluster client partition the keys
// between them (see below). -name labels the server in stats; -id sets
// its durable member identity (shown by `pequod-cli health` and the
// stat RPC, so operators can tell a restarted member from a fresh one;
// defaults to the name); -mem sets the §2.5 eviction threshold;
// -no-hints and -no-sharing disable the §4.2/§4.3 optimizations
// (ablations). Output hints both place a join's writes and start a warm
// scan of its status at the leaf it last wrote, so -no-hints turns off
// both.
//
// -data-dir enables the durable range store: base writes stream to a
// write-behind log under the directory (fsynced in batches every
// -sync-interval), periodic snapshots (every -snapshot-interval)
// truncate the log, and a restart with the same -data-dir recovers the
// member's rows, cluster position, and mesh wiring from disk before it
// serves — warm restarts, and the last-resort rebuild source for
// `pequod-cli` repairs when no live replica holder survives. Without
// the flag the server is purely in-memory, exactly as before. Two
// background loops ride along: a CRC scrub over the committed lineage
// (every -scrub-interval) that surfaces mid-lineage corruption through
// stats and `pequod-cli health` while replicas that could repair it
// still exist, and log compaction (every -compact-interval) that
// rewrites sealed segments dominated by dead overwrites so restart
// replay tracks live data rather than write volume. A negative
// interval disables its loop. See docs/OPERATIONS.md for sizing and
// recovery triage.
//
// Cluster deployments need no flags here: a pequod cluster client (or
// pequod-cli -addrs ... add/drain/move/rebalance) publishes the cluster
// partition map to each member, adds and drains members, and drives
// server-to-server live migration over the wire; the stat RPC's cluster
// block shows this member's current map and owned ranges.
//
// The joins file holds cache-join specifications, one per line or
// semicolon-separated (// comments allowed), e.g. the Twip timeline join:
//
//	t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"pequod/internal/core"
	"pequod/internal/join"
	"pequod/internal/server"
)

type subtableFlags map[string]int

func (s subtableFlags) String() string { return fmt.Sprint(map[string]int(s)) }

func (s subtableFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want table=depth, got %q", v)
	}
	d, err := strconv.Atoi(parts[1])
	if err != nil {
		return err
	}
	s[parts[0]] = d
	return nil
}

func main() {
	log.SetPrefix("pequod-server: ")
	log.SetFlags(0)

	addr := flag.String("addr", ":7744", "listen address")
	joinsFile := flag.String("joins", "", "file of cache-join specifications to install at startup")
	memLimit := flag.Int64("mem", 0, "eviction threshold in bytes (0 = never evict)")
	noHints := flag.Bool("no-hints", false, "disable output hints (§4.2), for writes and for warm scan starts")
	noSharing := flag.Bool("no-sharing", false, "disable value sharing (§4.3)")
	name := flag.String("name", "pequod", "server name for stats")
	id := flag.String("id", "", "durable member identity, stable across restarts and address changes (default: the name)")
	dataDir := flag.String("data-dir", "", "durable range store directory (empty = in-memory only)")
	syncInterval := flag.Duration("sync-interval", 0, "write-behind log fsync batching interval (0 = default 25ms; needs -data-dir)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "durable snapshot interval (0 = default 30s; needs -data-dir)")
	scrubInterval := flag.Duration("scrub-interval", 0, "durable lineage CRC scrub interval (0 = default 1m, negative = off; needs -data-dir)")
	compactInterval := flag.Duration("compact-interval", 0, "durable log compaction interval (0 = default 10s, negative = off; needs -data-dir)")
	subtables := subtableFlags{}
	flag.Var(subtables, "subtable", "subtable boundary, table=depth (repeatable, §4.1)")
	flag.Parse()

	joins := ""
	if *joinsFile != "" {
		data, err := os.ReadFile(*joinsFile)
		if err != nil {
			log.Fatal(err)
		}
		joins = string(data)
	}

	if *dataDir == "" && (*syncInterval != 0 || *snapshotInterval != 0 || *scrubInterval != 0 || *compactInterval != 0) {
		log.Fatal("-sync-interval, -snapshot-interval, -scrub-interval, and -compact-interval tune the durable store; pass -data-dir to enable it")
	}
	s, err := server.New(server.Config{
		Name: *name,
		ID:   *id,
		Engine: core.Options{
			DisableOutputHints:  *noHints,
			DisableValueSharing: *noSharing,
			MemLimit:            *memLimit,
		},
		Joins:            joins,
		SubtableDepths:   subtables,
		DataDir:          *dataDir,
		SyncInterval:     *syncInterval,
		SnapshotInterval: *snapshotInterval,
		ScrubInterval:    *scrubInterval,
		CompactInterval:  *compactInterval,
	})
	if err != nil {
		log.Fatal(err)
	}
	installed, err := join.ParseAll(joins)
	if err != nil {
		log.Fatal(err) // unreachable: server.New validated already
	}
	durably := ""
	if *dataDir != "" {
		durably = fmt.Sprintf(", durable in %s", *dataDir)
	}
	log.Printf("listening on %s (%d joins installed%s)", *addr, len(installed), durably)
	if err := s.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
}
