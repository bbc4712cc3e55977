package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pequod/internal/durable"
	"pequod/internal/partition"
	"pequod/internal/rbtree"
	"pequod/internal/rpc"
	"pequod/internal/store"
)

// The rungs below core have no op stream of their own: they are timed on
// the workload's own keys — its base rows plus the first timelines of
// the reference, up to microRows rows.
const microRows = 100000

// microKeys returns the rows (keys with their values) the container and
// durable rungs are timed on.
func microKeys(u *universe, or *oracle) (keys, vals []string) {
	for user, ps := range u.g.Following {
		for _, p := range ps {
			keys, vals = append(keys, "s|"+u.ids[user]+"|"+u.ids[p]), append(vals, "1")
		}
	}
	for _, h := range u.hist {
		keys, vals = append(keys, "p|"+u.ids[h.User]+"|"+timeID(h.Time)), append(vals, h.Text)
	}
	or.mu.RLock()
	defer or.mu.RUnlock()
	for user := int32(0); int(user) < u.sp.Users && len(keys) < microRows; user++ {
		for _, r := range or.expected(user) {
			keys, vals = append(keys, r.key), append(vals, r.value)
		}
	}
	return keys, vals
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// microTrees times the rbtree, store and partition rungs.
func microTrees(m results, keys, vals []string, seed int64) {
	order := rand.New(rand.NewSource(seed)).Perm(len(keys))
	n := len(keys)

	var tree rbtree.Tree[int]
	t := time.Now()
	for _, i := range order {
		tree.Insert(keys[i], i)
	}
	m["rbtree.insert_ns"] = stat{Value: nsPer(time.Since(t), n), Unit: "ns", Samples: n}
	found := 0
	t = time.Now()
	for _, i := range order {
		if tree.Find(keys[i]) != nil {
			found++
		}
	}
	m["rbtree.find_ns"] = stat{Value: nsPer(time.Since(t), n), Unit: "ns", Samples: found}

	st := store.New()
	t = time.Now()
	for _, i := range order {
		st.Put(keys[i], store.NewValue(vals[i]))
	}
	m["store.put_ns"] = stat{Value: nsPer(time.Since(t), n), Unit: "ns", Samples: n}
	t = time.Now()
	for _, i := range order {
		if _, ok := st.Get(keys[i]); ok {
			found++
		}
	}
	m["store.get_ns"] = stat{Value: nsPer(time.Since(t), n), Unit: "ns", Samples: n}
	rows := 0
	t = time.Now()
	st.Scan("", "", func(string, *store.Value) bool { rows++; return true })
	m["store.scan_ns_per_row"] = stat{Value: nsPer(time.Since(t), max(rows, 1)), Unit: "ns", Samples: rows}
	m["store.bytes_per_row"] = stat{Value: float64(st.Bytes()) / float64(st.Len()), Unit: "bytes", Samples: st.Len()}

	pmap := partition.MustNew("t|") // the cluster workloads' map
	owners := 0
	t = time.Now()
	for _, k := range keys {
		owners += pmap.Owner(k)
	}
	m["partition.owner_ns"] = stat{Value: nsPer(time.Since(t), n), Unit: "ns", Samples: owners}
}

// microRPC times the codec on the requests and replies the replayed ops
// exchange: encode and decode per op (request + reply), bytes on the
// wire per op, and heap allocations per op.
func microRPC(m results, wire []wirePair) {
	n := len(wire)
	frames := make([][]byte, 0, 2*n)
	var buf []byte
	bytes := 0
	t := time.Now()
	for _, w := range wire {
		buf = w.req.Encode(buf[:0])
		bytes += len(buf)
		buf = w.reply.Encode(buf[:0])
		bytes += len(buf)
	}
	enc := time.Since(t)
	for _, w := range wire {
		frames = append(frames, w.req.Encode(nil), w.reply.Encode(nil))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t = time.Now()
	for _, f := range frames {
		if _, err := rpc.Decode(f[4:]); err != nil {
			panic(fmt.Sprintf("benchmark: frame it just encoded does not decode: %v", err))
		}
	}
	dec := time.Since(t)
	for _, w := range wire {
		buf = w.req.Encode(buf[:0])
		buf = w.reply.Encode(buf[:0])
	}
	runtime.ReadMemStats(&ms1)
	m["rpc.encode_ns_per_op"] = stat{Value: nsPer(enc, n), Unit: "ns", Samples: n}
	m["rpc.decode_ns_per_op"] = stat{Value: nsPer(dec, n), Unit: "ns", Samples: n}
	m["rpc.wire_bytes_per_op"] = stat{Value: float64(bytes) / float64(n), Unit: "bytes", Samples: n}
	m["rpc.allocs_per_op"] = stat{Value: float64(ms1.Mallocs-ms0.Mallocs) / float64(n), Unit: "count", Samples: n}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// microDurable times the durable store alone on the workload's rows:
// append (the only part on a writer's path), the fsync that makes a
// batch durable, a snapshot, and the replay a restart performs
// (durable.store_replay_ms; durable.replay_ms is a member's real warm
// restart and exists only on the durable workload).
func microDurable(m results, dataRoot string, keys, vals []string) error {
	dir, err := os.MkdirTemp(dataRoot, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := durable.Open(dir, 0)
	if err != nil {
		return err
	}
	var user int64
	t := time.Now()
	for i, k := range keys {
		st.Append(durable.OpPut, k, vals[i])
		user += int64(len(k) + len(vals[i]))
	}
	m["durable.append_ns"] = stat{Value: nsPer(time.Since(t), len(keys)), Unit: "ns", Samples: len(keys)}
	t = time.Now()
	if err := st.Sync(); err != nil {
		st.Close()
		return err
	}
	m["durable.sync_ms"] = plain("ms", float64(time.Since(t).Microseconds())/1e3)
	onDisk, err := dirBytes(dir)
	if err != nil {
		st.Close()
		return err
	}
	m["durable.bytes_per_user_byte"] = plain("ratio", float64(onDisk)/float64(user))
	t = time.Now()
	err = st.Snapshot(func(addKV func(k, v string), _ func(int, string, string)) error {
		for i, k := range keys {
			addKV(k, vals[i])
		}
		return nil
	})
	m["durable.snapshot_ms"] = plain("ms", float64(time.Since(t).Microseconds())/1e3)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t = time.Now()
	st, err = durable.Open(dir, 0)
	if err != nil {
		return err
	}
	rec, err := st.Recover()
	m["durable.store_replay_ms"] = plain("ms", float64(time.Since(t).Microseconds())/1e3)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil && len(rec.KVs) != len(keys) {
		err = fmt.Errorf("durable rung: %d rows replayed, %d logged", len(rec.KVs), len(keys))
	}
	return err
}
