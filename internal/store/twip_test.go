package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// twipShape describes a Twip-shaped store: every user follows `follows`
// others, every user posts `posts` times, and each post lands in every
// follower's timeline — the benchmark's key formats and tweet length.
type twipShape struct {
	users, follows, posts int
	// share installs the post's own *Value under the timeline keys
	// (§4.3); otherwise each row gets a copy of the tweet.
	share bool
	// interleave inserts timeline rows in post order, each timeline
	// through its own hint, as eager maintenance does; otherwise each
	// timeline is inserted whole, in key order.
	interleave bool
	// shuffle inserts each whole timeline in a random order instead, as
	// a first login's join execution (followee by followee) and a
	// subscribe's copy into the middle of a timeline come close to.
	shuffle bool
	// subtables shards t| per user (§4.1).
	subtables bool
	// scatter replaces each timeline key with "t|" and 28 random
	// letters, so neighbouring keys share no prefix beyond a letter or
	// two: the worst case for packed leaves.
	scatter bool
}

func uid(u int) string { return fmt.Sprintf("u%07d", u) }

// build fills a fresh store. Every key and value is allocated here, so a
// caller measuring heap growth around build sees what the rows cost.
func (sh twipShape) build() *Store {
	s := New()
	if sh.subtables {
		s.SetSubtableDepth("t", 2)
	}
	followers := make([][]int, sh.users)
	for u := 0; u < sh.users; u++ {
		for f := 1; f <= sh.follows; f++ {
			p := (u + f*7) % sh.users
			followers[p] = append(followers[p], u)
			s.Put("s|"+uid(u)+"|"+uid(p), NewValue("1"))
		}
	}
	tweet := strings.Repeat("x", 99)
	type row struct {
		key string
		v   *Value
	}
	timelines := make([][]row, sh.users)
	hints := make([]Hint, sh.users)
	for n := 0; n < sh.posts; n++ {
		for p := 0; p < sh.users; p++ {
			at := fmt.Sprintf("%010d", n*sh.users+p)
			v := NewValue(tweet + string(rune('a'+p%26)))
			s.Put("p|"+uid(p)+"|"+at, v)
			for _, u := range followers[p] {
				tv := v
				if !sh.share {
					tv = NewValue(strings.Clone(v.String()))
				}
				k := "t|" + uid(u) + "|" + at + "|" + uid(p)
				if sh.interleave {
					s.PutHint(k, tv, &hints[u])
				} else {
					timelines[u] = append(timelines[u], row{k, tv})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	if sh.scatter {
		for _, rows := range timelines {
			for i := range rows {
				b := []byte("t|")
				for len(b) < 30 {
					b = append(b, byte('a'+rng.Intn(26)))
				}
				rows[i].key = string(b)
			}
		}
	}
	for u, rows := range timelines {
		if sh.shuffle {
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		for _, r := range rows {
			s.PutHint(r.key, r.v, &hints[u])
		}
	}
	return s
}

// TestAccountingMatchesHeap is the accounting-honesty test: for
// Twip-shaped rows Bytes() is within 15 % of the live heap the rows
// actually cost. The benchmark sizes its memory-limited workload in
// these accounted bytes, so an under-count would buy it a warmer cache
// than the limit says.
func TestAccountingMatchesHeap(t *testing.T) {
	for _, sh := range []twipShape{
		{users: 400, follows: 20, posts: 12, share: true, interleave: true},
		{users: 400, follows: 20, posts: 12, share: true, interleave: false},
		{users: 400, follows: 20, posts: 12, share: false, interleave: true},
		{users: 400, follows: 20, posts: 12, share: false, interleave: false},
		{users: 400, follows: 20, posts: 12, share: true, shuffle: true},
		{users: 400, follows: 20, posts: 12, share: true, interleave: true, subtables: true},
		{users: 3000, follows: 10, posts: 1, share: true, interleave: true, subtables: true}, // ten-row timelines
		{users: 400, follows: 20, posts: 12, share: true, scatter: true},                     // keys that share no prefix
	} {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		s := sh.build()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heap, accounted := int64(m1.HeapAlloc)-int64(m0.HeapAlloc), s.Bytes()
		rows := s.CountRange("t|", "t}")
		t.Logf("%+v: %d rows (%d in timelines), heap %d B, accounted %d B (%+.1f%%), %.1f accounted B per row, t| leaves %.2f full",
			sh, s.Len(), rows, heap, accounted, 100*float64(accounted-heap)/float64(heap), float64(accounted)/float64(s.Len()), fill(s.Table("t")))
		if d := float64(accounted-heap) / float64(heap); d < -0.15 || d > 0.15 {
			t.Errorf("%+v: Bytes() = %d but the rows hold %d B of heap (%+.1f%%)", sh, accounted, heap, 100*d)
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
	}
}

// fill is the share of t's leaf slots that hold a row; a leaf has room
// for 62 (see leafBytes).
func fill(t *Table) float64 {
	rows, leaves := 0, 0
	t.trees("", "", func(tr *tree) bool {
		l, _ := tr.Nodes()
		rows, leaves = rows+tr.Len(), leaves+l
		return true
	})
	return float64(rows) / float64(62*leaves)
}

// The micro-benchmarks below run on the layout the live system has and
// the benchmark ladder's store rung does not reproduce: 2 000 timelines
// whose rows were inserted, and their keys allocated, in post order.
var benchShape = twipShape{users: 2000, follows: 20, posts: 14, share: true, interleave: true}

var interleaved = sync.OnceValue(benchShape.build)

func timelineRange(u int) (lo, hi string) { return "t|" + uid(u) + "|", "t|" + uid(u) + "}" }

// BenchmarkScanInterleaved scans one whole timeline per iteration.
func BenchmarkScanInterleaved(b *testing.B) {
	s := interleaved()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	rows, bytes := 0, 0
	for i := 0; i < b.N; i++ {
		lo, hi := timelineRange(rng.Intn(benchShape.users))
		s.Scan(lo, hi, func(k string, v *Value) bool {
			rows++
			bytes += len(k) + v.Len()
			return true
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rows, 1)), "ns/row")
	sink = bytes
}

// BenchmarkGetRandom reads one existing timeline row per iteration.
func BenchmarkGetRandom(b *testing.B) {
	s := interleaved()
	var ks []string
	s.Scan("t|", "t}", func(k string, _ *Value) bool {
		ks = append(ks, k)
		return true
	})
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(ks[i%len(ks)]); !ok {
			b.Fatal("row vanished")
		}
	}
}

// BenchmarkPutHintAppend appends one row per iteration to the end of one
// of 2 000 timelines in turn, each through its own hint: what a post's
// eager fan-out does.
func BenchmarkPutHintAppend(b *testing.B) {
	s := New()
	const users = 2000
	hints := make([]Hint, users)
	ks := make([]string, b.N)
	for i := range ks {
		ks[i] = fmt.Sprintf("t|%s|%010d|%s", uid(i*7%users), i, uid(i%users))
	}
	v := NewValue("tweet")
	b.ReportAllocs()
	b.ResetTimer()
	for i, k := range ks {
		s.PutHint(k, v, &hints[i*7%users])
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Bytes())/float64(max(s.Len(), 1)), "accountedB/row")
}

// BenchmarkPutShuffled inserts one row per iteration at a random place
// in 2 000 timelines, without a hint: the order a first login's join
// execution and a subscribe's copy write in, where a full leaf spills or
// splits under the insert.
func BenchmarkPutShuffled(b *testing.B) {
	s := New()
	const users = 2000
	rng := rand.New(rand.NewSource(1))
	ks := make([]string, b.N)
	for i := range ks {
		ks[i] = fmt.Sprintf("t|%s|%010d|%s", uid(rng.Intn(users)), rng.Int63n(1e10), uid(i%users))
	}
	v := NewValue("tweet")
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range ks {
		s.Put(k, v)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Bytes())/float64(max(s.Len(), 1)), "accountedB/row")
}

// BenchmarkRemoveRange evicts one whole timeline per iteration (and puts
// it back off the clock).
func BenchmarkRemoveRange(b *testing.B) {
	s := benchShape.build()
	type row struct {
		k string
		v *Value
	}
	var gone []row
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		lo, hi := timelineRange(i * 7 % benchShape.users)
		rows += s.RemoveRange(lo, hi, func(k string, v *Value) { gone = append(gone, row{k, v}) })
		b.StopTimer()
		var h Hint
		for _, r := range gone {
			s.PutHint(r.k, r.v, &h)
		}
		gone = gone[:0]
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rows, 1)), "ns/row")
}

var sink int
