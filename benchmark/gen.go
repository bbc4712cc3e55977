package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"pequod/internal/twip"
)

// spec is one workload: the data it loads, the traffic it sends and the
// deployment it sends it to. Everything else derives from the seed.
type spec struct {
	Name     string   `json:"name"`
	Embedded bool     `json:"embedded"` // pequod.Cache in process; otherwise the 2-member cluster
	Users    int      `json:"users"`
	Edges    int      `json:"edges"`
	Posts    int      `json:"posts"` // historical posts loaded in set-up
	Mix      twip.Mix `json:"mix"`
	// LoginAll draws login users from every user, not the active pool:
	// the reads that touch timelines nobody has materialised.
	LoginAll bool `json:"login_all"`
	Durable  bool `json:"durable"` // DataDir on both members
	// MemDiv > 0 caps the timeline member's memory at its base-data
	// copy plus 1/MemDiv of the estimated timeline bytes.
	MemDiv int `json:"mem_div"`
	// Rates are the open-loop offered rates lo/ref/hi in ops/s: absolute
	// constants chosen once on the defining machine (README.md) as about
	// 20/40/70 % of the workload's closed-loop throughput.
	Rates [3]float64 `json:"rates"`
	// ProbeEvery makes every k-th post a freshness probe.
	ProbeEvery int `json:"probe_every"`
	// Replay is how many ops of the replay stream the traced ladder sends
	// through each rung.
	Replay int `json:"replay"`
}

const (
	activeFraction = 0.7 // share of users that read timelines (§5.1)
	tweetLen       = 100
	textPool       = 256 // distinct tweet bodies
)

var paperMix = twip.Mix{Login: 5, Check: 85, Subscribe: 9, Post: 1}

// specs are the four workloads. Names are fixed: later issues cite them.
var specs = []spec{
	{Name: "embedded-twip", Embedded: true, Users: 2000, Edges: 40000, Posts: 10000,
		Mix: paperMix, Rates: [3]float64{8400, 17000, 29000}, ProbeEvery: 1, Replay: 20000},
	{Name: "cluster-read", Users: 2000, Edges: 40000, Posts: 10000,
		Mix: paperMix, Rates: [3]float64{4400, 8800, 15000}, ProbeEvery: 1, Replay: 20000},
	{Name: "cluster-write", Users: 2000, Edges: 40000, Posts: 10000, Durable: true,
		Mix:   twip.Mix{Login: 2, Check: 48, Subscribe: 10, Post: 40},
		Rates: [3]float64{960, 1900, 3400}, ProbeEvery: 4, Replay: 5000},
	{Name: "cluster-cold", Users: 2000, Edges: 40000, Posts: 10000, LoginAll: true, MemDiv: 4,
		Mix:   twip.Mix{Login: 60, Check: 30, Subscribe: 0, Post: 10},
		Rates: [3]float64{190, 380, 670}, ProbeEvery: 1, Replay: 2000},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}

// scaled shrinks a spec's data for -smoke and the self-tests.
func (sp spec) scaled(div int) spec {
	sp.Users /= div
	sp.Edges /= div
	sp.Posts /= div
	sp.Replay /= div
	return sp
}

// datasetSeed generates the data every run loads: the follower graph,
// the historical posts, the active reader pool and the tweet bodies are
// the benchmark's fixed dataset, as a crawl would be. -seed drives the
// traffic: every op stream and every arrival schedule. Drawing a new
// graph per seed would make the Zipf tail (the largest fan-outs) part of
// the run-to-run spread.
const datasetSeed = 2014

// universe is a run's input: the dataset plus the seed of its traffic.
type universe struct {
	sp     *spec
	seed   int64
	g      *twip.Graph
	hist   []twip.Op
	histN  []int // historical posts per poster
	active []int32
	ids    []string // ids[u] = "u%07d"
	texts  []string
}

func newUniverse(sp *spec, seed int64) *universe {
	u := &universe{sp: sp, seed: seed}
	u.g = twip.Generate(sp.Users, sp.Edges, datasetSeed)
	rng := rand.New(rand.NewSource(datasetSeed + 1))
	u.texts = make([]string, textPool)
	for i := range u.texts {
		u.texts[i] = twip.TweetBody(rng, tweetLen)
	}
	// Historical posts: popularity-skewed posters, times 1..Posts.
	u.hist = make([]twip.Op, sp.Posts)
	u.histN = make([]int, sp.Users)
	for i := range u.hist {
		u.hist[i] = twip.Op{Kind: twip.OpPost, User: u.g.SamplePoster(rng),
			Time: int64(i + 1), Text: u.texts[rng.Intn(textPool)]}
		u.histN[u.hist[i].User]++
	}
	n := int(float64(sp.Users) * activeFraction)
	if n < 1 {
		n = 1
	}
	for _, a := range rng.Perm(sp.Users)[:n] {
		u.active = append(u.active, int32(a))
	}
	u.ids = make([]string, sp.Users)
	for i := range u.ids {
		u.ids[i] = fmt.Sprintf("u%07d", i)
	}
	return u
}

// timeID renders a logical timestamp as ten zero-padded digits.
func timeID(t int64) string {
	var b [10]byte
	for i := 9; i >= 0; i-- {
		b[i] = byte('0' + t%10)
		t /= 10
	}
	return string(b[:])
}

// op is one generated operation. Post timestamps and check lower bounds
// are assigned when the op runs (they depend on what ran before it);
// everything else is fixed by the seed.
type op struct {
	kind   twip.OpKind
	idx    int32 // active-pool index of a reader, -1 for a login drawn from all users
	user   int32 // reader / subscriber
	target int32 // subscription target / poster
	text   int32 // index into universe.texts
}

// opGen draws a workload's op stream. Each stream (one per worker and
// window) has its own generator so the stream does not depend on how
// workers interleave.
type opGen struct {
	u       *universe
	rng     *rand.Rand
	sampler twip.OpSampler
}

// Stream ids: which generator a window's worker w uses.
const (
	streamReplay = 0 // the traced ladder's ops, also in the digest
	streamClosed = 100
	streamOpen   = 200 // + 10 × step
	streamPair   = 300 // trace-overhead pair
	streamPar    = 400 // shard parallel-read probe
	streamNotify = 500 // posts-only burst behind server.notified_changes_per_post
)

func (u *universe) gen(stream int) *opGen {
	return &opGen{u: u, rng: rand.New(rand.NewSource(u.seed*7919 + int64(stream))),
		sampler: twip.NewOpSampler(u.sp.Mix)}
}

func (g *opGen) next() op {
	u := g.u
	kind := g.sampler.Sample(g.rng)
	switch kind {
	case twip.OpPost:
		return op{kind: kind, idx: -1, target: u.g.SamplePoster(g.rng), text: int32(g.rng.Intn(textPool))}
	case twip.OpSubscribe:
		i := int32(g.rng.Intn(len(u.active)))
		user := u.active[i]
		target := int32(g.rng.Intn(u.sp.Users))
		if target == user {
			target = (target + 1) % int32(u.sp.Users)
		}
		return op{kind: kind, idx: i, user: user, target: target}
	case twip.OpLogin:
		if u.sp.LoginAll {
			return op{kind: kind, idx: -1, user: int32(g.rng.Intn(u.sp.Users))}
		}
		fallthrough
	default:
		i := int32(g.rng.Intn(len(u.active)))
		return op{kind: kind, idx: i, user: u.active[i]}
	}
}

// arrival is one scheduled open-loop operation.
type arrival struct {
	at time.Duration // offset from the step's start
	op op
}

// schedule precomputes a Poisson arrival schedule at rate ops/s covering
// d, with the op each arrival carries.
func (u *universe) schedule(stream int, rate float64, d time.Duration) []arrival {
	g := u.gen(stream)
	arr := rand.New(rand.NewSource(u.seed*104729 + int64(stream)))
	out := make([]arrival, 0, int(rate*d.Seconds()*1.05)+16)
	t := 0.0
	for {
		t += arr.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, op: g.next()})
	}
}

func hashOp(h hash.Hash, o op) {
	var b [17]byte
	b[0] = byte(o.kind)
	binary.LittleEndian.PutUint32(b[1:], uint32(o.idx))
	binary.LittleEndian.PutUint32(b[5:], uint32(o.user))
	binary.LittleEndian.PutUint32(b[9:], uint32(o.target))
	binary.LittleEndian.PutUint32(b[13:], uint32(o.text))
	h.Write(b[:])
}

// digest is the SHA-256 of the run's inputs: the graph, the historical
// posts, the replay stream and the ref step's first arrivals. Two runs
// with equal digests were given the same work.
func (u *universe) digest() string {
	h := sha256.New()
	var b [8]byte
	for user, ps := range u.g.Following {
		for _, p := range ps {
			binary.LittleEndian.PutUint32(b[:], uint32(user))
			binary.LittleEndian.PutUint32(b[4:], uint32(p))
			h.Write(b[:])
		}
	}
	for _, p := range u.hist {
		binary.LittleEndian.PutUint64(b[:], uint64(p.Time)<<32|uint64(uint32(p.User)))
		h.Write(b[:])
		h.Write([]byte(p.Text))
	}
	g := u.gen(streamReplay)
	for i := 0; i < u.sp.Replay; i++ {
		hashOp(h, g.next())
	}
	for _, a := range u.schedule(streamOpen+10, u.sp.Rates[1], time.Second) {
		binary.LittleEndian.PutUint64(b[:], uint64(a.at))
		h.Write(b[:])
		hashOp(h, a.op)
	}
	return hex.EncodeToString(h.Sum(nil))
}
