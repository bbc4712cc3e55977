package main

import (
	"math"
	"sort"

	"pequod/internal/twip"
)

// segments is the number of equal slices every timed window is cut
// into; a metric is the median of its per-segment values, so one slow
// slice (a GC cycle, a noisy neighbour) moves the spread, not the value.
const segments = 5

// quantile returns the exact nearest-rank q-quantile of sorted samples:
// the smallest sample with at least q of the samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of vals (mean of the middle two when even).
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals with the same
// rule as Python's statistics.quantiles(vals, n=4) (exclusive method),
// which is what the driver applies across runs.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spreadOf is the inter-quartile distance of vals as a share of their
// median (0 when the median is 0).
func spreadOf(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// stat is one metric's value with what stands beside it in the JSON.
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Spread  float64   `json:"spread"`            // IQR of the segment values / their median
	Samples int       `json:"samples,omitempty"` // observations behind the value
	Segs    []float64 `json:"segments,omitempty"`
}

// segStat folds per-segment values into a stat: median and spread.
func segStat(unit string, segs []float64, samples int) stat {
	return stat{Value: median(segs), Unit: unit, Spread: spreadOf(segs), Samples: samples, Segs: segs}
}

// plain is a stat with a single observation.
func plain(unit string, v float64) stat { return stat{Value: v, Unit: unit, Samples: 1} }

func sortInt64(a []int64) { sort.Slice(a, func(i, j int) bool { return a[i] < a[j] }) }

// sample is one completed operation: when it finished (µs into its
// window), how long it took (ns, clamped to ~4.29 s) and what it was.
type sample struct {
	at   uint32
	lat  uint32
	kind uint8
}

// Sample kinds: the twip op kinds, then what the harness itself times.
const (
	kLogin = uint8(twip.OpLogin)
	kCheck = uint8(twip.OpCheck)
	kPost  = uint8(twip.OpPost) // the highest twip kind
)

const (
	kFresh     = kPost + 1 + iota // freshness-probe lag
	kLate                         // generator lateness (the caller was waiting for the scheduled instant)
	kQueueWait                    // start − scheduled, every open-loop op
)

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// bySegment splits the samples of one kind into per-segment sorted
// latency slices for a window of windowUS microseconds.
func bySegment(workers [][]sample, kind uint8, windowUS int64) [segments][]int64 {
	var out [segments][]int64
	for _, ws := range workers {
		for _, s := range ws {
			if s.kind != kind {
				continue
			}
			seg := int(int64(s.at) * segments / windowUS)
			if seg >= segments {
				seg = segments - 1
			}
			out[seg] = append(out[seg], int64(s.lat))
		}
	}
	for i := range out {
		sortInt64(out[i])
	}
	return out
}

// quantileStat is the median over segments of the exact q-quantile, in
// microseconds. Segments with no sample of the kind are left out.
func quantileStat(segs [segments][]int64, q float64) stat {
	var vals []float64
	n := 0
	for _, s := range segs {
		n += len(s)
		if len(s) > 0 {
			vals = append(vals, float64(quantile(s, q))/1e3)
		}
	}
	return segStat("us", vals, n)
}
