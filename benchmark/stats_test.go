package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0, 10}, {1, 100}, {0.55, 60}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 := quartiles([]float64{3, 1, 5, 2, 4})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([10,20,30,40,50,60,70,80,90,100], n=4) == [27.5, 55.0, 82.5]
	q1, q3 = quartiles([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if q1 != 27.5 || q3 != 82.5 {
		t.Errorf("quartiles of ten = %v, %v, want 27.5, 82.5", q1, q3)
	}
	if got := spreadOf([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (82.5-27.5)/55 = 1", got)
	}
}

func TestSegmentMedian(t *testing.T) {
	// A 5 ms window, one worker; segment i holds latencies (i+1)*1000 ns
	// three times, except the last segment, which is one slow outlier.
	var ws []sample
	for seg := 0; seg < segments; seg++ {
		for k := 0; k < 3; k++ {
			lat := uint32((seg + 1) * 1000)
			if seg == segments-1 {
				lat = 900000
			}
			ws = append(ws, sample{at: uint32(seg*1000 + 100*k), lat: lat, kind: kCheck})
		}
		ws = append(ws, sample{at: uint32(seg * 1000), lat: 7, kind: kPost}) // another kind: ignored
	}
	st := quantileStat(bySegment([][]sample{ws}, kCheck, 5000), 0.5)
	// Segment medians 1, 2, 3, 4, 900 us: the metric is their median.
	if st.Value != 3 || st.Samples != 15 || len(st.Segs) != segments {
		t.Errorf("segment median = %+v, want value 3 from 15 samples in 5 segments", st)
	}
	// A sample finishing after the window's end belongs to the last segment.
	late := bySegment([][]sample{{{at: 9999, lat: 1, kind: kCheck}}}, kCheck, 5000)
	if len(late[segments-1]) != 1 {
		t.Errorf("late sample not in the last segment: %v", late)
	}
}

// The A/A verdict is two-sided: the same binary coming out much better
// the second time is as much a failure to resolve the bound as coming
// out much worse.
func TestAAGapIsTwoSided(t *testing.T) {
	for _, c := range []struct {
		ma, mb float64
		better string
		worse  float64
		breach bool
	}{
		{100, 110, "lower", 0.10, false},
		{100, 140, "lower", 0.40, true},
		{100, 60, "lower", -0.40, true}, // B far better than A
		{100, 60, "higher", 0.40, true},
		{100, 140, "higher", -0.40, true}, // B far better than A
		{100, 80, "lower", -0.20, false},  // 25 % of the smaller median: at the bound, not past it
		{100, 79, "lower", -0.21, true},
	} {
		worse, breach := aaGap(c.ma, c.mb, c.better, 0.25)
		if math.Abs(worse-c.worse) > 1e-12 || breach != c.breach {
			t.Errorf("aaGap(%v, %v, %s) = %+.3f, %v; want %+.3f, %v", c.ma, c.mb, c.better, worse, breach, c.worse, c.breach)
		}
	}
}
