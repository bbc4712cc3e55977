package main

import "testing"

func TestDigestFollowsSeed(t *testing.T) {
	for i := range specs {
		sp := specs[i].scaled(8)
		a, b, c := newUniverse(&sp, 7).digest(), newUniverse(&sp, 7).digest(), newUniverse(&sp, 8).digest()
		if a != b {
			t.Errorf("%s: same seed, different digests %s %s", sp.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", sp.Name)
		}
	}
}

func TestMixesAndStreams(t *testing.T) {
	for i := range specs {
		sp := specs[i].scaled(8)
		if sp.Mix.Total() != 100 {
			t.Errorf("%s: mix sums to %d", sp.Name, sp.Mix.Total())
		}
		u := newUniverse(&sp, 1)
		g1, g2 := u.gen(streamClosed), u.gen(streamClosed)
		other := u.gen(streamClosed + 1)
		same := true
		for k := 0; k < 1000; k++ {
			o := g1.next()
			if o != g2.next() {
				t.Fatalf("%s: one stream id gave two different streams", sp.Name)
			}
			if o != other.next() {
				same = false
			}
			if int(o.user) >= sp.Users || int(o.target) >= sp.Users {
				t.Fatalf("%s: op %+v names a user outside the graph", sp.Name, o)
			}
		}
		if same {
			t.Errorf("%s: two callers were given the same stream", sp.Name)
		}
		arr := u.schedule(streamOpen, 1000, dur(2))
		if n := len(arr); n < 1700 || n > 2300 {
			t.Errorf("%s: %d arrivals in 2 s at 1000/s", sp.Name, n)
		}
		for k := 1; k < len(arr); k++ {
			if arr[k].at < arr[k-1].at {
				t.Fatalf("%s: schedule not in time order at %d", sp.Name, k)
			}
		}
	}
}

func TestTimeID(t *testing.T) {
	if got := timeID(1234); got != "0000001234" {
		t.Errorf("timeID(1234) = %q", got)
	}
}
