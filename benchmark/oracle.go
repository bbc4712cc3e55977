package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// oracle is the independent reference: plain maps of who follows whom
// and who posted what, fed every write before it is sent, and sharing no
// code with Pequod (it formats and parses keys itself). A timeline must
// always be a subset of follows × posts as issued, and after Quiesce it
// must equal it byte for byte.
type oracle struct {
	mu      sync.RWMutex
	follows map[int32]map[int32]struct{} // user -> posters
	posts   map[int32][]refPost          // poster -> posts in issue order
	byKey   map[postKey]string           // (poster, time) -> text

	vmu        sync.Mutex
	violations []string
}

type refPost struct {
	time int64
	text string
}

type postKey struct {
	poster int32
	time   int64
}

func newOracle() *oracle {
	return &oracle{
		follows: make(map[int32]map[int32]struct{}),
		posts:   make(map[int32][]refPost),
		byKey:   make(map[postKey]string),
	}
}

func (o *oracle) subscribe(user, poster int32) {
	o.mu.Lock()
	m := o.follows[user]
	if m == nil {
		m = make(map[int32]struct{})
		o.follows[user] = m
	}
	m[poster] = struct{}{}
	o.mu.Unlock()
}

func (o *oracle) post(poster int32, t int64, text string) {
	o.mu.Lock()
	_, dup := o.byKey[postKey{poster, t}]
	o.posts[poster] = append(o.posts[poster], refPost{t, text})
	o.byKey[postKey{poster, t}] = text
	o.mu.Unlock()
	if dup {
		o.violate("harness: poster %d was given timestamp %d twice", poster, t)
	}
}

func (o *oracle) violate(format string, args ...any) {
	o.vmu.Lock()
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	} else if len(o.violations) == 20 {
		o.violations = append(o.violations, "… more violations not listed")
	}
	o.vmu.Unlock()
}

func (o *oracle) violationCount() int {
	o.vmu.Lock()
	defer o.vmu.Unlock()
	return len(o.violations)
}

// row is one returned timeline pair, as the reference sees it.
type row struct{ key, value string }

// parseTimelineKey splits "t|u0000012|0000000345|u0000067".
func parseTimelineKey(k string) (user int32, t int64, poster int32, ok bool) {
	parts := strings.Split(k, "|")
	if len(parts) != 4 || parts[0] != "t" || len(parts[1]) < 2 || len(parts[3]) < 2 {
		return 0, 0, 0, false
	}
	u, err1 := strconv.ParseInt(parts[1][1:], 10, 32)
	tt, err2 := strconv.ParseInt(parts[2], 10, 64)
	p, err3 := strconv.ParseInt(parts[3][1:], 10, 32)
	if err1 != nil || err2 != nil || err3 != nil || parts[1][0] != 'u' || parts[3][0] != 'u' {
		return 0, 0, 0, false
	}
	return int32(u), tt, int32(p), true
}

// checkRead audits one in-run read of user's timeline from since on:
// every row must belong to that user and window, appear once, come from
// a poster the user was asked to follow, and carry the text issued for
// that (poster, time). Absence is not judged in-run — writes are still
// in flight — only by finalCompare.
func (o *oracle) checkRead(user int32, since int64, rows []row) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	prev := ""
	for _, r := range rows {
		if r.key <= prev {
			o.violate("duplicate or unordered row %q after %q", r.key, prev)
		}
		prev = r.key
		u, t, p, ok := parseTimelineKey(r.key)
		if !ok || u != user || t < since {
			o.violate("row %q outside timeline of user %d since %d", r.key, user, since)
			continue
		}
		if _, follows := o.follows[user][p]; !follows {
			o.violate("phantom row %q: user %d does not follow %d", r.key, user, p)
			continue
		}
		want, posted := o.byKey[postKey{p, t}]
		if !posted {
			o.violate("phantom row %q: poster %d issued nothing at %d", r.key, p, t)
		} else if want != r.value {
			o.violate("payload mismatch at %q", r.key)
		}
	}
}

// expected builds user's full reference timeline in key order.
func (o *oracle) expected(user int32) []row {
	var out []row
	for p := range o.follows[user] {
		for _, post := range o.posts[p] {
			out = append(out, row{
				key:   fmt.Sprintf("t|u%07d|%010d|u%07d", user, post.time, p),
				value: post.text,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// finalCompare checks one user's settled full timeline against the
// reference, byte for byte, and returns the number of rows compared.
func (o *oracle) finalCompare(user int32, got []row) int {
	o.mu.RLock()
	want := o.expected(user)
	o.mu.RUnlock()
	if len(got) != len(want) {
		o.violate("user %d: %d rows, reference has %d", user, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			o.violate("user %d row %d: got %q=%q want %q=%q", user, i,
				got[i].key, got[i].value, want[i].key, want[i].value)
			break
		}
	}
	return len(want)
}

// timelineRows counts the reference's timeline rows over all users.
func (o *oracle) timelineRows() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var n int64
	for _, ps := range o.follows {
		for p := range ps {
			n += int64(len(o.posts[p]))
		}
	}
	return n
}
