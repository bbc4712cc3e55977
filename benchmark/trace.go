package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"pequod/internal/twip"
)

// span is one timed call into a layer. Spans of one op share OpID
// across the rungs of the ladder; Parent names the span of the rung
// above (empty at the top), so a layer's self time is its span minus
// its child's.
type span struct {
	OpID   int64  `json:"op_id"`
	Name   string `json:"name"` // "<layer>.<op>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

var opNames = [...]string{twip.OpLogin: "login", twip.OpCheck: "check", twip.OpSubscribe: "sub", twip.OpPost: "post"}

// parentOf is the rung above each rung.
var parentOf = map[string]string{rungCore: rungShard, rungShard: rungServer, rungServer: rungCluster}

// Span layers of the windows (the rungs use their rung names).
const (
	layerOpen   = "open"
	layerClosed = "closed"
)

var traceEpoch = time.Now()

// trace appends the span of the op the worker just ran: from when the
// call began, or in the open loop from when the op was due, with the
// wait until it began as a child span. Spans stay in memory; writeSpans
// puts them on disk when the run ends.
func (w *worker) trace(kind twip.OpKind, due, begin, end time.Time) {
	name := w.layer + "." + opNames[kind]
	ns := func(t time.Time) int64 { return t.Sub(traceEpoch).Nanoseconds() }
	sp := span{OpID: w.opID, Name: name, Start: ns(begin), End: ns(end)}
	if p := parentOf[w.layer]; p != "" {
		sp.Parent = p + "." + opNames[kind]
	}
	if w.layer == layerOpen {
		sp.Start = ns(due)
		*w.spans = append(*w.spans, span{OpID: w.opID, Name: "harness.queue_wait", Start: ns(due), End: ns(begin), Parent: name})
	}
	*w.spans = append(*w.spans, sp)
	w.opID++
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
