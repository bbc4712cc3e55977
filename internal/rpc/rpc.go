package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pequod/internal/core"
	"pequod/internal/partition"
)

// MsgType identifies a frame's meaning.
type MsgType byte

// Protocol message types.
const (
	MsgGet     MsgType = iota + 1 // Key -> Found/Value
	MsgPut                        // Key, Value
	MsgRemove                     // Key -> Found
	MsgScan                       // Lo, Hi, Limit, SubscribeFlag -> KVs
	MsgCount                      // Lo, Hi -> Count
	MsgAddJoin                    // Text
	MsgNotify                     // Changes (server push; no reply)
	MsgStat                       // -> Value (JSON)
	_                             // 9: was Flush; number reserved
	_                             // 10: was a §4.1 table boundary setting; number reserved
	MsgReply                      // Status, reply fields
	MsgCommand                    // Args (generic command; baseline engines)
	MsgQuiesce                    // settle replication (in-process + subscriptions)
	MsgPing                       // drain this connection's pushes, then reply
	_                             // 15: was ConnectPeers; number reserved

	// Cluster-level live migration (server-to-server range transfer).
	// Every map-bearing message carries the recipient's whole view (Map:
	// position, bounds, member addresses, the recipient's owner
	// indexes), so a membership change — which reshapes the map and
	// shifts owner indexes — travels with the transfer that performs it.
	MsgExtractRange // Map, Lo, Hi -> KVs, Warm: extract + flip ownership at src
	MsgSpliceRange  // Map, Lo, Hi, Src, KVs, Warm: install at dst
	// MapUpdate publishes the new cluster map, in Limit the total copies
	// of each range (0 = no change) and in Text the cluster's join set
	// ("" = no change; a joiner's first map carries it). Per-range
	// replication (failover) needs nothing more: each member derives the
	// ranges it holds from the ring order of member addresses and the
	// tables to copy from its own joins, so the assignment can never
	// disagree with the map it rides on. Membership needs nothing more
	// either: a member the map names for no range — a joiner before its
	// first splice, a drained member — holds no peer connection.
	MsgMapUpdate // Map, Limit (copies), Text (joins) -> Map (the recipient's)
	_            // 19: was JoinCluster; number reserved
	_            // 20: was Drain; number reserved
	_            // 21: was Replicate; number reserved

	// Durable store (warm restarts and last-resort recovery).
	MsgSnapshot     // force a durable snapshot now -> Count (rows captured)
	MsgRebuildRange // Lo, Hi: rebuild a range from the recipient's durable store -> Count (rows restored)
)

// Status codes in replies.
const (
	StatusOK    byte = 0
	StatusError byte = 1
	// StatusNotOwner reports that the serving process does not (or no
	// longer does) own the request's keys in the cluster partition: a
	// live migration moved them. The reply carries the server's current
	// view (Map) so the client re-routes and retries.
	StatusNotOwner byte = 2
)

// ChangeOp mirrors core.ChangeOp on the wire.
type ChangeOp byte

// Change operations for Notify frames.
const (
	ChangePut ChangeOp = iota
	ChangeRemove
)

// Change is one replicated store mutation.
type Change struct {
	Op    ChangeOp
	Key   string
	Value string
}

// KV is a scan result pair. It aliases the engine's KV so scan results
// cross the client/server/pool layers without element-wise conversion.
type KV = core.KV

// WarmRange aliases the engine's warm-coverage record (a previously
// valid computed range, identified by installed-join index) so extracted
// range state crosses the wire without conversion. Join indexes agree
// between servers because the cluster installs join texts on every
// member in the same order.
type WarmRange = core.WarmRange

// Message is the union of all frame payloads.
type Message struct {
	Type MsgType
	Seq  uint64

	// TimeoutMS is the caller's remaining deadline budget in
	// milliseconds when the request was sent (0 = no deadline). Servers
	// use it to bound blocking work — waiting on outstanding base-data
	// loads — rather than holding a doomed request open.
	TimeoutMS uint64

	// StaleMS is the caller's staleness budget in milliseconds for read
	// requests (0 = fully fresh, the default semantics). A server may
	// answer a bounded read from its current view, skipping deferred
	// maintenance whose age fits the budget. Carried on every frame like
	// TimeoutMS — one varint byte when zero — so it survives retries and
	// re-routing without per-type plumbing.
	StaleMS uint64

	// Request fields.
	Key, Value    string
	Lo, Hi        string
	Limit         int
	SubscribeFlag bool
	Text          string
	Changes       []Change
	Args          []string // MsgCommand

	// Map is the cluster view a control-plane frame carries: the view
	// the message installs at its recipient (ExtractRange, SpliceRange,
	// MapUpdate), or the view the server holds (StatusNotOwner replies
	// and the replies to MapUpdate, which have no self field). It stays
	// the raw tuple here so a malformed one is answered with an error
	// reply rather than a dropped connection; Map.View validates.
	Map partition.Wire

	// Cluster migration fields. Warm is the extracted computed coverage
	// to rebuild at the destination; Src is the address of the member
	// losing the range in a MsgSpliceRange ("" = none), which the
	// destination fences before splicing — an address, not an owner
	// index, because a membership change shifts indexes and a draining
	// member is absent from the new map entirely.
	Warm []WarmRange
	Src  string

	// Reply fields.
	Status byte
	Found  bool
	KVs    []KV
	Count  int64
	Err    string
}

// MaxFrame bounds a single frame; scans larger than this must be limited
// by the client. 256 MiB accommodates full-timeline warm scans.
const MaxFrame = 256 << 20

// appendUvarint/appendString build the wire form.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendKVs(b []byte, kvs []KV) []byte {
	b = binary.AppendUvarint(b, uint64(len(kvs)))
	for _, kv := range kvs {
		b = appendString(b, kv.Key)
		b = appendString(b, kv.Value)
	}
	return b
}

func appendWarm(b []byte, ws []WarmRange) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for _, w := range ws {
		b = binary.AppendUvarint(b, uint64(w.Join))
		b = appendString(b, w.R.Lo)
		b = appendString(b, w.R.Hi)
	}
	return b
}

func appendInts(b []byte, is []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(is)))
	for _, i := range is {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return b
}

// appendView writes a view's wire tuple: position, bounds, peers, and
// — on requests — self.
func appendView(b []byte, w partition.Wire, self bool) []byte {
	b = binary.AppendUvarint(b, uint64(w.Epoch))
	b = binary.AppendUvarint(b, uint64(w.Version))
	b = appendStrings(b, w.Bounds)
	b = appendStrings(b, w.Peers)
	if self {
		b = appendInts(b, w.Self)
	}
	return b
}

// Encode appends the message's frame (including length prefix) to buf and
// returns the extended slice. The caller may reuse buf across calls.
func (m *Message) Encode(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = append(buf, byte(m.Type))
	buf = appendUvarint(buf, m.Seq)
	buf = appendUvarint(buf, m.TimeoutMS)
	buf = appendUvarint(buf, m.StaleMS)
	switch m.Type {
	case MsgGet, MsgRemove:
		buf = appendString(buf, m.Key)
	case MsgPut:
		buf = appendString(buf, m.Key)
		buf = appendString(buf, m.Value)
	case MsgScan:
		buf = appendString(buf, m.Lo)
		buf = appendString(buf, m.Hi)
		buf = appendUvarint(buf, uint64(m.Limit))
		flag := byte(0)
		if m.SubscribeFlag {
			flag = 1
		}
		buf = append(buf, flag)
	case MsgCount:
		buf = appendString(buf, m.Lo)
		buf = appendString(buf, m.Hi)
	case MsgAddJoin:
		buf = appendString(buf, m.Text)
	case MsgNotify:
		buf = appendUvarint(buf, uint64(len(m.Changes)))
		for _, c := range m.Changes {
			buf = append(buf, byte(c.Op))
			buf = appendString(buf, c.Key)
			buf = appendString(buf, c.Value)
		}
	case MsgStat, MsgQuiesce, MsgPing, MsgSnapshot:
		// no payload
	case MsgCommand:
		buf = appendUvarint(buf, uint64(len(m.Args)))
		for _, a := range m.Args {
			buf = appendString(buf, a)
		}
	case MsgExtractRange, MsgSpliceRange, MsgMapUpdate:
		buf = appendView(buf, m.Map, true)
		switch m.Type {
		case MsgExtractRange:
			buf = appendString(buf, m.Lo)
			buf = appendString(buf, m.Hi)
		case MsgSpliceRange:
			buf = appendString(buf, m.Lo)
			buf = appendString(buf, m.Hi)
			buf = appendString(buf, m.Src) // "" = no fence target
			buf = appendKVs(buf, m.KVs)
			buf = appendWarm(buf, m.Warm)
		case MsgMapUpdate:
			buf = appendUvarint(buf, uint64(m.Limit))
			buf = appendString(buf, m.Text)
		}
	case MsgRebuildRange:
		buf = appendString(buf, m.Lo)
		buf = appendString(buf, m.Hi)
	case MsgReply:
		buf = append(buf, m.Status)
		found := byte(0)
		if m.Found {
			found = 1
		}
		buf = append(buf, found)
		buf = appendString(buf, m.Value)
		buf = appendString(buf, m.Err)
		buf = appendUvarint(buf, uint64(m.Count))
		buf = appendKVs(buf, m.KVs)
		// Migration extensions: the server's view on NotOwner replies,
		// the extracted warm coverage on ExtractRange replies. Empty
		// (five bytes) on every other reply.
		buf = appendView(buf, m.Map, false)
		buf = appendWarm(buf, m.Warm)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// decoder walks a frame payload. On a reply frame s is the payload as
// one string and every decoded string is a substring of it; on a
// request frame s is empty and each string gets its own copy.
type decoder struct {
	b   []byte
	s   string
	pos int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("rpc: truncated uvarint")
	}
	d.pos += n
	return v, nil
}

// rest is the number of payload bytes not yet decoded.
func (d *decoder) rest() uint64 { return uint64(len(d.b) - d.pos) }

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	// Compared as uint64: a wire length past MaxInt must not wrap negative.
	if n > d.rest() {
		return "", fmt.Errorf("rpc: truncated string")
	}
	end := d.pos + int(n)
	var s string
	if d.s != "" {
		s = d.s[d.pos:end]
	} else {
		s = string(d.b[d.pos:end])
	}
	d.pos = end
	return s, nil
}

// count reads a list length. Every element takes at least one byte, so
// a count the rest of the payload cannot hold is refused before it can
// size an allocation.
func (d *decoder) count(what string) (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > d.rest() {
		return 0, fmt.Errorf("rpc: %s count %d exceeds payload", what, n)
	}
	return n, nil
}

func (d *decoder) strs() ([]string, error) {
	n, err := d.count("string-list")
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// view decodes a view's wire tuple, the mirror of appendView.
func (d *decoder) view(self bool) (w partition.Wire, err error) {
	var e, v uint64
	if e, err = d.uvarint(); err != nil {
		return w, err
	}
	if v, err = d.uvarint(); err != nil {
		return w, err
	}
	w.Epoch, w.Version = int64(e), int64(v)
	if w.Bounds, err = d.strs(); err != nil {
		return w, err
	}
	if w.Peers, err = d.strs(); err != nil {
		return w, err
	}
	if self {
		w.Self, err = d.ints()
	}
	return w, err
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.b) {
		return 0, fmt.Errorf("rpc: truncated byte")
	}
	c := d.b[d.pos]
	d.pos++
	return c, nil
}

func (d *decoder) ints() ([]int, error) {
	n, err := d.count("int-list")
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, int(v))
	}
	return out, nil
}

func (d *decoder) kvs() ([]KV, error) {
	n, err := d.count("kv")
	if err != nil {
		return nil, err
	}
	out := make([]KV, 0, n)
	for i := uint64(0); i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, KV{Key: k, Value: v})
	}
	return out, nil
}

func (d *decoder) warm() ([]WarmRange, error) {
	n, err := d.count("warm")
	if err != nil {
		return nil, err
	}
	out := make([]WarmRange, 0, n)
	for i := uint64(0); i < n; i++ {
		j, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		lo, err := d.str()
		if err != nil {
			return nil, err
		}
		hi, err := d.str()
		if err != nil {
			return nil, err
		}
		w := WarmRange{Join: int(j)}
		w.R.Lo, w.R.Hi = lo, hi
		out = append(out, w)
	}
	return out, nil
}

// Decode parses a frame payload (without the length prefix). The
// message never aliases payload, so the caller may reuse it.
//
// A reply's strings — Value, Err, every KVs row, Map, Warm — are
// substrings of one copy of the payload: three allocations per reply
// (the message, that copy, the row slice) however many rows it carries.
// A caller that keeps a row past the reply keeps the whole frame alive,
// so a row bound for a store is copied where it lands. A request's
// strings go into the engine, so each is copied on its own here.
func Decode(payload []byte) (*Message, error) {
	d := &decoder{b: payload}
	t, err := d.byte()
	if err != nil {
		return nil, err
	}
	m := &Message{Type: MsgType(t)}
	if m.Type == MsgReply {
		d.s = string(payload)
	}
	if m.Seq, err = d.uvarint(); err != nil {
		return nil, err
	}
	if m.TimeoutMS, err = d.uvarint(); err != nil {
		return nil, err
	}
	if m.StaleMS, err = d.uvarint(); err != nil {
		return nil, err
	}
	switch m.Type {
	case MsgGet, MsgRemove:
		m.Key, err = d.str()
	case MsgPut:
		if m.Key, err = d.str(); err == nil {
			m.Value, err = d.str()
		}
	case MsgScan:
		if m.Lo, err = d.str(); err != nil {
			return nil, err
		}
		if m.Hi, err = d.str(); err != nil {
			return nil, err
		}
		var lim uint64
		if lim, err = d.uvarint(); err != nil {
			return nil, err
		}
		m.Limit = int(lim)
		var flag byte
		if flag, err = d.byte(); err == nil {
			m.SubscribeFlag = flag == 1
		}
	case MsgCount:
		if m.Lo, err = d.str(); err == nil {
			m.Hi, err = d.str()
		}
	case MsgAddJoin:
		m.Text, err = d.str()
	case MsgNotify:
		var n uint64
		if n, err = d.count("change"); err != nil {
			return nil, err
		}
		m.Changes = make([]Change, 0, n)
		for i := uint64(0); i < n; i++ {
			var op byte
			if op, err = d.byte(); err != nil {
				return nil, err
			}
			var k, v string
			if k, err = d.str(); err != nil {
				return nil, err
			}
			if v, err = d.str(); err != nil {
				return nil, err
			}
			m.Changes = append(m.Changes, Change{Op: ChangeOp(op), Key: k, Value: v})
		}
	case MsgStat, MsgQuiesce, MsgPing, MsgSnapshot:
		// no payload
	case MsgExtractRange, MsgSpliceRange, MsgMapUpdate:
		if m.Map, err = d.view(true); err != nil {
			return nil, err
		}
		switch m.Type {
		case MsgExtractRange:
			if m.Lo, err = d.str(); err != nil {
				return nil, err
			}
			m.Hi, err = d.str()
		case MsgSpliceRange:
			if m.Lo, err = d.str(); err != nil {
				return nil, err
			}
			if m.Hi, err = d.str(); err != nil {
				return nil, err
			}
			if m.Src, err = d.str(); err != nil {
				return nil, err
			}
			if m.KVs, err = d.kvs(); err != nil {
				return nil, err
			}
			m.Warm, err = d.warm()
		case MsgMapUpdate:
			var lim uint64
			if lim, err = d.uvarint(); err != nil {
				return nil, err
			}
			m.Limit = int(lim)
			m.Text, err = d.str()
		}
	case MsgRebuildRange:
		if m.Lo, err = d.str(); err != nil {
			return nil, err
		}
		m.Hi, err = d.str()
	case MsgCommand:
		var n uint64
		if n, err = d.count("arg"); err != nil {
			return nil, err
		}
		m.Args = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			var a string
			if a, err = d.str(); err != nil {
				return nil, err
			}
			m.Args = append(m.Args, a)
		}
	case MsgReply:
		if m.Status, err = d.byte(); err != nil {
			return nil, err
		}
		var found byte
		if found, err = d.byte(); err != nil {
			return nil, err
		}
		m.Found = found == 1
		if m.Value, err = d.str(); err != nil {
			return nil, err
		}
		if m.Err, err = d.str(); err != nil {
			return nil, err
		}
		var cnt uint64
		if cnt, err = d.uvarint(); err != nil {
			return nil, err
		}
		m.Count = int64(cnt)
		if m.KVs, err = d.kvs(); err != nil {
			return nil, err
		}
		if m.Map, err = d.view(false); err != nil {
			return nil, err
		}
		m.Warm, err = d.warm()
	default:
		return nil, fmt.Errorf("rpc: unknown message type %d", t)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMessage reads one frame from br. scratch (possibly nil) is reused
// for the payload when large enough; the returned buffer may be the grown
// scratch for the caller to reuse.
func ReadMessage(br *bufio.Reader, scratch []byte) (*Message, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, scratch, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return nil, scratch, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	buf := scratch[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, scratch, err
	}
	m, err := Decode(buf)
	return m, scratch, err
}

// WriteMessage encodes m and writes its frame to w (typically a
// bufio.Writer; the caller controls flushing). scratch is reused as the
// encode buffer.
func WriteMessage(w io.Writer, m *Message, scratch []byte) ([]byte, error) {
	buf := m.Encode(scratch[:0])
	_, err := w.Write(buf)
	return buf, err
}

// OKReply builds a success reply for seq.
func OKReply(seq uint64) *Message {
	return &Message{Type: MsgReply, Seq: seq, Status: StatusOK}
}

// ErrReply builds an error reply.
func ErrReply(seq uint64, err error) *Message {
	return &Message{Type: MsgReply, Seq: seq, Status: StatusError, Err: err.Error()}
}

// NotOwnerReply builds a StatusNotOwner reply carrying the server's
// current view so the client can re-route and retry, even across a
// membership change.
func NotOwnerReply(seq uint64, v *partition.View) *Message {
	return &Message{
		Type: MsgReply, Seq: seq, Status: StatusNotOwner,
		Err: "not the owner of the requested range",
		Map: v.Wire(),
	}
}
