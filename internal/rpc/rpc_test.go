package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pequod/internal/partition"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadMessage(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []*Message{
		{Type: MsgGet, Seq: 1, Key: "p|bob|100"},
		{Type: MsgPut, Seq: 2, Key: "p|bob|100", Value: "Hi"},
		{Type: MsgRemove, Seq: 3, Key: "p|bob|100"},
		{Type: MsgScan, Seq: 4, Lo: "t|ann|", Hi: "t|ann}", Limit: 50, SubscribeFlag: true},
		{Type: MsgScan, Seq: 5, Lo: "a", Hi: "", Limit: 0},
		{Type: MsgCount, Seq: 6, Lo: "x", Hi: "y"},
		{Type: MsgAddJoin, Seq: 7, Text: "t|<u> = copy p|<u>"},
		{Type: MsgNotify, Seq: 0, Changes: []Change{
			{Op: ChangePut, Key: "k1", Value: "v1"},
			{Op: ChangeRemove, Key: "k2", Value: ""},
		}},
		{Type: MsgStat, Seq: 8},
		{Type: MsgGet, Seq: 13, Key: "k", TimeoutMS: 1500},
		{Type: MsgQuiesce, Seq: 14},
		{Type: MsgPing, Seq: 15},
		{Type: MsgReply, Seq: 11, Status: StatusOK, Found: true, Value: "v",
			Count: 42, KVs: []KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}},
		{Type: MsgReply, Seq: 12, Status: StatusError, Err: "boom"},
		{Type: MsgExtractRange, Seq: 17,
			Map: partition.Wire{Epoch: 2, Version: 3, Bounds: []string{"m", "t|"}, Peers: []string{"a:1", "a:2", "a:3"}, Self: []int{0}},
			Lo:  "t|", Hi: "t|u5"},
		{Type: MsgSpliceRange, Seq: 18, Src: "a:3",
			Map: partition.Wire{Epoch: 5, Version: 4, Bounds: []string{"m", "t|u3"}, Peers: []string{"a:1", "a:2", "a:3"}, Self: []int{2}},
			Lo:  "t|u3", Hi: "t|u5",
			KVs:  []KV{{Key: "t|u4|1", Value: "x"}},
			Warm: warm(0, "t|u3|", "t|u4|")},
		// A tuple no view can be built from still round-trips: the server
		// answers it with an error reply, not a dropped connection.
		{Type: MsgSpliceRange, Seq: 19, Map: partition.Wire{Version: 1}, Lo: "a", Hi: "b"},
		{Type: MsgMapUpdate, Seq: 20,
			Map: partition.Wire{Epoch: 1, Version: 7, Bounds: []string{"p|", "t|"}, Peers: []string{"a:1", "a:2", "a:3"}, Self: []int{1}}},
		{Type: MsgMapUpdate, Seq: 23,
			Map:  partition.Wire{Epoch: 4, Version: 9, Bounds: []string{"p|", "t|"}, Peers: []string{"a:1", "a:2", "a:3"}},
			Text: "t|<u> = copy p|<u>"},
		{Type: MsgMapUpdate, Seq: 25,
			Map:   partition.Wire{Epoch: 6, Version: 2, Bounds: []string{"p|", "t|"}, Peers: []string{"a:1", "a:2", "a:3"}, Self: []int{0, 2}},
			Limit: 2},
		{Type: MsgMapUpdate, Seq: 26,
			Map:   partition.Wire{Epoch: 1, Version: 1, Bounds: []string{"m"}, Peers: []string{"a:1", "a:2"}},
			Limit: 3},
		{Type: MsgSnapshot, Seq: 27},
		{Type: MsgRebuildRange, Seq: 28, Lo: "t|u3", Hi: "t|u5"},
		{Type: MsgRebuildRange, Seq: 29, Lo: "m", Hi: ""},
		{Type: MsgReply, Seq: 21, Status: StatusNotOwner, Err: "moved",
			Map: partition.Wire{Epoch: 3, Version: 9, Bounds: []string{"q|"}, Peers: []string{"a:1", "a:2"}}},
		{Type: MsgReply, Seq: 22, Status: StatusOK,
			Warm: warm(1, "t|", "t|u5")},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Normalize nil vs empty slices for comparison.
		if len(got.KVs) == 0 {
			got.KVs = m.KVs
		}
		if len(got.Changes) == 0 {
			got.Changes = m.Changes
		}
		for _, p := range [][2]*[]string{
			{&got.Map.Bounds, &m.Map.Bounds}, {&got.Map.Peers, &m.Map.Peers},
		} {
			if len(*p[0]) == 0 {
				*p[0] = *p[1]
			}
		}
		if len(got.Map.Self) == 0 {
			got.Map.Self = m.Map.Self
		}
		if len(got.Warm) == 0 {
			got.Warm = m.Warm
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
		}
	}
}

// warm builds a one-element warm-coverage list.
func warm(join int, lo, hi string) []WarmRange {
	w := WarmRange{Join: join}
	w.R.Lo, w.R.Hi = lo, hi
	return []WarmRange{w}
}

func TestPipelinedFrames(t *testing.T) {
	var buf bytes.Buffer
	var scratch []byte
	var err error
	for i := 0; i < 100; i++ {
		scratch, err = WriteMessage(&buf, &Message{Type: MsgGet, Seq: uint64(i), Key: "k"}, scratch)
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	var rs []byte
	for i := 0; i < 100; i++ {
		var m *Message
		m, rs, err = ReadMessage(br, rs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d", i, m.Seq)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// Unknown types: past the last, and each reserved number (Flush, the
	// §4.1 table boundary setting, ConnectPeers, JoinCluster, Drain,
	// Replicate once).
	for _, typ := range []byte{255, 9, 10, 15, 19, 20, 21} {
		if _, err := Decode([]byte{typ, 0, 0, 0}); err == nil {
			t.Errorf("unknown type %d accepted", typ)
		}
	}
	// Truncated payloads of every type must error, not panic.
	full := (&Message{Type: MsgReply, Seq: 9, Status: StatusOK, Found: true,
		Value: "hello", KVs: []KV{{Key: "k", Value: "v"}}}).Encode(nil)
	payload := full[4:]
	for cut := 0; cut < len(payload); cut++ {
		if _, err := Decode(payload[:cut]); err == nil && cut < len(payload)-1 {
			// Some prefixes may decode to a valid shorter message only if
			// all fields happen to be present; with this message shape
			// every strict prefix is invalid.
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// hostileFrames are payloads whose lengths and counts come from a peer
// that lies: a string length past MaxInt, and list counts far beyond
// what the payload holds. Each must be refused with an error — a panic
// or an allocation sized by the count would let one peer end the server.
func hostileFrames() map[string][]byte {
	head := func(t MsgType) []byte { return []byte{byte(t), 0, 0, 0} }
	huge := binary.AppendUvarint(nil, 1<<40)
	return map[string][]byte{
		"string length 2^63": append(head(MsgGet), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"reply string length 2^63": append(head(MsgReply), StatusOK, 0,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"notify count 2^40":                 append(head(MsgNotify), huge...),
		"command count 2^40":                append(head(MsgCommand), huge...),
		"kv count 2^40":                     append(append(head(MsgReply), StatusOK, 0, 0, 0, 0), huge...),
		"notify count one past the payload": append(head(MsgNotify), 2, byte(ChangePut)),
	}
}

func TestDecodeRejectsHostileLengths(t *testing.T) {
	for name, payload := range hostileFrames() {
		t.Run(name, func(t *testing.T) {
			if m, err := Decode(payload); err == nil {
				t.Fatalf("decoded %+v, want an error", m)
			}
		})
	}
}

// TestReplyDecodeAllocations: a reply's strings share one copy of the
// frame, so a 100-row scan reply costs the message, that copy and the
// row slice — not two allocations per row.
func TestReplyDecodeAllocations(t *testing.T) {
	payload := scanReply(100).Encode(nil)[4:]
	got := testing.AllocsPerRun(100, func() {
		if _, err := Decode(payload); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Fatalf("a 100-row reply decodes in %v allocations, want at most 3", got)
	}
}

// TestDecodeDoesNotAliasPayload: decoded strings, shared or not, never
// point into the payload buffer, which a reader reuses for its next frame.
func TestDecodeDoesNotAliasPayload(t *testing.T) {
	reply, put := scanReply(3), &Message{Type: MsgPut, Key: "k", Value: "v"}
	for _, m := range []*Message{reply, put} {
		payload := m.Encode(nil)[4:]
		got, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		clear(payload)
		if !reflect.DeepEqual(got.KVs, m.KVs) || got.Key != m.Key || got.Value != m.Value {
			t.Fatalf("decoded type %d changed with its payload buffer: %+v", got.Type, got)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB length
	if _, _, err := ReadMessage(bufio.NewReader(&buf), nil); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestReadEOF(t *testing.T) {
	_, _, err := ReadMessage(bufio.NewReader(bytes.NewReader(nil)), nil)
	if err == nil {
		t.Fatal("expected EOF")
	}
}

func TestHelpers(t *testing.T) {
	ok := OKReply(7)
	if ok.Type != MsgReply || ok.Seq != 7 || ok.Status != StatusOK {
		t.Fatal("OKReply")
	}
	er := ErrReply(8, errors.New("nope"))
	if er.Status != StatusError || er.Err != "nope" {
		t.Fatal("ErrReply")
	}
}

// Property: encode/decode round-trips arbitrary string content, including
// separators, NULs, and high bytes.
func TestRoundTripQuick(t *testing.T) {
	f := func(seq uint64, key, value string) bool {
		m := &Message{Type: MsgPut, Seq: seq, Key: key, Value: value}
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, m, nil); err != nil {
			return false
		}
		got, _, err := ReadMessage(bufio.NewReader(&buf), nil)
		return err == nil && got.Key == key && got.Value == value && got.Seq == seq
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodePut(b *testing.B) {
	m := &Message{Type: MsgPut, Seq: 12345, Key: "p|u0001234|0000005678", Value: "a typical tweet body of some length"}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Encode(buf[:0])
	}
}

// scanReply is a timeline scan's reply carrying n rows.
func scanReply(n int) *Message {
	m := &Message{Type: MsgReply, Seq: 1, Status: StatusOK}
	for i := 0; i < n; i++ {
		m.KVs = append(m.KVs, KV{Key: fmt.Sprintf("t|u0001234|%010d|u0004321", i), Value: "tweet tweet"})
	}
	return m
}

func BenchmarkDecodeScanReply(b *testing.B) {
	payload := scanReply(100).Encode(nil)[4:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}
