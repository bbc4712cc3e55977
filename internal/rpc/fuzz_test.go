package rpc

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecode hardens the wire decoder against malformed frames: arbitrary
// payloads must produce an error or a message, never a panic, and
// round-tripping a successfully decoded message must be stable.
func FuzzDecode(f *testing.F) {
	seeds := []*Message{
		{Type: MsgGet, Seq: 1, Key: "p|bob|100"},
		{Type: MsgPut, Seq: 2, Key: "k", Value: "v"},
		{Type: MsgScan, Seq: 3, Lo: "a", Hi: "b", Limit: 10, SubscribeFlag: true},
		{Type: MsgNotify, Changes: []Change{{Op: ChangePut, Key: "k", Value: "v"}}},
		{Type: MsgReply, Seq: 4, Status: StatusOK, Found: true, Value: "v",
			KVs: []KV{{Key: "a", Value: "1"}}},
		{Type: MsgCommand, Seq: 5, Args: []string{"ZADD", "k", "1", "m"}},
	}
	for _, m := range seeds {
		f.Add(m.Encode(nil)[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})
	for _, payload := range hostileFrames() {
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := Decode(payload)
		if err != nil {
			return
		}
		// Re-encode and re-decode: must agree on the semantic fields.
		re := m.Encode(nil)
		m2, _, err := ReadMessage(bufio.NewReader(bytes.NewReader(re)), nil)
		if err != nil {
			t.Fatalf("re-decode of valid message failed: %v", err)
		}
		if m2.Type != m.Type || m2.Seq != m.Seq || m2.Key != m.Key || m2.Value != m.Value ||
			m2.Lo != m.Lo || m2.Hi != m.Hi || len(m2.KVs) != len(m.KVs) ||
			len(m2.Changes) != len(m.Changes) || len(m2.Args) != len(m.Args) {
			t.Fatalf("round trip drift:\n in: %+v\nout: %+v", m, m2)
		}
	})
}
