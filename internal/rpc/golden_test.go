package rpc

import (
	"bufio"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"pequod/internal/partition"
)

// TestGoldenFrames pins the wire. testdata/golden_frames.txt holds the
// frames the commit before partition.View existed encoded — each
// map-bearing request, a NotOwner reply and an ordinary reply — built
// from that commit's five separate Message fields. The same messages
// built from views must encode to the same bytes, and those bytes must
// decode to the same views.
func TestGoldenFrames(t *testing.T) {
	view := func(epoch, version int64, bounds, peers []string, self ...int) partition.Wire {
		v, err := partition.Wire{Epoch: epoch, Version: version, Bounds: bounds, Peers: peers, Self: self}.View()
		if err != nil {
			t.Fatal(err)
		}
		return v.Wire()
	}
	three := []string{"a:1", "a:2", "a:3"}
	notOwner, err := partition.Wire{Epoch: 3, Version: 9, Bounds: []string{"q|"}, Peers: []string{"a:1", "a:2"}}.View()
	if err != nil {
		t.Fatal(err)
	}
	msgs := map[string]*Message{
		"ConnectPeers": {Type: MsgConnectPeers, Seq: 16,
			Map:    view(0, 0, []string{"p|n", "s|"}, []string{"a:1", "a:2", "a:1"}, 0, 2),
			Tables: []string{"p", "s"}},
		"ExtractRange": {Type: MsgExtractRange, Seq: 17, TimeoutMS: 1500,
			Map: view(2, 3, []string{"m", "t|"}, three, 0), Lo: "t|", Hi: "t|u5"},
		"SpliceRange": {Type: MsgSpliceRange, Seq: 18, Src: "a:3",
			Map: view(5<<31, 4, []string{"m", "t|u3"}, three, 2), Lo: "t|u3", Hi: "t|u5",
			KVs: []KV{{Key: "t|u4|1", Value: "x"}}, Warm: warm(0, "t|u3|", "t|u4|")},
		"MapUpdate": {Type: MsgMapUpdate, Seq: 20, Map: view(1, 7, []string{"p|", "t|"}, three, 1)},
		"JoinCluster": {Type: MsgJoinCluster, Seq: 23, Map: view(4, 9, []string{"p|", "t|"}, three),
			Tables: []string{"p", "s"}, Text: "t|<u> = copy p|<u>"},
		"Replicate": {Type: MsgReplicate, Seq: 25,
			Map:   view(6, 2, []string{"p|", "t|"}, []string{"a:1", "a:2", "a:1"}, 0, 2),
			Limit: 2, Tables: []string{"p", "s"}},
		"NotOwnerReply": NotOwnerReply(21, notOwner),
		"OKReply": {Type: MsgReply, Seq: 11, Status: StatusOK, Found: true, Value: "v",
			Count: 42, KVs: []KV{{Key: "a", Value: "1"}}},
	}
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, want, _ := strings.Cut(sc.Text(), " ")
		m := msgs[name]
		if m == nil {
			t.Fatalf("golden frame %q has no message here", name)
		}
		delete(msgs, name)
		if got := hex.EncodeToString(m.Encode(nil)); got != want {
			t.Errorf("%s encodes to\n  %s, the parent commit to\n  %s", name, got, want)
		}
		frame, err := hex.DecodeString(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(frame[4:])
		if err != nil {
			t.Fatalf("%s: decoding the parent's frame: %v", name, err)
		}
		if name == "OKReply" {
			if _, err := got.Map.View(); err == nil {
				t.Error("an ordinary reply decodes to a usable view")
			}
			continue
		}
		gv, err := got.Map.View()
		if err != nil {
			t.Fatalf("%s: the parent's frame carries no usable view: %v", name, err)
		}
		wv, _ := m.Map.View()
		if !gv.Same(wv) || gv.SameShape(wv) != nil || len(gv.Self()) != len(wv.Self()) {
			t.Errorf("%s: decoded view %+v, want %+v", name, gv.Wire(), wv.Wire())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Errorf("no golden frame for %d messages", len(msgs))
	}
}
