package client

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestStatSnapshotGolden holds the one stat schema to the replies a
// server emitted at the commit before the schema was shared
// (testdata/stat_*.json are `pequod-cli statjson` captures from that
// commit: a two-shard durable cluster member after a warm restart, and a
// single-shard one): each decodes into StatSnapshot and marshals back
// byte for byte, so no field was lost or renamed on either side, and the
// counters print as `pequod-cli stat` printed them then. Counters added
// since (UnchangedWrites) are pinned into the captures at 0.
func TestStatSnapshotGolden(t *testing.T) {
	decoded := map[string]StatSnapshot{}
	for _, name := range []string{"stat_member", "stat_single"} {
		raw, err := os.ReadFile("testdata/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSpace(string(raw))
		var s StatSnapshot
		if err := json.Unmarshal([]byte(want), &s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := json.Marshal(s); err != nil || string(got) != want {
			t.Errorf("%s round trip (%v):\n got %s\nwant %s", name, err, got, want)
		}
		decoded[name] = s
	}
	m := decoded["stat_member"]
	text, err := os.ReadFile("testdata/stat_member.txt")
	if got := fmt.Sprintf("%+v\n", m.Stats); err != nil || got != string(text) {
		t.Errorf("stat prints %q, the parent printed %q (%v)", got, text, err)
	}
	if m.Cluster == nil || m.Cluster.Replicas != 1 || len(m.Cluster.Peers) != 2 ||
		m.Durable == nil || m.Durable.SegmentIndex != 3 || m.Durable.Recovery == nil ||
		m.Durable.Recovery.RestoredRows != 3 || m.Load.Units != 7 ||
		m.Loads.Started != 3 || m.NSubs != 3 || m.Joins == "" || m.ID != "member-one" {
		t.Fatalf("member capture decoded to %+v", m)
	}
}
