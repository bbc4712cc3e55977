package durable

import (
	"reflect"
	"testing"
)

func TestRekey(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	meta := &Meta{
		Name:    "m1",
		HasGate: true,
		Bounds:  []string{"m"},
		Peers:   []string{"127.0.0.1:7001", "127.0.0.1:7002"},
		Self:    []int{1},
	}
	if err := s.SaveMeta(meta); err != nil {
		t.Fatalf("SaveMeta: %v", err)
	}
	s.Close()

	old, err := Rekey(dir, "127.0.0.1:9002")
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	if old != "127.0.0.1:7002" {
		t.Fatalf("Rekey old = %q, want the dead member's address", old)
	}
	s2 := openT(t, dir)
	m, ok, err := s2.LoadMeta()
	if err != nil || !ok {
		t.Fatalf("LoadMeta: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(m.Peers, []string{"127.0.0.1:7001", "127.0.0.1:9002"}) {
		t.Fatalf("peers after rekey = %v", m.Peers)
	}
	if !reflect.DeepEqual(m.Self, []int{1}) {
		t.Fatalf("self after rekey = %v, want unchanged", m.Self)
	}
	s2.Close()

	// Idempotent: re-keying to the same address is a no-op.
	old2, err := Rekey(dir, "127.0.0.1:9002")
	if err != nil || old2 != "127.0.0.1:9002" {
		t.Fatalf("second Rekey = (%q, %v), want idempotent no-op", old2, err)
	}
}

func TestRekeyRejectsDrainedAndGatelessLineage(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.SaveMeta(&Meta{Joins: "copy a|<k> b|<k>"}); err != nil {
		t.Fatalf("SaveMeta: %v", err)
	}
	s.Close()
	if _, err := Rekey(dir, "127.0.0.1:9001"); err == nil {
		t.Fatal("Rekey of a gateless lineage = nil, want an error")
	}

	dir2 := t.TempDir()
	s2 := openT(t, dir2)
	if err := s2.SaveMeta(&Meta{HasGate: true, Peers: []string{"a", "b"}, Self: nil}); err != nil {
		t.Fatalf("SaveMeta: %v", err)
	}
	s2.Close()
	if _, err := Rekey(dir2, "127.0.0.1:9001"); err == nil {
		t.Fatal("Rekey of a drained lineage = nil, want an error")
	}
	if _, err := Rekey(t.TempDir(), "127.0.0.1:9001"); err == nil {
		t.Fatal("Rekey of an empty dir = nil, want an error")
	}
}
