package main

import (
	"strings"
	"testing"
)

// reference with user 1 following 2 and 3; 2 posted twice, 3 once, and 4
// (whom nobody follows) once.
func testOracle() *oracle {
	o := newOracle()
	o.subscribe(1, 2)
	o.subscribe(1, 3)
	o.post(2, 10, "a")
	o.post(2, 12, "b")
	o.post(3, 11, "c")
	o.post(4, 13, "d")
	return o
}

var goodTimeline = []row{
	{"t|u0000001|0000000010|u0000002", "a"},
	{"t|u0000001|0000000011|u0000003", "c"},
	{"t|u0000001|0000000012|u0000002", "b"},
}

func TestOracleGreen(t *testing.T) {
	o := testOracle()
	o.checkRead(1, 0, goodTimeline)
	o.checkRead(1, 11, goodTimeline[1:])
	o.checkRead(1, 0, goodTimeline[:1]) // rows still in flight are not judged in-run
	if n := o.finalCompare(1, goodTimeline); n != 3 {
		t.Errorf("compared %d rows, want 3", n)
	}
	o.finalCompare(4, nil)
	if o.violationCount() != 0 {
		t.Fatalf("violations on correct reads: %v", o.violations)
	}
	if o.timelineRows() != 3 {
		t.Errorf("timelineRows = %d, want 3", o.timelineRows())
	}
}

func TestOracleRed(t *testing.T) {
	cases := []struct {
		name  string
		final bool
		rows  []row
		want  string
	}{
		{"missing row", true, goodTimeline[:2], "2 rows, reference has 3"},
		{"phantom poster", false, append(append([]row(nil), goodTimeline...), row{"t|u0000001|0000000013|u0000004", "d"}), "does not follow"},
		{"phantom post", false, []row{{"t|u0000001|0000000099|u0000002", "a"}}, "issued nothing"},
		{"duplicate", false, []row{goodTimeline[0], goodTimeline[0]}, "duplicate"},
		{"payload", false, []row{{"t|u0000001|0000000010|u0000002", "x"}}, "payload mismatch"},
		{"payload at rest", true, []row{goodTimeline[0], goodTimeline[1], {"t|u0000001|0000000012|u0000002", "x"}}, "row 2"},
		{"other user's row", false, []row{{"t|u0000009|0000000010|u0000002", "a"}}, "outside timeline"},
		{"before since", false, goodTimeline[:1], "outside timeline"},
	}
	for _, c := range cases {
		o := testOracle()
		switch {
		case c.final:
			o.finalCompare(1, c.rows)
		case c.name == "before since":
			o.checkRead(1, 11, c.rows)
		default:
			o.checkRead(1, 0, c.rows)
		}
		if o.violationCount() == 0 || !strings.Contains(strings.Join(o.violations, "\n"), c.want) {
			t.Errorf("%s: violations %v, want one containing %q", c.name, o.violations, c.want)
		}
	}
}
