package join

import (
	"slices"
	"testing"
	"time"
)

func TestParseTimelineJoin(t *testing.T) {
	j, err := Parse("t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>")
	if err != nil {
		t.Fatal(err)
	}
	if j.Out.Table() != "t" || len(j.Sources) != 2 {
		t.Fatalf("out=%q sources=%d", j.Out.Table(), len(j.Sources))
	}
	if j.Sources[0].Op != Check || j.Sources[1].Op != Copy {
		t.Fatal("operators")
	}
	if j.ValueSource != 1 || j.ValueOp() != Copy {
		t.Fatal("value source")
	}
	if j.Maint != Push {
		t.Fatal("default maintenance should be push")
	}
	if j.IsAggregate() || j.Ambiguous() {
		t.Fatal("flags")
	}
	if got := j.SourceTables(); len(got) != 2 || got[0] != "s" || got[1] != "p" {
		t.Fatalf("SourceTables = %v", got)
	}
}

func TestParseAnnotations(t *testing.T) {
	j, err := Parse("t|<u>|<ts>|<p> = pull copy ct|<ts>|<p> check s|<u>|<p>;")
	if err != nil {
		t.Fatal(err)
	}
	if j.Maint != Pull || j.ValueSource != 0 {
		t.Fatalf("maint=%v valueSource=%d", j.Maint, j.ValueSource)
	}

	j, err = Parse("x|<a> = snapshot 30 copy y|<a>")
	if err != nil {
		t.Fatal(err)
	}
	if j.Maint != Snapshot || j.SnapshotT != 30*time.Second {
		t.Fatalf("snapshot: %v %v", j.Maint, j.SnapshotT)
	}
	j, err = Parse("x|<a> = snapshot 500ms copy y|<a>")
	if err != nil {
		t.Fatal(err)
	}
	if j.SnapshotT != 500*time.Millisecond {
		t.Fatalf("snapshot duration: %v", j.SnapshotT)
	}
	j, err = Parse("x|<a> = push copy y|<a>")
	if err != nil || j.Maint != Push {
		t.Fatalf("explicit push: %v %v", err, j)
	}
}

func TestParseAggregates(t *testing.T) {
	j, err := Parse("karma|<author> = count vote|<author>|<id>|<voter>")
	if err != nil {
		t.Fatal(err)
	}
	if !j.IsAggregate() || j.ValueOp() != Count {
		t.Fatal("count join flags")
	}
	for _, op := range []string{"sum", "min", "max"} {
		if _, err := Parse("agg|<a> = " + op + " src|<a>|<b>"); err != nil {
			t.Errorf("%s join: %v", op, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                               // empty
		"t|<a> copy s|<a>",               // missing =
		"t|<a> =",                        // no sources
		"t|<a> = copy",                   // op without pattern
		"t|<a> = frob s|<a>",             // unknown op
		"t|<a> = check s|<a>",            // no value source
		"t|<a> = copy s|<a> copy u|<a>",  // two value sources
		"t|<a> = copy u|<a> sum v|<a>",   // two value sources (mixed)
		"t|<a> = copy t|<a>",             // self-recursive
		"t|<a>|<b> = copy s|<a>",         // output slot b unbound
		"t|<a> = snapshot copy s|<a>",    // snapshot without duration
		"t|<a> = snapshot -3 copy s|<a>", // negative duration
		"t|<a> = snapshot 0 copy s|<a>",  // zero duration
		"t|<a> = copy s|<bad",            // pattern error propagates
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestAmbiguous(t *testing.T) {
	// The paper's t|user|time variant: copies collapse distinct posters.
	j, err := Parse("t|<user>|<time> = check s|<user>|<poster> copy p|<poster>|<time>")
	if err != nil {
		t.Fatalf("ambiguous joins install (users are responsible): %v", err)
	}
	if !j.Ambiguous() {
		t.Fatal("should report ambiguity")
	}
	// Aggregates are never ambiguous: folding is their semantics.
	j = MustParse("karma|<author> = count vote|<author>|<id>|<voter>")
	if j.Ambiguous() {
		t.Fatal("aggregate join reported ambiguous")
	}
}

func TestParseAllAndComments(t *testing.T) {
	text := `
	  karma|<author> = count vote|<author>|<id>|<voter>;
	  // a comment line
	  rank|<author>|<id> = count vote|<author>|<id>|<voter>; // trailing comment
	  page|<author>|<id>|a = copy article|<author>|<id>
	`
	js, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 3 {
		t.Fatalf("parsed %d joins", len(js))
	}
	if js[2].Out.Table() != "page" {
		t.Fatal("third join")
	}
	if _, err := ParseAll("x|<a> = copy"); err == nil {
		t.Fatal("ParseAll should propagate errors")
	}
	// Comments containing semicolons must not split specifications.
	js, err = ParseAll(`
	  // a comment with a semicolon; and more words after it
	  a|<x> = copy b|<x>
	`)
	if err != nil || len(js) != 1 {
		t.Fatalf("comment-with-semicolon: %v, %d joins", err, len(js))
	}
}

func TestNewpFigure1Joins(t *testing.T) {
	// The complete Fig 1 join set must parse.
	text := `
	  karma|<author> = count vote|<author>|<id>|<voter>;
	  rank|<author>|<id> = count vote|<author>|<id>|<voter>;
	  page|<author>|<id>|a = copy article|<author>|<id>;
	  page|<author>|<id>|r = copy rank|<author>|<id>;
	  page|<author>|<id>|c|<cid>|<commenter> = copy comment|<author>|<id>|<cid>|<commenter>;
	  page|<author>|<id>|k|<cid>|<commenter> = check comment|<author>|<id>|<cid>|<commenter> copy karma|<commenter>
	`
	js, err := ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) != 6 {
		t.Fatalf("parsed %d joins", len(js))
	}
	// page…k reads the karma view: join-on-join.
	last := js[5]
	tables := last.SourceTables()
	if len(tables) != 2 || tables[1] != "karma" {
		t.Fatalf("page-k sources: %v", tables)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("bogus")
}

func TestOpString(t *testing.T) {
	for _, c := range []struct {
		op   Op
		want string
	}{{Copy, "copy"}, {Check, "check"}, {Count, "count"}, {Sum, "sum"}, {Min, "min"}, {Max, "max"}} {
		if c.op.String() != c.want {
			t.Errorf("Op %d String = %q", c.op, c.op.String())
		}
	}
	for _, c := range []struct {
		m    Maintenance
		want string
	}{{Push, "push"}, {Pull, "pull"}, {Snapshot, "snapshot"}} {
		if c.m.String() != c.want {
			t.Errorf("Maintenance String = %q", c.m.String())
		}
	}
}

// TestSourceTablesSkipOutputs: a join set's source tables are the
// tables its joins read that no join computes, in order of first
// appearance — a join reading another's output (Newp's karma and rank,
// the celebrity ct|) pulls in that join's sources, not its output.
func TestSourceTablesSkipOutputs(t *testing.T) {
	for text, want := range map[string][]string{
		"t|<u>|<t>|<p> = check s|<u>|<p> copy p|<p>|<t>": {"s", "p"},
		`ct|<t>|<p> = copy cp|<p>|<t>;
		 t|<u>|<t>|<p> = check s|<u>|<p> copy p|<p>|<t>;
		 t|<u>|<t>|<p> = pull copy ct|<t>|<p> check s|<u>|<p>`: {"cp", "s", "p"},
		`karma|<a> = count vote|<a>|<id>|<v>;
		 rank|<a>|<id> = count vote|<a>|<id>|<v>;
		 page|<a>|<id>|a = copy article|<a>|<id>;
		 page|<a>|<id>|r = copy rank|<a>|<id>;
		 page|<a>|<id>|k|<c>|<v> = check comment|<a>|<id>|<c>|<v> copy karma|<v>`: {"vote", "article", "comment"},
		"": nil,
	} {
		js, err := ParseAll(text)
		if err != nil {
			t.Fatal(err)
		}
		if got := SourceTables(js); !slices.Equal(got, want) {
			t.Errorf("SourceTables(%q) = %v, want %v", text, got, want)
		}
	}
}
