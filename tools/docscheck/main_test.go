package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cliFixture is a minimal pequod-cli source carrying the usageText
// shape docscheck parses.
const cliFixture = `package main

const usageText = ` + "`" + `usage:
  pequod-cli [-addr host:port] command args...

commands (both modes):
  get KEY                  print the value under KEY
  put KEY VALUE            store VALUE under KEY

commands (cluster mode only):
  move IDX BOUND           live-migrate bound IDX to BOUND
  add ADDR [OWNER BOUND]   join the server at ADDR live
  drain ADDR               drain the member at ADDR live

flags:
` + "`" + `
`

// TestRedToGreen is the gate's own gate: a document with a broken
// link, a rotten snippet, and a stale CLI subcommand fails with one
// problem each (red); fixing the document clears every problem
// (green). This is what CI relies on to keep README/DESIGN/docs
// honest.
func TestRedToGreen(t *testing.T) {
	dir := t.TempDir()
	cliPath := filepath.Join(dir, "cli.go")
	if err := os.WriteFile(cliPath, []byte(cliFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	cmds, err := usageCommands(cliPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"get", "put", "move", "add", "drain"} {
		if !cmds[want] {
			t.Fatalf("usageCommands missed %q: %v", want, cmds)
		}
	}
	if cmds["flags"] || cmds["usage"] {
		t.Fatalf("usageCommands picked up non-commands: %v", cmds)
	}

	red := `# Ops

See [the design](MISSING.md) for background.

` + "```go" + `
func broken( {
` + "```" + `

Run ` + "`pequod-cli -addrs a:1,a:2 -bounds 'm' frobnicate 1`" + ` to proceed.
`
	redPath := filepath.Join(dir, "ops.md")
	if err := os.WriteFile(redPath, []byte(red), 0o644); err != nil {
		t.Fatal(err)
	}
	problems := check(redPath, red, cmds, nil)
	if len(problems) != 3 {
		t.Fatalf("red fixture: got %d problems, want 3: %v", len(problems), problems)
	}
	for i, wantSub := range []string{"broken relative link", "does not parse", `subcommand "frobnicate"`} {
		if !strings.Contains(problems[i], wantSub) {
			t.Fatalf("problem %d = %q, want it to mention %q", i, problems[i], wantSub)
		}
	}

	green := strings.ReplaceAll(red, "MISSING.md", "design.md")
	green = strings.ReplaceAll(green, "func broken( {", "func fixed() {}")
	green = strings.ReplaceAll(green, "frobnicate 1", "move 1 't|m'")
	if err := os.WriteFile(filepath.Join(dir, "design.md"), []byte("# design\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if problems := check(redPath, green, cmds, nil); len(problems) != 0 {
		t.Fatalf("green fixture still fails: %v", problems)
	}
}

// serverFixture is a minimal pequod-server source: flags of each
// definition shape docscheck reads, plus calls that define nothing.
const serverFixture = `package main

import "flag"

func main() {
	addr := flag.String("addr", ":7744", "listen address")
	mem := flag.Int64("mem", 0, "eviction threshold")
	var noHints bool
	flag.BoolVar(&noHints, "no-hints", false, "disable output hints")
	flag.Var(nil, "subtable", "subtable boundary")
	flag.Parse()
	_ = flag.Lookup(*addr)
	_, _ = mem, noHints
}
`

// TestServerFlagsRedToGreen: a quickstart that still passes a removed
// server flag fails with one problem naming it (red); the same line
// with only defined flags passes (green). Values, dash-led ones
// included, and prose after the invocation are not flags.
func TestServerFlagsRedToGreen(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "server.go")
	if err := os.WriteFile(srcPath, []byte(serverFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	flags, err := definedFlags(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"addr", "mem", "no-hints", "subtable", "h"} {
		if !flags[want] {
			t.Fatalf("definedFlags missed -%s: %v", want, flags)
		}
	}
	if len(flags) != 6 {
		t.Fatalf("definedFlags = %v, want the four defined plus -h/-help", flags)
	}

	red := "Start it: `./bin/pequod-server -addr :7799 -shards 4 -no-hints -subtable t=2`.\n" +
		"Then go run ./cmd/pequod-server --mem=-1 and read the log.\n"
	problems := check(filepath.Join(dir, "ops.md"), red, nil, flags)
	if len(problems) != 1 || !strings.Contains(problems[0], "flag -shards") {
		t.Fatalf("red fixture: got %v, want one problem naming -shards", problems)
	}
	green := strings.ReplaceAll(red, "-shards 4", "-mem 4")
	if problems := check(filepath.Join(dir, "ops.md"), green, nil, flags); len(problems) != 0 {
		t.Fatalf("green fixture still fails: %v", problems)
	}
	if got := serverMentions(green); strings.Join(got, " ") != "addr mem no-hints subtable mem" {
		t.Fatalf("serverMentions = %v", got)
	}
}

// TestExpandDirectories: a directory argument lints every .md beneath
// it, so new runbooks are covered without CI edits.
func TestExpandDirectories(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "docs", "deep")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, "README.md"),
		filepath.Join(dir, "docs", "OPERATIONS.md"),
		filepath.Join(sub, "more.md"),
		filepath.Join(dir, "docs", "not-markdown.txt"),
	} {
		if err := os.WriteFile(p, []byte("# x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := expand([]string{filepath.Join(dir, "README.md"), filepath.Join(dir, "docs")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("expand = %v, want README + 2 docs", got)
	}
	for _, p := range got {
		if strings.HasSuffix(p, ".txt") {
			t.Fatalf("expand picked up a non-markdown file: %v", got)
		}
	}
}

// TestCLIMentionParsing: flags (with and without values) are skipped,
// prose punctuation is stripped, and slash-joined mentions check each
// part.
func TestCLIMentionParsing(t *testing.T) {
	doc := "Use `pequod-cli -addrs a:1,a:2 -bounds 'm' move 1 't|m'`,\n" +
		"then (`pequod-cli drain a:2`). The `pequod-cli move`/`rebalance`\n" +
		"pair also appears as pequod-cli -timeout=5s add host:1.\n" +
		"A bare pequod-cli -h prints usage.\n" +
		"Drive `pequod-cli` in cluster mode for these.\n"
	got := cliMentions(doc)
	want := []string{"move", "drain", "move", "rebalance", "add"}
	if len(got) != len(want) {
		t.Fatalf("cliMentions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cliMentions[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}
