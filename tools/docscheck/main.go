// Command docscheck is the CI docs gate: it fails on broken relative
// links in the given markdown files, on Go code snippets that do not
// parse, when -cli points at the pequod-cli source on pequod-cli
// subcommands named in the docs that the CLI's usage text does not
// actually offer, and when -server points at the pequod-server source
// on pequod-server flags named in the docs that the server does not
// define.
//
// Usage:
//
//	go run ./tools/docscheck [-cli cmd/pequod-cli/main.go] [-server cmd/pequod-server/main.go] README.md DESIGN.md docs
//
// A directory argument expands to every .md file under it, so new
// documents under docs/ are linted without touching CI.
//
// Links: every inline markdown link [text](target) whose target is not
// an absolute URL or a pure #anchor must resolve to an existing file
// (or directory) relative to the document. Go snippets: every fenced
// ```go block must parse — as a file, as declarations, or as statements
// — so documentation examples cannot rot silently when the API moves.
// CLI commands: every `pequod-cli <subcommand>` invocation in a checked
// document (prose or shell block) must name a subcommand present in the
// usageText constant of the CLI source, so runbooks cannot drift from
// the tool they describe. Server flags: every -flag following a
// `pequod-server` invocation must be one the server source defines with
// a flag.* call, so a removed flag cannot live on in a quickstart.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	linkRE    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	cmdShape  = regexp.MustCompile(`^[a-z][a-z-]*$`)
	flagShape = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
)

func main() {
	cliSrc := flag.String("cli", "", "path to the pequod-cli source; its usageText subcommands validate `pequod-cli ...` mentions in the docs")
	serverSrc := flag.String("server", "", "path to the pequod-server source; its flag definitions validate `pequod-server -flag` mentions in the docs")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: docscheck [-cli cmd/pequod-cli/main.go] [-server cmd/pequod-server/main.go] FILE.md|DIR ...")
		os.Exit(2)
	}
	var cliCmds, srvFlags map[string]bool
	var err error
	if *cliSrc != "" {
		if cliCmds, err = usageCommands(*cliSrc); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
	}
	if *serverSrc != "" {
		if srvFlags, err = definedFlags(*serverSrc); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
	}
	paths, err := expand(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	failed := false
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			failed = true
			continue
		}
		for _, problem := range check(path, string(data), cliCmds, srvFlags) {
			fmt.Fprintf(os.Stderr, "docscheck: %s\n", problem)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("docscheck: ok (%d files)\n", len(paths))
}

// expand resolves arguments: files stay as-is, directories become every
// .md file under them (sorted, for stable output).
func expand(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		err = filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// check returns every problem found in one document. A nil cliCmds or
// srvFlags skips that check.
func check(path, doc string, cliCmds, srvFlags map[string]bool) []string {
	var problems []string
	dir := filepath.Dir(path)
	for _, m := range linkRE.FindAllStringSubmatch(stripCodeBlocks(doc), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
			problems = append(problems, fmt.Sprintf("%s: broken relative link %q", path, m[1]))
		}
	}
	for i, snippet := range goSnippets(doc) {
		if err := parseGo(snippet); err != nil {
			problems = append(problems, fmt.Sprintf("%s: go snippet %d does not parse: %v", path, i+1, err))
		}
	}
	if cliCmds != nil {
		for _, cmd := range cliMentions(doc) {
			if !cliCmds[cmd] {
				problems = append(problems, fmt.Sprintf("%s: pequod-cli subcommand %q is not in the CLI's usage text", path, cmd))
			}
		}
	}
	if srvFlags != nil {
		for _, f := range serverMentions(doc) {
			if !srvFlags[f] {
				problems = append(problems, fmt.Sprintf("%s: pequod-server flag -%s is not defined by the server", path, f))
			}
		}
	}
	return problems
}

// stripCodeBlocks removes fenced code blocks so example links inside
// them are not treated as document links.
func stripCodeBlocks(doc string) string {
	var out []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
			continue
		}
		if !in {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// goSnippets extracts the bodies of ```go fenced blocks.
func goSnippets(doc string) []string {
	var out []string
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		var body []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			body = append(body, lines[i])
		}
		out = append(out, strings.Join(body, "\n"))
	}
	return out
}

// parseGo accepts a snippet that parses as a whole file, as a set of
// declarations, or as a statement list.
func parseGo(src string) error {
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "snippet.go", src, 0); err == nil {
		return nil
	}
	if _, err := parser.ParseFile(fset, "snippet.go", "package snippet\n"+src, 0); err == nil {
		return nil
	}
	_, err := parser.ParseFile(fset, "snippet.go", "package snippet\nfunc _() {\n"+src+"\n}", 0)
	return err
}

// usageCommands parses the CLI source and collects the subcommand names
// its usageText constant offers: lines of the form "  name ..." in the
// command sections (everything before the "flags:" footer).
func usageCommands(path string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var usage string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if name.Name != "usageText" || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				if usage, err = strconv.Unquote(lit.Value); err != nil {
					return nil, fmt.Errorf("unquoting usageText in %s: %w", path, err)
				}
			}
		}
	}
	if usage == "" {
		return nil, fmt.Errorf("%s: no usageText constant found", path)
	}
	cmds := make(map[string]bool)
	cmdLine := regexp.MustCompile(`^  ([a-z][a-z-]*)\s`)
	for _, line := range strings.Split(usage, "\n") {
		if strings.TrimSpace(line) == "flags:" {
			break
		}
		if m := cmdLine.FindStringSubmatch(line); m != nil {
			cmds[m[1]] = true
		}
	}
	if len(cmds) == 0 {
		return nil, fmt.Errorf("%s: usageText lists no commands", path)
	}
	return cmds, nil
}

// cliMentions extracts the subcommand of every `pequod-cli ...`
// invocation in the document (prose and code blocks alike): tokens
// after "pequod-cli", skipping flags and their values, until the first
// command-shaped word. Slash-joined mentions ("add/drain") yield
// each part.
func cliMentions(doc string) []string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		fields := strings.Fields(line)
		for i, f := range fields {
			if cleanToken(f) != "pequod-cli" {
				continue
			}
			if trimmed := strings.Trim(f, `"'()[]{},.;:*`); strings.HasPrefix(trimmed, "`") && strings.HasSuffix(trimmed, "`") {
				continue // a fully wrapped `pequod-cli` is prose, not an invocation
			}
			rest := fields[i+1:]
			for j := 0; j < len(rest); j++ {
				tok := rest[j]
				if strings.HasPrefix(tok, "-") {
					if c := cleanToken(tok); c == "-h" || c == "--help" {
						break // help form; no subcommand follows
					}
					// A flag; ours all take a value. "=" keeps flag and
					// value in one token.
					if !strings.Contains(tok, "=") {
						j++ // skip the flag's value
					}
					continue
				}
				for _, part := range strings.Split(tok, "/") {
					if p := cleanToken(part); cmdShape.MatchString(p) {
						out = append(out, p)
					}
				}
				break
			}
		}
	}
	return out
}

// definedFlags parses the server source and collects the names of the
// flags its flag.* calls define: the first argument of flag.String,
// flag.Int and the like, the second of flag.Var and the *Var forms.
// -h and -help, which the flag package answers itself, count too.
func definedFlags(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		i := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			i = 1
		}
		if i >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil && flagShape.MatchString(name) {
				flags[name] = true
			}
		}
		return true
	})
	if len(flags) == 0 {
		return nil, fmt.Errorf("%s: defines no flags", path)
	}
	flags["h"], flags["help"] = true, true
	return flags, nil
}

// serverMentions extracts every flag named after a `pequod-server`
// invocation in the document (prose and code blocks alike, the binary
// under any directory): each following -flag or --flag=value token,
// skipping the value after a flag, until a word that is neither.
// Dash-led values such as -1 are not flag-shaped and count as values.
func serverMentions(doc string) []string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		fields := strings.Fields(line)
		for i, f := range fields {
			if path.Base(cleanToken(f)) != "pequod-server" {
				continue
			}
			value := false // the previous token was a flag, so this may be its value
			for _, tok := range fields[i+1:] {
				name, _, _ := strings.Cut(strings.TrimLeft(cleanToken(tok), "-"), "=")
				if strings.HasPrefix(cleanToken(tok), "-") && flagShape.MatchString(name) {
					out = append(out, name)
					value = true
					continue
				}
				if !value {
					break
				}
				value = false
			}
		}
	}
	return out
}

// cleanToken strips the punctuation prose wraps around a token.
func cleanToken(tok string) string {
	return strings.Trim(tok, "`\"'()[]{},.;:*")
}
