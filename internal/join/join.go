// Package join implements the cache-join specification language of §3
// (Fig 2):
//
//	<cachejoin> ::= <key> "=" ["push" | "pull" | "snapshot <T>"] <sources>;
//	<sources>   ::= <source> | <sources> <source>;
//	<source>    ::= <operator> <key>;
//	<operator>  ::= "copy" | "min" | "max" | "count" | "sum" | "check";
//
// Keys are patterns in the syntax of package pattern, with slots written
// in angle brackets: the paper's timeline join
//
//	t|user|time|poster = check s|user|poster copy p|poster|time;
//
// is spelled
//
//	t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>
//
// which disambiguates slots from interleaving literal tags such as the
// "a"/"r"/"c"/"k" markers in the Newp page joins (Fig 1).
//
// Parse enforces the paper's install-time checks: exactly n-1 of a join's
// n operators must be check (§3, "we currently impose additional
// technical requirements"), the output's slots must be computable from
// the sources, and annotations must be well-formed. Cross-join recursion
// is checked by the engine at installation, where the full set of
// installed joins is known.
package join

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"pequod/internal/pattern"
)

// Op is a source operator.
type Op int

const (
	// Copy copies the source's value to the output key.
	Copy Op = iota
	// Check marks sources whose values aren't interesting; only the
	// existence and contents of their keys matter.
	Check
	// Count counts matching source keys into the output value.
	Count
	// Sum sums matching source values (decimal integers).
	Sum
	// Min keeps the minimum matching source value.
	Min
	// Max keeps the maximum matching source value.
	Max
)

var opNames = map[string]Op{
	"copy": Copy, "check": Check, "count": Count,
	"sum": Sum, "min": Min, "max": Max,
}

// String returns the grammar spelling of the operator.
func (o Op) String() string {
	for s, v := range opNames {
		if v == o {
			return s
		}
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsAggregate reports whether the operator folds many source keys into one
// output value.
func (o Op) IsAggregate() bool {
	return o == Count || o == Sum || o == Min || o == Max
}

// Maintenance selects how a join's outputs are kept fresh (§3.4).
type Maintenance int

const (
	// Push (the default) asks for eager incremental maintenance.
	Push Maintenance = iota
	// Pull recomputes the join from scratch on each query, caching
	// nothing.
	Pull
	// Snapshot computes from scratch and caches the result — without
	// updates — for the configured duration.
	Snapshot
)

func (m Maintenance) String() string {
	switch m {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case Snapshot:
		return "snapshot"
	}
	return fmt.Sprintf("Maintenance(%d)", int(m))
}

// SourceMode selects per-source maintenance for push joins. The paper's
// prototype hard-wires "lazy maintenance (invalidations) for check
// sources and eager maintenance for all other sources" and notes "we
// would like to offer users more control over maintenance type" (§3.2);
// the eager/lazy source prefixes provide that control.
type SourceMode int

const (
	// ModeDefault applies the prototype policy: lazy for check sources,
	// eager otherwise.
	ModeDefault SourceMode = iota
	// ModeEager forces eager incremental maintenance for this source.
	ModeEager
	// ModeLazy forces lazy (invalidation-log) maintenance.
	ModeLazy
)

func (m SourceMode) String() string {
	switch m {
	case ModeEager:
		return "eager"
	case ModeLazy:
		return "lazy"
	}
	return "default"
}

// Source is one operator + pattern pair.
type Source struct {
	Op   Op
	Pat  *pattern.Pattern
	Mode SourceMode
}

// Join is a compiled cache join.
type Join struct {
	// Text is the original specification.
	Text string
	// Out is the output pattern.
	Out *pattern.Pattern
	// Sources are the source patterns in user order — the order is a
	// performance annotation (§3.4): sources are examined left to right
	// by the nested-loop executor.
	Sources []Source
	// ValueSource indexes the single non-check source, whose operator
	// produces output values.
	ValueSource int
	// Maint and SnapshotT are the maintenance annotation.
	Maint     Maintenance
	SnapshotT time.Duration
	// Slots is the join-wide slot table shared by all patterns.
	Slots pattern.SlotTable
}

// ValueOp returns the operator of the value source.
func (j *Join) ValueOp() Op { return j.Sources[j.ValueSource].Op }

// IsAggregate reports whether the join folds source keys (count/sum/min/max).
func (j *Join) IsAggregate() bool { return j.ValueOp().IsAggregate() }

// String returns the join's original text.
func (j *Join) String() string { return j.Text }

// Parse compiles a textual cache join. Multiple joins may be separated by
// semicolons and parsed one at a time with ParseAll.
func Parse(text string) (*Join, error) {
	j := &Join{Text: strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(text), ";"))}
	toks := strings.Fields(j.Text)
	if len(toks) < 4 {
		return nil, fmt.Errorf("join %q: want `out = [annotation] op pattern ...`", text)
	}
	if toks[1] != "=" {
		return nil, fmt.Errorf("join %q: missing '=' after output pattern", text)
	}
	out, err := pattern.Parse(toks[0], &j.Slots)
	if err != nil {
		return nil, err
	}
	j.Out = out
	rest := toks[2:]

	// Optional maintenance annotation.
	switch rest[0] {
	case "push":
		j.Maint = Push
		rest = rest[1:]
	case "pull":
		j.Maint = Pull
		rest = rest[1:]
	case "snapshot":
		if len(rest) < 2 {
			return nil, fmt.Errorf("join %q: snapshot needs a duration", text)
		}
		d, err := parseDuration(rest[1])
		if err != nil {
			return nil, fmt.Errorf("join %q: %v", text, err)
		}
		j.Maint = Snapshot
		j.SnapshotT = d
		rest = rest[2:]
	}

	if len(rest) == 0 {
		return nil, fmt.Errorf("join %q: sources must be operator/pattern pairs", text)
	}
	for i := 0; i < len(rest); {
		mode := ModeDefault
		switch rest[i] {
		case "eager":
			mode = ModeEager
			i++
		case "lazy":
			mode = ModeLazy
			i++
		}
		if i+1 >= len(rest) {
			return nil, fmt.Errorf("join %q: sources must be operator/pattern pairs", text)
		}
		op, ok := opNames[rest[i]]
		if !ok {
			return nil, fmt.Errorf("join %q: unknown operator %q", text, rest[i])
		}
		if mode == ModeLazy && op != Check {
			// Lazy value sources would leave outputs permanently stale
			// between reads without any log to apply; reject like the
			// engine's other install-time checks (§3).
			return nil, fmt.Errorf("join %q: lazy maintenance applies to check sources only", text)
		}
		pat, err := pattern.Parse(rest[i+1], &j.Slots)
		if err != nil {
			return nil, err
		}
		j.Sources = append(j.Sources, Source{Op: op, Pat: pat, Mode: mode})
		i += 2
	}
	if err := j.validate(); err != nil {
		return nil, fmt.Errorf("join %q: %v", text, err)
	}
	return j, nil
}

// MustParse is Parse that panics on error, for static join tables.
func MustParse(text string) *Join {
	j, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return j
}

// ParseAll parses a semicolon- or newline-separated list of joins,
// skipping blank entries and //-comments. Comments are stripped per line
// before splitting, so a ';' inside a comment does not break a
// specification apart.
func ParseAll(text string) ([]*Join, error) {
	var clean strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	var out []*Join
	for _, spec := range strings.FieldsFunc(clean.String(), func(r rune) bool { return r == ';' || r == '\n' }) {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		j, err := Parse(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, j)
	}
	return out, nil
}

// parseDuration accepts Go durations ("30s") and bare seconds ("30").
func parseDuration(s string) (time.Duration, error) {
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative snapshot duration %d", n)
		}
		return time.Duration(n) * time.Second, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad snapshot duration %q", s)
	}
	return d, nil
}

// validate applies the paper's install-time requirements.
func (j *Join) validate() error {
	// Exactly n-1 check operators.
	value := -1
	for i, s := range j.Sources {
		if s.Op != Check {
			if value >= 0 {
				return fmt.Errorf("exactly one non-check source allowed (have %s and %s)",
					j.Sources[value].Op, s.Op)
			}
			value = i
		}
	}
	if value < 0 {
		return fmt.Errorf("need one non-check source to produce output values")
	}
	j.ValueSource = value

	// The output must not read from its own table (self-recursion); the
	// engine rejects cross-join cycles at install time.
	for _, s := range j.Sources {
		if s.Pat.Table() == j.Out.Table() {
			return fmt.Errorf("recursive join: source table %q equals output table", s.Pat.Table())
		}
	}

	// Every output slot must be bound by some source, or the join can
	// never construct an output key.
	srcSlots := uint16(0)
	for _, s := range j.Sources {
		srcSlots |= s.Pat.Slots()
	}
	if j.Out.Slots()&^srcSlots != 0 {
		return fmt.Errorf("output slot(s) not bound by any source")
	}

	// The snapshot annotation needs a duration; zero means "always stale"
	// and is almost certainly a mistake.
	if j.Maint == Snapshot && j.SnapshotT <= 0 {
		return fmt.Errorf("snapshot join needs a positive duration")
	}
	return nil
}

// Ambiguous reports whether the join can produce colliding output keys: a
// non-aggregate join whose sources bind slots that do not appear in the
// output pattern (the paper's t|user|time variant, §3). Pequod installs
// such joins — "users are left responsible for avoiding ambiguous cache
// joins" — but applications can consult this before installing.
func (j *Join) Ambiguous() bool {
	if j.IsAggregate() {
		return false
	}
	srcSlots := uint16(0)
	for _, s := range j.Sources {
		srcSlots |= s.Pat.Slots()
	}
	return srcSlots&^j.Out.Slots() != 0
}

// SourceTables returns the distinct tables the join reads.
func (j *Join) SourceTables() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range j.Sources {
		if !seen[s.Pat.Table()] {
			seen[s.Pat.Table()] = true
			out = append(out, s.Pat.Table())
		}
	}
	return out
}

// SourceTables returns the base tables a join set reads, in order of
// first appearance: sources that are not some join's output (those are
// computed wherever they are needed, recursively). It is the set a
// cluster member loads from its peers and replicates, and an embedded
// pool forwards between its shards.
func SourceTables(js []*Join) []string {
	outputs := map[string]bool{}
	for _, j := range js {
		outputs[j.Out.Table()] = true
	}
	var out []string
	for _, j := range js {
		for _, t := range j.SourceTables() {
			if !outputs[t] && !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	return out
}
