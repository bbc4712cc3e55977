// Command benchmark is this repository's one benchmark: four Twip
// workloads, measured end to end (-trace 0) and layer by layer through a
// ladder of rungs (-trace 1), every result checked against an
// independent reference. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// line is the last line of standard output: the contract with whatever
// drives the benchmark.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: embedded-twip, cluster-read, cluster-write or cluster-cold")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 24, "total length of the timed windows, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced ladder")
	out := flag.String("out", "", "also write the full report (spreads, segments, env) to this JSON file")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	data := flag.String("data", ".bench_build/data", "scratch directory for durable members")
	aa := flag.Bool("aa", false, "run two complete sets of every workload and compare them against the bounds")
	runs := flag.Int("runs", 3, "with -aa, runs of each workload per set")
	smoke := flag.Bool("smoke", false, "run every workload, untraced and traced, at a fraction of its size, 1 s windows")
	budget := flag.String("budget", "", "print the latency-budget table from this span file and exit")
	flag.Parse()

	ctx := context.Background()
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *budget != "":
		if err := printBudget(os.Stdout, *budget); err != nil {
			fatal(err)
		}
	case *aa:
		ok, err := runAA(*runs, *seed, *seconds, *data)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *smoke:
		for i := range specs {
			for _, traced := range []bool{false, true} {
				cfg := config{sp: specs[i].scaled(8), seed: *seed, seconds: 1, trace: traced,
					dataRoot: *data, log: os.Stderr}
				if traced {
					cfg.traceOut = filepath.Join(*data, "smoke-"+specs[i].Name+".spans")
				}
				rep, err := run(ctx, cfg)
				if err != nil {
					fatal(err)
				}
				if !rep.Correct || rep.Failed > 0 {
					fatal(fmt.Errorf("%s: %d failed ops, notes %v", rep.Workload, rep.Failed, rep.Notes))
				}
			}
		}
		fmt.Println("smoke: all workloads correct, untraced and traced")
	default:
		sp := specByName(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown -workload %q", *workload))
		}
		cfg := config{sp: *sp, seed: *seed, seconds: *seconds, trace: *trace != 0,
			dataRoot: *data, traceOut: *traceOut, log: os.Stderr}
		rep, err := run(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, rep)
		if *out != "" {
			b, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(*out, b, 0o644)
			}
			if err != nil {
				fatal(err)
			}
		}
		l := line{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]lineValue{}}
		for name, st := range rep.Metrics {
			l.Metrics[name] = lineValue{st.Value, st.Unit}
		}
		b, err := json.Marshal(l)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		if !rep.Correct {
			for _, n := range rep.Notes {
				fmt.Fprintln(os.Stderr, n)
			}
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
