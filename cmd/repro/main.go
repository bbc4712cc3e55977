// Command repro regenerates the paper's evaluation (§5): every table and
// figure, at a configurable scale, printing the same rows/series the
// paper reports.
//
// Usage:
//
//	repro [-scale tiny|small|medium] [-fig 7|8|9|10|ablations|all]
//
// Absolute numbers differ from the paper (the authors ran 32-core EC2
// instances against the 2009 Twitter crawl); the shape — which system
// wins, by roughly what factor, where crossovers fall — is the
// reproduction target: compare its rows with the paper's (DESIGN.md
// "Evaluation" lists the experiments).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pequod/internal/experiments"
)

func main() {
	log.SetPrefix("repro: ")
	log.SetFlags(0)
	scaleName := flag.String("scale", "small", "experiment scale: tiny|small|medium")
	fig := flag.String("fig", "all", "which experiment: 7|8|9|10|celebrity|ablations|all")
	seed := flag.Int64("seed", 0, "determinism root for graph/post/workload streams (0 = the historical default, 42)")
	flag.Parse()

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	sc.Seed = *seed
	out := os.Stdout
	fmt.Fprintf(out, "scale=%s seed=%d (every generated stream derives from the seed; rerun with -seed %d to replay)\n",
		sc.Name, sc.EffectiveSeed(), sc.EffectiveSeed())

	runFig := func(name string, fn func() error) {
		fmt.Fprintf(out, "\n=== %s ===\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	if *fig == "7" || *fig == "all" {
		runFig("Figure 7: system comparison", func() error {
			_, err := experiments.Fig7(sc, out)
			return err
		})
	}
	if *fig == "8" || *fig == "all" {
		runFig("Figure 8: materialization strategy", func() error {
			_, err := experiments.Fig8(sc, []int{1, 5, 10, 25, 50, 75, 90, 100}, out)
			return err
		})
	}
	if *fig == "9" || *fig == "all" {
		runFig("Figure 9: Newp cache-join choice", func() error {
			_, err := experiments.Fig9(sc, []int{0, 10, 25, 50, 75, 90, 100}, out)
			return err
		})
	}
	if *fig == "10" || *fig == "all" {
		runFig("Figure 10: scalability", func() error {
			_, err := experiments.Fig10(sc, []int{1, 2, 4, 8}, 2, out)
			return err
		})
	}
	if *fig == "celebrity" || *fig == "all" {
		runFig("Celebrity joins (§2.3)", func() error {
			_, err := experiments.Celebrity(sc, out)
			return err
		})
	}
	if *fig == "ablations" || *fig == "all" {
		runFig("Ablations (§4)", func() error {
			if _, err := experiments.AblationOutputHints(sc, out); err != nil {
				return err
			}
			_, err := experiments.AblationValueSharing(sc, out)
			return err
		})
	}
}
