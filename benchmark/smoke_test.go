package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// Every workload runs end to end at a fraction of its size, untraced and
// through the traced ladder: the oracle must stay green, no op may fail,
// exactly the declared metrics must come out, none of the end-to-end
// ones 0, and the span file must yield a budget table.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for i := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{sp: specs[i].scaled(16), seed: 5, seconds: 0.3, trace: traced, dataRoot: dir}
			if traced {
				cfg.traceOut = filepath.Join(dir, cfg.sp.Name+".spans")
			}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", cfg.sp.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					cfg.sp.Name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
			}
			if !traced {
				for _, d := range endToEnd {
					if rep.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", cfg.sp.Name, d.Name, rep.Metrics[d.Name].Value)
					}
				}
				continue
			}
			out, err := os.Create(filepath.Join(dir, "budget.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if err := printBudget(out, cfg.traceOut); err != nil {
				t.Errorf("%s: budget table: %v", cfg.sp.Name, err)
			}
			out.Close()
		}
	}
}
