package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the lists in metrics.go must declare the same
// metrics, and both must stay inside the driver's limits.
func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifestFile
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, declared []manifestMetric, emitted []metricDef, bounded bool) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", what, len(declared), len(emitted))
		}
		byName := map[string]manifestMetric{}
		for _, d := range declared {
			if _, dup := byName[d.Name]; dup {
				t.Errorf("%s: %s declared twice", what, d.Name)
			}
			byName[d.Name] = d
			if (d.Bound != nil) != bounded {
				t.Errorf("%s: %s: bound present = %v, want %v", what, d.Name, d.Bound != nil, bounded)
			}
			if bounded && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", what, d.Name, *d.Bound)
			}
		}
		for _, e := range emitted {
			if !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) {
				t.Errorf("%s: bad name or unit: %+v", what, e)
			}
			d, ok := byName[e.Name]
			if !ok {
				t.Errorf("%s: %s emitted but not in BENCHMARK.json", what, e.Name)
				continue
			}
			if d.Unit != e.Unit || d.Better != e.Better {
				t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s in metrics.go", what, e.Name, d.Unit, d.Better, e.Unit, e.Better)
			}
		}
	}
	compare("end_to_end", man.EndToEnd, endToEnd, true)
	compare("per_layer", man.PerLayer, perLayer, false)
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, limit 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", endToEnd[0])
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, specs[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	runs := 4 + 22*len(man.Workloads)
	if man.RunSeconds < 1 || man.RunSeconds > 60 || len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", man.RunSeconds, man.Paths)
	}
	t.Logf("the driver makes %d runs of %d s windows", runs, man.RunSeconds)
}
