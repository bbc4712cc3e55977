package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the A/A mode needs: each
// end-to-end metric's direction and bound.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOne runs this binary once as a child process, as the driver would,
// and parses its last line.
func runOne(workload string, seed int64, seconds float64, data string) (*line, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-data", data)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var l line
	if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !l.Correct || l.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, l.Correct, l.Failed)
	}
	return &l, nil
}

// aaGap judges two medians of the same binary. worse is B against A in
// the metric's bad direction, for display. The verdict is two-sided: a
// set B that is better than A by more than the bound is the same size
// of noise as one that is worse by it, so either way the benchmark
// could not have resolved a change of that size. The distance is taken
// over the smaller median, which makes it the same whichever set ran
// first.
func aaGap(ma, mb float64, better string, bound float64) (worse float64, breach bool) {
	worse = (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	return worse, math.Abs(mb-ma)/math.Min(ma, mb) > bound
}

// runAA runs two complete sets of the same binary — every workload, runs
// times, the second set in the opposite workload order — and holds each
// (metric, workload) pair to the metric's bound twice over, as the
// driver does: the distance between the sets' medians, and each set's
// own inter-quartile spread (set-up time excepted, one set-up per run
// being too few to steady it). Either past the bound means the benchmark
// cannot resolve a regression of that size.
func runAA(runs int, seed int64, seconds float64, data string) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return false, err
	}
	// vals[set][workload][metric] = one value per run.
	var vals [2]map[string]map[string][]float64
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		for i := range specs {
			sp := specs[i]
			if set == 1 {
				sp = specs[len(specs)-1-i]
			}
			vals[set][sp.Name] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				l, err := runOne(sp.Name, seed+int64(r), seconds, data)
				if err != nil {
					return false, err
				}
				for name, v := range l.Metrics {
					vals[set][sp.Name][name] = append(vals[set][sp.Name][name], v.Value)
				}
			}
		}
	}
	ok := true
	fmt.Printf("%-16s %-26s %14s %14s %8s %8s %8s %7s\n", "workload", "metric", "set A", "set B", "worse", "spread A", "spread B", "bound")
	for _, sp := range specs {
		for _, md := range man.EndToEnd {
			a, b := vals[0][sp.Name][md.Name], vals[1][sp.Name][md.Name]
			ma, mb := median(a), median(b)
			worse, breach := aaGap(ma, mb, md.Better, md.Bound)
			sa, sb := spreadOf(a), spreadOf(b)
			verdict := ""
			if breach {
				verdict = "  BREACH"
			}
			if md.Name != "setup_s" && math.Max(sa, sb) > md.Bound {
				verdict += "  SPREAD"
			}
			if verdict != "" {
				ok = false
			}
			fmt.Printf("%-16s %-26s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %6.1f%%%s\n", sp.Name, md.Name, ma, mb,
				100*worse, 100*sa, 100*sb, 100*md.Bound, verdict)
		}
	}
	return ok, nil
}
