package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// sets each run must report, and the bounds a comparison applies.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from the directory the benchmark runs in,
// the repository root.
func readSpec() (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// readResults collects every metric of the JSON result lines in path.
// Lines of runs whose output checks failed (correct false) are skipped: a
// wrong answer's timing says nothing about the program's speed.
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r struct {
			Correct bool                `json:"correct"`
			Metrics map[string]measured `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if !r.Correct {
			continue
		}
		for n, m := range r.Metrics {
			out[n] = append(out[n], m.Value)
		}
	}
	return out, sc.Err()
}

// runCompare prints, per end-to-end metric, each file's median and spread
// (interquartile range over median) and, given two files, the change's
// worsening against the bound in BENCHMARK.json. It returns 1 when a spread
// exceeds its bound or the change regressed past one.
func runCompare(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -compare parent.jsonl [change.jsonl]")
		return 2
	}
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sets := make([]map[string][]float64, len(args))
	for i, a := range args {
		if sets[i], err = readResults(a); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	sort.Slice(spec.EndToEnd, func(i, j int) bool { return spec.EndToEnd[i].Name < spec.EndToEnd[j].Name })
	code := 0
	for _, m := range spec.EndToEnd {
		line := fmt.Sprintf("%-14s bound %.2f", m.Name, m.Bound)
		for _, s := range sets {
			xs := s[m.Name]
			if len(xs) == 0 {
				line += "  (missing)"
				code = 1
				continue
			}
			sp := spread(xs)
			line += fmt.Sprintf("  n=%d median %.4f spread %.3f", len(xs), median(xs), sp)
			if sp > m.Bound {
				line += " SPREAD>BOUND"
				code = 1
			}
		}
		if len(sets) == 2 && len(sets[0][m.Name]) > 0 && len(sets[1][m.Name]) > 0 {
			v := compare(sets[0][m.Name], sets[1][m.Name], m.Better == "lower", m.Bound)
			line += fmt.Sprintf("  worsening %+.3f", v.Worsening)
			if v.Regressed {
				line += " REGRESSED"
				code = 1
			}
		}
		fmt.Println(line)
	}
	return code
}
