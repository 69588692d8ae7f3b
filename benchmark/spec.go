package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the median it may worsen
}

func (d metricDef) higher() bool { return d.Better == "higher" }

// spec is BENCHMARK.json at the repository root: the one declaration of
// the workloads (names, reasons, order), the window length and the
// metrics (names, units, directions, bounds). The program holds only how
// each workload runs and how each metric is computed, by name; a name
// declared but not computed, or computed but not declared, fails the run.
type spec struct {
	root string // directory BENCHMARK.json was found in

	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`

	workloads []workload // the implementations, in declared order
}

// loadSpec reads BENCHMARK.json from the working directory (the driver
// and run.sh start the program at the root of a checkout) or from its
// parent (go run and go test start it in this directory).
func loadSpec() (*spec, error) {
	for _, root := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		sp := &spec{root: root}
		if err := json.Unmarshal(raw, sp); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return sp, sp.bind()
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// bind pairs every declared workload with its implementation.
func (sp *spec) bind() error {
	if len(sp.Paths) == 0 || sp.RunSeconds < 1 || len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return fmt.Errorf("BENCHMARK.json: paths, run_seconds, end_to_end and per_layer are required")
	}
	if len(sp.Workloads) != len(implementations) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the program implements %d", len(sp.Workloads), len(implementations))
	}
	for _, d := range sp.Workloads {
		w, ok := implementations[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json: workload %q has no implementation", d.Name)
		}
		w.name = d.Name
		sp.workloads = append(sp.workloads, w)
	}
	return nil
}

func (sp *spec) workload(name string) *workload {
	for i := range sp.workloads {
		if sp.workloads[i].name == name {
			return &sp.workloads[i]
		}
	}
	return nil
}

// buildDir is where the program keeps what it writes besides its output:
// the Chrome traces (and, through run.sh, the binary and the build cache).
func (sp *spec) buildDir() string {
	return filepath.Join(sp.root, sp.Paths[0], ".bench_build")
}
