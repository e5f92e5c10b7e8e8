package main

import (
	"sort"
	"testing"
)

// BENCHMARK.json lists exactly the per-layer metrics the workloads
// measure.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		if listed[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		listed[m.Name] = true
	}
	measured := map[string]bool{}
	for w, names := range layerMetrics {
		if workloads[w] == nil {
			t.Errorf("layer metrics for unknown workload %s", w)
		}
		for _, n := range names {
			measured[n] = true
			if !listed[n] {
				t.Errorf("%s measures %s, which BENCHMARK.json does not list", w, n)
			}
		}
	}
	var missing []string
	for n := range listed {
		if !measured[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("BENCHMARK.json lists per-layer metrics no workload measures: %v", missing)
	}
}
