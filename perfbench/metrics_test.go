package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json at the root
// of the repository names exactly the metrics this program prints, with
// the same units, and only workloads it can run.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, listed []named, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(defs))
		}
		for i := 0; i < len(listed) && i < len(defs); i++ {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
