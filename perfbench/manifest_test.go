package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists in
// step with the metrics the command prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
		if _, ok := tailQuantiles[w.Name]; !ok {
			t.Errorf("workload %q has no fixed tail quantile", w.Name)
		}
	}
}

// TestManifestCoversEveryLayerMetric requires manifest.json to say which
// end-to-end metric each per-layer metric should move.
func TestManifestCoversEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Moves     map[string][]string       `json:"per_layer_moves"`
		Workloads map[string]map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if len(m.Moves[d.name]) != 2 {
			t.Errorf("manifest.json: per_layer_moves[%q] must name a metric and a workload", d.name)
		}
	}
	if len(m.Moves) != len(perLayer) {
		t.Errorf("manifest.json maps %d per-layer metrics, the code reports %d", len(m.Moves), len(perLayer))
	}
	for name := range workloads {
		if m.Workloads[name] == nil {
			t.Errorf("manifest.json does not describe workload %q", name)
		}
	}
}
