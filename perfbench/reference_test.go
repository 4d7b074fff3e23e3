package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the metric tables
// the benchmark prints, and reference.json's layer mapping in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (def{d.name, d.unit, d.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", what, i, got[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)

	var ref struct {
		Digests   map[string]string
		Workloads map[string]json.RawMessage
		Layers    []struct{ Metric string }
	}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if ref.Workloads[w.Name] == nil {
			t.Errorf("reference.json does not describe workload %s", w.Name)
		}
	}
	for _, w := range []string{"model-fft", "model-conv"} {
		if len(ref.Digests[w]) != 64 {
			t.Errorf("reference.json has no digest for %s", w)
		}
	}
	mapped := map[string]bool{}
	for _, l := range ref.Layers {
		mapped[l.Metric] = true
	}
	for _, d := range perLayer {
		if !mapped[d.name] {
			t.Errorf("reference.json maps no end-to-end metric for %s", d.name)
		}
	}
}
