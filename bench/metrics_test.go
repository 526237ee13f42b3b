package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is read by the driver and by compare; the tables in
// metrics.go are what the harness emits. They have to say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Paths, []string{"bench"}) || len(got.Command) == 0 {
		t.Errorf("paths %v, command %v", got.Paths, got.Command)
	}
	if got.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness's default is %d", got.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json  %+v\n table %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json  %+v\n table %+v", got.PerLayer, perLayer)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the table", len(got.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), table %q (%q)", i, got.Workloads[i].Name, got.Workloads[i].Why, w.Name, w.Why)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
