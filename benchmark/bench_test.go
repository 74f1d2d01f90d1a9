package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name+" ["+d.Unit+"]")
	}
	sort.Strings(out)
	return out
}

func reported(m map[string]metricValue) []string {
	var out []string
	for name, v := range m {
		out = append(out, name+" ["+v.Unit+"]")
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload once at tiny scale, end to end and traced,
// and fails when a workload or metric named in BENCHMARK.json is missing from
// the output, or the other way round.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json is %+v, the benchmark has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the benchmark's list:\n%v\n%v", names(spec.PerLayer), names(perLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}

	rc := runConfig{seed: 1, window: 50 * time.Millisecond, sc: tinyScale, workdir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			if w.name == "plain-agg-par" && runtime.NumCPU() < 2 {
				t.Skip("needs 2 CPUs")
			}
			e2e, err := runEndToEnd(w, rc, 1)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(w, rc, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*runResult{e2e, traced} {
				if !r.Correct || r.Attempted == 0 {
					t.Errorf("trace=%v: %d of %d failed: %v", r.Trace, r.Failed, r.Attempted, r.Errors)
				}
			}
			if got, want := reported(e2e.Metrics), names(spec.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end run reported %v, BENCHMARK.json names %v", got, want)
			}
			if got, want := reported(traced.Metrics), names(spec.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run reported %v, BENCHMARK.json names %v", got, want)
			}
			if e2e.InputDigest != traced.InputDigest {
				t.Errorf("the same seed gave input digests %s and %s", e2e.InputDigest, traced.InputDigest)
			}
		})
	}
}
