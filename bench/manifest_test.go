package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json and the harness's tables are one contract in two
// places; this is what keeps them from drifting.
func TestManifestMatchesHarness(t *testing.T) {
	if err := checkManifest(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
}

func TestManifestWithinContractLimits(t *testing.T) {
	m := harnessManifest()
	if err := validateNames(m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is in the manifest but not in the harness", w.Name)
		}
	}
	if len(workloads) != len(m.Workloads) {
		t.Errorf("harness has %d workloads, manifest %d", len(workloads), len(m.Workloads))
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			hasSetup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestValidateNamesRejects(t *testing.T) {
	for _, bad := range []string{"", "has space", "-leading", strings.Repeat("x", 65), "p99/us"} {
		m := manifest{Workloads: []workloadDef{{Name: bad}}}
		if validateNames(m) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	dup := manifest{Workloads: []workloadDef{{Name: "a"}}, PerLayer: []layerDef{{Name: "a"}}}
	if validateNames(dup) == nil {
		t.Error("duplicate name accepted")
	}
}
