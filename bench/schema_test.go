package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"testing"
)

// BENCHMARK.json and the benchmark must declare the same workloads and the
// same metric names and units, and a run must print exactly those.
func TestManifestMatchesBenchmark(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", declared, have)
	}

	for _, tc := range []struct {
		trace    int
		manifest []gate
		table    map[string]string
	}{
		{0, m.EndToEnd, endToEnd},
		{1, m.PerLayer, perLayer},
	} {
		units := map[string]string{}
		for _, g := range tc.manifest {
			units[g.Name] = g.Unit
		}
		if !maps.Equal(units, tc.table) {
			t.Errorf("-trace %d: BENCHMARK.json declares %v, the benchmark %v", tc.trace, units, tc.table)
		}

		// A report with every declared metric set prints exactly those names.
		rep := newReport(workloads[0], tc.trace, defaultSeed)
		for name := range tc.table {
			rep.set(name, 1)
		}
		rep.set("not.declared", 1)
		if rep.Correct {
			t.Errorf("-trace %d: setting an undeclared metric did not fail the run", tc.trace)
		}
		var out bytes.Buffer
		rep.print(&out)
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var result struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &result); err != nil {
			t.Fatalf("-trace %d: last line is not the result object: %v", tc.trace, err)
		}
		printed := map[string]string{}
		for name, v := range result.Metrics {
			printed[name] = v.Unit
		}
		if !maps.Equal(printed, units) {
			t.Errorf("-trace %d: printed %v, BENCHMARK.json declares %v", tc.trace, printed, units)
		}

		// A report missing a declared metric must say so.
		short := newReport(workloads[0], tc.trace, defaultSeed)
		short.print(&bytes.Buffer{})
		if short.Correct {
			t.Errorf("-trace %d: a run that measured nothing printed as correct", tc.trace)
		}
	}
}
