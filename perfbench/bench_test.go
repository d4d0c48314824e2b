package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpi/internal/pattern"
)

// tinyCountHot is count-hot at a size that runs in well under a second.
var tinyCountHot = countHotSizing{n: 300, m: 3, comms: 4, members: 10, keep: 0.9}

func tinyRun(t *testing.T, traced bool) *run {
	r := &run{dir: t.TempDir(), workload: "count-hot", seed: 7, seconds: 0.05, workers: 2}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func TestMotifListMatchesAllConnected(t *testing.T) {
	got, err := parseMotifs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 112 {
		t.Fatalf("motifs6.txt holds %d patterns, want 112", len(got))
	}
	seen := map[string]bool{}
	for _, bp := range got {
		if bp.pat.N() != 6 || !bp.pat.Connected() {
			t.Fatalf("%s is not a connected 6-vertex pattern", bp.key)
		}
		key := bp.pat.CanonicalKey()
		if seen[key] {
			t.Fatalf("%s repeats canonical key %s", bp.key, key)
		}
		seen[key] = true
	}
	want := pattern.AllConnected(6)
	if len(want) != len(got) {
		t.Fatalf("AllConnected(6) has %d patterns, the list %d", len(want), len(got))
	}
	for i, p := range want {
		if key := p.CanonicalKey(); got[i].pat.CanonicalKey() != key {
			t.Fatalf("entry %d is %s, AllConnected(6) has 6:%s", i, got[i].key, key)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.Name || got[i].Unit != d.Unit || got[i].Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// A wrong reference count must fail the run: a failed operation in the
// result line and a non-zero exit code.
func TestWrongReferenceFailsRun(t *testing.T) {
	counts, err := loadRefs(refsJSON)
	if err != nil {
		t.Fatal(err)
	}
	counts["serve-mixed"]["triangle"]++
	wrong, err := json.Marshal(refFile{Seed: defaultSeed, Counts: counts})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{dir: t.TempDir(), workload: "serve-mixed", seed: defaultSeed, seconds: 0.05, workers: 2, refs: wrong}
	var out, errOut bytes.Buffer
	if code := runAndReport(r, newServeMixed(serveMixedSize), &out, &errOut); code == 0 {
		t.Fatalf("run with a wrong reference exited 0:\n%s", out.String())
	}
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		t.Fatalf("no result line: %v\n%s", err, errOut.String())
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong reference not reported: %+v", res)
	}

	// The recorded references themselves pass.
	out.Reset()
	args := []string{"-workload", "serve-mixed", "-seed", "1", "-seconds", "0.05", "-dir", t.TempDir()}
	if code := benchMain(args, &out, &errOut); code != 0 {
		t.Fatalf("run with the recorded references exited %d:\n%s\n%s", code, out.String(), errOut.String())
	}
}

// An untraced run records no spans and hands out no stats sinks; a traced
// run of the same workload does both and reports every per-layer metric.
func TestUntracedRunRecordsNothing(t *testing.T) {
	spans, sinks := spansRecorded.Load(), sinksAllocated.Load()
	res, err := execute(tinyRun(t, false), newCountHot(tinyCountHot))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("untraced run: %+v", res)
	}
	if n := spansRecorded.Load() - spans; n != 0 {
		t.Errorf("untraced run recorded %d spans", n)
	}
	if n := sinksAllocated.Load() - sinks; n != 0 {
		t.Errorf("untraced run allocated %d stats sinks", n)
	}

	res, err = execute(tinyRun(t, true), newCountHot(tinyCountHot))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced run: %+v", res)
	}
	if spansRecorded.Load() == spans || sinksAllocated.Load() == sinks {
		t.Error("traced run recorded no spans or stats sinks")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "pass", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "req", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "req", Start: 2, End: 5},  // overlaps the first
		{ID: 4, Parent: 1, Name: "req", Start: 8, End: 12}, // clipped to the parent
	}}
	for _, lt := range tr.selfTimes() {
		if lt.Name == "pass" && lt.SelfS != 4 {
			t.Errorf("pass self time %v, want 4", lt.SelfS)
		}
		if lt.Name == "req" && (lt.Count != 3 || lt.TotalS != 10) {
			t.Errorf("req aggregate %+v, want 3 spans totalling 10s", lt)
		}
	}
}
