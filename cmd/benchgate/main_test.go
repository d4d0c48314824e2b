package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }
func b(v bool) *bool         { return &v }

// TestGateFailsOnSyntheticRegression is the gate's own acceptance test: a
// fresh report whose speedups collapsed against the baseline must produce
// violations — the scenario the gate exists to catch.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	baseline := gateReport{
		Bench: "pr8-kernel-tiers",
		Speedups: map[string]float64{
			"k5/generated": 2.1,
			"k5/compiled":  1.1,
		},
	}
	regressed := gateReport{
		Bench: "pr8-kernel-tiers",
		Speedups: map[string]float64{
			"k5/generated": 0.9, // the generated kernel fell behind the interpreter
			"k5/compiled":  1.05,
		},
	}
	violations := compare(regressed, baseline, gateOptions{threshold: 0.7, maxOverhead: 0.03})
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly the k5/generated collapse", violations)
	}
	if !strings.Contains(violations[0], "k5/generated") {
		t.Fatalf("violation %q does not name the regressed key", violations[0])
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	baseline := gateReport{Speedups: map[string]float64{"k6/compiled": 1.4}}
	fresh := gateReport{Speedups: map[string]float64{"k6/compiled": 1.1, "new/key": 0.2}}
	// 1.1 >= 0.7 * 1.4: runner noise, not a regression; unknown fresh keys
	// are future benches, not violations.
	if v := compare(fresh, baseline, gateOptions{threshold: 0.7}); len(v) != 0 {
		t.Fatalf("violations = %v, want none", v)
	}
}

func TestGateFailsOnMissingKey(t *testing.T) {
	baseline := gateReport{Speedups: map[string]float64{"k5/generated": 2.0}}
	fresh := gateReport{Speedups: map[string]float64{}}
	v := compare(fresh, baseline, gateOptions{threshold: 0.7})
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("violations = %v, want a missing-key violation", v)
	}
}

func TestGateAbsoluteFloors(t *testing.T) {
	fresh := gateReport{Speedups: map[string]float64{"k6/compiled": 1.25}}
	opt := gateOptions{threshold: 0.7, mins: map[string]float64{"k6/compiled": 1.2}}
	if v := compare(fresh, gateReport{}, opt); len(v) != 0 {
		t.Fatalf("floor 1.2 vs 1.25: violations = %v, want none", v)
	}
	opt.mins["k6/compiled"] = 1.3
	if v := compare(fresh, gateReport{}, opt); len(v) != 1 {
		t.Fatalf("floor 1.3 vs 1.25: violations = %v, want one", v)
	}
	opt.mins = map[string]float64{"absent/key": 1.0}
	if v := compare(fresh, gateReport{}, opt); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("absent floor key: violations = %v", v)
	}
}

func TestGateOverheadReports(t *testing.T) {
	ok := gateReport{Bench: "pr9-telemetry-overhead", OverheadFraction: f64(0.009), Pass: b(true)}
	if v := compare(ok, gateReport{}, gateOptions{maxOverhead: 0.03}); len(v) != 0 {
		t.Fatalf("passing overhead report: violations = %v", v)
	}
	over := gateReport{OverheadFraction: f64(0.05), Pass: b(true)}
	if v := compare(over, gateReport{}, gateOptions{maxOverhead: 0.03}); len(v) != 1 {
		t.Fatalf("over-budget report: violations = %v, want one", v)
	}
	selfFailed := gateReport{OverheadFraction: f64(0.01), Pass: b(false)}
	if v := compare(selfFailed, gateReport{}, gateOptions{maxOverhead: 0.03}); len(v) != 1 {
		t.Fatalf("pass=false report: violations = %v, want one", v)
	}
}

// TestGateAgainstCheckedInShapes parses the real checked-in baselines (when
// present in the repo root) to pin that the gate's report struct matches the
// producers' formats — a field rename in a bench would otherwise silently
// turn the gate into a no-op.
func TestGateAgainstCheckedInShapes(t *testing.T) {
	for _, name := range []string{"BENCH_pr8.json", "BENCH_pr9.json"} {
		path := filepath.Join("..", "..", name)
		r, err := readReport(path)
		if err != nil {
			if os.IsNotExist(err) {
				t.Logf("%s not checked in; skipping shape check", name)
				continue
			}
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Speedups) == 0 && r.OverheadFraction == nil {
			t.Errorf("%s: gate found neither speedups nor overhead_fraction — format drifted", name)
		}
		// A baseline must pass the gate against itself at full parity.
		if v := compare(r, r, gateOptions{threshold: 1.0, maxOverhead: 0.03}); len(v) != 0 {
			t.Errorf("%s does not pass against itself: %v", name, v)
		}
	}
}

func TestMinFlagsParsing(t *testing.T) {
	m := minFlags{}
	if err := m.Set("k6/compiled=1.2"); err != nil {
		t.Fatal(err)
	}
	if m["k6/compiled"] != 1.2 {
		t.Fatalf("parsed %v", m)
	}
	if err := m.Set("garbage"); err == nil {
		t.Fatal("accepted flag without =")
	}
	if err := m.Set("k=notanumber"); err == nil {
		t.Fatal("accepted non-numeric value")
	}
}

// TestReadReportRoundTrip pins JSON decoding through a temp file.
func TestReadReportRoundTrip(t *testing.T) {
	rep := gateReport{Bench: "x", Speedups: map[string]float64{"a/b": 1.5}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != "x" || got.Speedups["a/b"] != 1.5 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := readReport(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}
