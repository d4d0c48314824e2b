// Command benchgate turns the CI benchmark artifacts from upload-only
// trajectory records into regression gates. It reads a freshly produced
// bench report and the checked-in baseline of the same shape and fails
// (exit 1, one line per violation) when the fresh numbers regress beyond a
// configurable threshold.
//
// Two report shapes are understood, keyed by which fields are present:
//
//   - Speedup reports (kernelbench's BENCH_pr8.json): the "speedups" map of
//     machine-independent ratios.
//     Every baseline key must be present in the fresh report at no less than
//     threshold × its baseline value. Ratios, not wall-clock seconds, cross
//     runner generations safely.
//
//   - Overhead reports (servicebench's BENCH_pr9.json): "overhead_fraction"
//     and "pass". The fresh report must pass its own budget and stay under
//     -max-overhead.
//
// Absolute floors can be added with repeated -min key=value flags (e.g.
// -min k5/generated=2), for speedups that must hold regardless of what the
// baseline drifted to.
//
// Run with:
//
//	go run ./cmd/benchgate -fresh /tmp/BENCH_pr8.json -baseline BENCH_pr8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// gateReport is the union of the bench report fields the gate reads; each
// producer's extra fields pass through unharmed.
type gateReport struct {
	Bench    string             `json:"bench"`
	Speedups map[string]float64 `json:"speedups"`

	OverheadFraction *float64 `json:"overhead_fraction"`
	Pass             *bool    `json:"pass"`
}

// gateOptions configures one comparison.
type gateOptions struct {
	// threshold scales baseline speedups: fresh >= threshold * baseline.
	// 1.0 demands full parity; CI uses a slacker value to absorb runner
	// noise while still catching real regressions.
	threshold float64
	// maxOverhead bounds overhead reports' overhead_fraction.
	maxOverhead float64
	// mins are absolute speedup floors by key, applied after the
	// baseline-relative check.
	mins map[string]float64
}

// compare returns one violation string per regression; an empty slice means
// the gate passes. Baseline may be zero-valued for overhead reports (their
// budget is absolute).
func compare(fresh, baseline gateReport, opt gateOptions) []string {
	var violations []string

	if len(baseline.Speedups) > 0 {
		for key, base := range baseline.Speedups {
			got, ok := fresh.Speedups[key]
			if !ok {
				violations = append(violations,
					fmt.Sprintf("speedup %q: present in baseline (%.2fx) but missing from fresh report", key, base))
				continue
			}
			if floor := base * opt.threshold; got < floor {
				violations = append(violations,
					fmt.Sprintf("speedup %q: %.3fx, below %.2f x baseline %.3fx = %.3fx", key, got, opt.threshold, base, floor))
			}
		}
	}

	for key, floor := range opt.mins {
		got, ok := fresh.Speedups[key]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("speedup %q: required at >= %.2fx but missing from fresh report", key, floor))
			continue
		}
		if got < floor {
			violations = append(violations,
				fmt.Sprintf("speedup %q: %.3fx, below the absolute floor %.2fx", key, got, floor))
		}
	}

	if fresh.OverheadFraction != nil {
		if *fresh.OverheadFraction > opt.maxOverhead {
			violations = append(violations,
				fmt.Sprintf("overhead fraction %.4f exceeds the %.4f budget", *fresh.OverheadFraction, opt.maxOverhead))
		}
		if fresh.Pass != nil && !*fresh.Pass {
			violations = append(violations, "fresh report failed its own budget (pass=false)")
		}
	}

	return violations
}

// minFlags collects repeated -min key=value flags.
type minFlags map[string]float64

func (m minFlags) String() string { return fmt.Sprint(map[string]float64(m)) }

func (m minFlags) Set(s string) error {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	m[key] = f
	return nil
}

func readReport(path string) (gateReport, error) {
	var r gateReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	mins := minFlags{}
	var (
		freshPath   = flag.String("fresh", "", "freshly produced bench report (required)")
		basePath    = flag.String("baseline", "", "checked-in baseline report (optional for overhead reports)")
		threshold   = flag.Float64("threshold", 0.7, "fresh speedups must reach threshold x baseline")
		maxOverhead = flag.Float64("max-overhead", 0.03, "overhead_fraction budget for overhead reports")
	)
	flag.Var(mins, "min", "absolute speedup floor as key=value (repeatable)")
	flag.Parse()

	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -fresh is required")
		os.Exit(2)
	}
	fresh, err := readReport(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var baseline gateReport
	if *basePath != "" {
		if baseline, err = readReport(*basePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
	}
	violations := compare(fresh, baseline, gateOptions{
		threshold:   *threshold,
		maxOverhead: *maxOverhead,
		mins:        mins,
	})
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s regressed against %s:\n", *freshPath, *basePath)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  -", v)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %s ok (%d baseline keys, %d floors, threshold %.2f)\n",
		fresh.Bench, len(baseline.Speedups), len(mins), *threshold)
}
