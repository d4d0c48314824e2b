package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// refs.json holds the reference counts of every workload's operations for
// defaultSeed, keyed by workload and then by pattern key. Regenerate it
// with -record-refs after changing a workload's inputs.
//
//go:embed refs.json
var refsJSON []byte

type refFile struct {
	Seed   uint64                      `json:"seed"`
	Counts map[string]map[string]int64 `json:"counts"`
}

// loadRefs parses reference counts in the refs.json format.
func loadRefs(data []byte) (map[string]map[string]int64, error) {
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("reference counts: %w", err)
	}
	if f.Seed != defaultSeed {
		return nil, fmt.Errorf("reference counts are for seed %d, want %d", f.Seed, defaultSeed)
	}
	return f.Counts, nil
}

// expect returns the reference count of the pattern under key on g: the
// recorded count when the run has one, else a count by the GraphZero
// planner's configuration on the interpreter without IEP, a path
// independent of the planner, tiers and IEP under test.
func (r *run) expect(key string, g *graph.Graph, pat *pattern.Pattern) (int64, error) {
	want, ok := r.recorded[key]
	if !ok {
		res, err := core.PlanGraphZero(pat, g.Stats())
		if err != nil {
			return 0, fmt.Errorf("reference for %s: %w", key, err)
		}
		want = res.Best.Count(g, core.RunOptions{Workers: r.workers, Tier: core.TierInterpret})
	}
	r.want[key] = want
	return want, nil
}

// recordRefs computes every workload's reference counts for defaultSeed
// and writes them to path in the refs.json format.
func recordRefs(dir, path string) error {
	out := refFile{Seed: defaultSeed, Counts: map[string]map[string]int64{}}
	for _, name := range workloadNames() {
		r := &run{dir: dir, workload: name, seed: defaultSeed, workers: runtime.GOMAXPROCS(0), want: map[string]int64{}}
		w := workloads[name]()
		err := w.input(r)
		if err == nil {
			err = w.setup(r, 0)
		}
		if err == nil {
			err = w.reference(r)
		}
		w.teardown()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out.Counts[name] = r.want
		fmt.Fprintf(os.Stderr, "%s: %d reference counts\n", name, len(r.want))
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
