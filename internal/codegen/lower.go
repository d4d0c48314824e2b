// Package codegen renders a planned configuration as straight-line Go
// source — the analogue of GraphPi's "Code Generation and Compilation"
// stage (paper Figure 3), which emits C++ for the selected schedule and
// restriction set and compiles it with -O3.
//
// The package has one lowering and one backend:
//
//   - Lower turns a Spec (the neutral description of a configuration that
//     internal/core produces) into a Program: an explicit per-level loop
//     nest with restriction windows, duplicate checks and hoisted
//     intersections resolved per level.
//   - GenerateSource (source.go) renders the Program as a standalone Go
//     main package, keeping the paper's emit-and-inspect architecture
//     reproducible.
//
// The engine itself runs configurations on the interpreter
// (internal/core/engine.go), or on the clique counter (core/clique.go) for
// total-order-restricted cliques k3..k12; neither is lowered here.
//
// codegen deliberately does not import internal/core: core hands over a
// Spec instead of a Config, so the dependency points one way.
package codegen

import (
	"fmt"

	"graphpi/internal/schedule"
)

// Spec is the neutral, core-independent description of one configuration:
// everything the source backend needs, nothing engine-internal.
type Spec struct {
	// N is the number of loops (pattern vertices).
	N int
	// Plan is the loop program: candidate sources and hoisted
	// intersections per depth (schedule.BuildPlan output).
	Plan schedule.Plan
	// Lowers[d]/Uppers[d] are the baked restriction windows: positions
	// whose bound vertex lower/upper-limits the candidates of depth d.
	Lowers [][]uint8
	Uppers [][]uint8
	// DupCheck[d] lists earlier positions whose bound vertex can still
	// collide with a depth-d candidate (usually none).
	DupCheck [][]uint8
	// Pattern, Schedule, Restrictions are display strings for the source
	// backend's generated header.
	Pattern, Schedule, Restrictions string
}

// Level is one loop of the lowered nest.
type Level struct {
	Depth int
	// Cand is where this loop's candidates come from.
	Cand schedule.Candidate
	// Lowers/Uppers are the bound positions narrowing this loop's window.
	Lowers, Uppers []uint8
	// Dup lists the bound positions still requiring an inequality check.
	Dup []uint8
	// Steps are the intersections to run right after binding this depth.
	Steps []schedule.Step
	// IsLeaf marks the innermost loop.
	IsLeaf bool
}

// Program is the lowered loop nest the source backend consumes.
type Program struct {
	N       int
	NumBufs int
	// Levels[d] is the loop at depth d (level 0 is the root sweep).
	Levels []Level
}

// Lower turns a Spec into a Program, resolving per level what the
// interpreter re-derives per iteration: the leaf role, windows, duplicate
// checks and the hoisted intersections.
func Lower(spec Spec) (*Program, error) {
	n := spec.N
	if n < 1 {
		return nil, fmt.Errorf("codegen: spec has %d levels", n)
	}
	if len(spec.Plan.Cand) != n || len(spec.Plan.Steps) != n {
		return nil, fmt.Errorf("codegen: plan shape (%d cands, %d step rows) does not match n=%d",
			len(spec.Plan.Cand), len(spec.Plan.Steps), n)
	}
	p := &Program{
		N:       n,
		NumBufs: spec.Plan.NumBufs,
		Levels:  make([]Level, n),
	}
	at := func(rows [][]uint8, d int) []uint8 {
		if d < len(rows) {
			return rows[d]
		}
		return nil
	}
	for d := 0; d < n; d++ {
		p.Levels[d] = Level{
			Depth:  d,
			Cand:   spec.Plan.Cand[d],
			Lowers: at(spec.Lowers, d),
			Uppers: at(spec.Uppers, d),
			Dup:    at(spec.DupCheck, d),
			Steps:  spec.Plan.Steps[d],
			IsLeaf: d == n-1,
		}
	}
	return p, nil
}
