// Package codegen compiles a planned configuration into straight-line
// executable form — the analogue of GraphPi's "Code Generation and
// Compilation" stage (paper Figure 3), which emits C++ for the selected
// schedule and restriction set and compiles it with -O3.
//
// The package has one lowering and two backends:
//
//   - Lower turns a Spec (the neutral description of a configuration that
//     internal/core produces) into a Program: an explicit per-level loop
//     nest with restriction windows, duplicate checks and intersection
//     kernels resolved per level.
//   - Compile (compile.go) turns a Program into a chain of specialized
//     closures bound to one data graph — the engine's runtime-compiled
//     execution tier. Kernel choices frozen by the cost model, window scans
//     baked to fixed bound positions, and the innermost counting loop
//     monomorphized to a length add.
//   - GenerateSource (source.go) renders the same Program as a standalone
//     Go main package, keeping the paper's emit-and-inspect architecture
//     reproducible from the identical lowering.
//
// The third tier, for total-order-restricted cliques k3..k12, is not
// lowered here: internal/core counts them with its clique counter
// (core/clique.go).
//
// codegen deliberately does not import internal/core: core imports codegen
// to build its compiled tier, and hands over a Spec instead of a Config.
package codegen

import (
	"fmt"

	"graphpi/internal/schedule"
)

// KernelChoice freezes which intersection kernel a step runs. The
// interpreter picks per execution from actual slice lengths; the compiled
// tier picks once from the cost model's expected sizes, removing the
// dispatch from the innermost loops.
type KernelChoice uint8

const (
	// KernelAdaptive re-checks sizes at run time (merge/gallop crossover,
	// bitmap probe when a hub bitmap exists) — the interpreter's behavior,
	// and the fallback when no cost-model parameters are attached.
	KernelAdaptive KernelChoice = iota
	// KernelMerge forces the linear merge.
	KernelMerge
	// KernelGallop forces the galloping probe of the larger input.
	KernelGallop
	// KernelBitmap probes the bound vertex's hub bitmap in O(|small|),
	// falling back to the adaptive scalar path for non-hub vertices.
	KernelBitmap
)

func (k KernelChoice) String() string {
	switch k {
	case KernelMerge:
		return "merge"
	case KernelGallop:
		return "gallop"
	case KernelBitmap:
		return "bitmap"
	default:
		return "adaptive"
	}
}

// Spec is the neutral, core-independent description of one executable
// configuration: everything the two backends need, nothing engine-internal.
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
	// KIEP is the inclusion–exclusion suffix length (0 → enumerate the
	// full nest; the cut depth is then N-KIEP-1).
	KIEP int
	// IEPNum/IEPDen scale the raw IEP tally (1/1 for complete sets).
	IEPNum, IEPDen int64
	// Kernels[d][i] freezes the kernel of Plan.Steps[d][i]; nil (or a
	// short row) means KernelAdaptive.
	Kernels [][]KernelChoice
	// Pattern, Schedule, Restrictions are display strings for the source
	// backend's generated header.
	Pattern, Schedule, Restrictions string
}

// Step is one hoisted intersection with its frozen kernel.
type Step struct {
	schedule.Step
	Kernel KernelChoice
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
	Steps []Step
	// IsLeaf marks the innermost loop; AtCut marks the loop after which
	// the IEP calculator takes over. At most one of the two is set.
	IsLeaf, AtCut bool
}

// IEPSource describes one candidate set of the IEP suffix: the neighborhood
// of the vertex bound at Parent (Parent >= 0) or intersection buffer Buf.
type IEPSource struct {
	Parent int
	Buf    int
}

// Program is the lowered loop nest both backends consume.
type Program struct {
	N       int
	NumBufs int
	// Levels[d] is the loop at depth d (level 0 is the root sweep).
	Levels []Level
	// IEPCut is the depth after which IEP takes over (-1 when disabled).
	IEPCut int
	// KIEP and the scaling mirror the Spec (KIEP > 0 iff IEPCut >= 0).
	KIEP           int
	IEPNum, IEPDen int64
	// IEP lists the candidate sources of the suffix loops, in order.
	IEP []IEPSource
}

// Lower turns a Spec into a Program, resolving per level what the
// interpreter re-derives per iteration: leaf/cut roles, windows, duplicate
// checks, and the kernel of every hoisted intersection.
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
		IEPCut:  -1,
		KIEP:    spec.KIEP,
		IEPNum:  spec.IEPNum,
		IEPDen:  spec.IEPDen,
	}
	if spec.KIEP >= 1 && n >= 2 {
		p.IEPCut = n - spec.KIEP - 1
		for i := 0; i < spec.KIEP; i++ {
			cand := spec.Plan.Cand[p.IEPCut+1+i]
			switch cand.Kind {
			case schedule.CandNeighborhood:
				p.IEP = append(p.IEP, IEPSource{Parent: cand.Parent, Buf: -1})
			case schedule.CandBuffer:
				p.IEP = append(p.IEP, IEPSource{Parent: -1, Buf: cand.Buf})
			default:
				// A disconnected inner vertex would need the whole vertex
				// set; connected patterns never produce this.
				return nil, fmt.Errorf("codegen: IEP inner loop %d has a full candidate set", p.IEPCut+1+i)
			}
		}
	}
	at := func(rows [][]uint8, d int) []uint8 {
		if d < len(rows) {
			return rows[d]
		}
		return nil
	}
	for d := 0; d < n; d++ {
		lv := Level{
			Depth:  d,
			Cand:   spec.Plan.Cand[d],
			Lowers: at(spec.Lowers, d),
			Uppers: at(spec.Uppers, d),
			Dup:    at(spec.DupCheck, d),
			IsLeaf: d == n-1 && p.IEPCut != d,
			AtCut:  d == p.IEPCut,
		}
		for i, st := range spec.Plan.Steps[d] {
			choice := KernelAdaptive
			if d < len(spec.Kernels) && i < len(spec.Kernels[d]) {
				choice = spec.Kernels[d][i]
			}
			lv.Steps = append(lv.Steps, Step{Step: st, Kernel: choice})
		}
		p.Levels[d] = lv
	}
	return p, nil
}
