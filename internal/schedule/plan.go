package schedule

import "graphpi/internal/pattern"

// This file compiles a (pattern, schedule) pair into an explicit loop
// program: which candidate set each loop traverses and which intersection
// operations run at which depth. It is the structure the paper's code
// generator emits as C++ (Figure 5(b)); here it is interpreted by the
// execution engine and costed by the performance model, so both views stay
// consistent by construction.
//
// Intersections are hoisted to the depth where their last input becomes
// bound and shared across loops via common-prefix elimination — e.g. for the
// House, tmpAB = N(vA)∩N(vB) is computed once in the second loop and reused
// by the two inner loops, exactly as in the paper's pseudocode.

// CandKind describes where a loop's candidate vertices come from.
type CandKind uint8

const (
	// CandFull iterates every vertex of the data graph (outermost loop).
	CandFull CandKind = iota
	// CandNeighborhood iterates the adjacency of one bound vertex.
	CandNeighborhood
	// CandBuffer iterates a previously computed intersection buffer.
	CandBuffer
)

// Candidate describes the candidate set of one loop.
type Candidate struct {
	Kind CandKind
	// Parent is the depth whose bound vertex's neighborhood is iterated
	// (CandNeighborhood only).
	Parent int
	// Buf is the intersection buffer index (CandBuffer only).
	Buf int
	// NumParents is the number of pattern neighbors bound before this
	// depth (the number of neighborhoods intersected; 0 for CandFull).
	NumParents int
}

// Step is one intersection executed immediately after binding the vertex at
// Depth: Out = Left ∩ N(v_Depth), where Left is either the neighborhood of
// the bound vertex at LeftParent (when LeftBuf < 0) or buffer LeftBuf.
type Step struct {
	Depth      int
	LeftBuf    int // -1 → left input is N(v_LeftParent)
	LeftParent int
	Out        int
	// PrefixLen is the number of neighborhoods intersected into Out (≥ 2);
	// the cost model sizes inputs with it.
	PrefixLen int
}

// Plan is the compiled loop program for one schedule of one pattern.
type Plan struct {
	// N is the number of loops (pattern vertices).
	N int
	// Cand[i] describes the candidate set of depth i.
	Cand []Candidate
	// Steps[d] lists the intersections to run right after binding depth d.
	Steps [][]Step
	// NumBufs is the number of intersection buffers the program needs.
	NumBufs int
}

// BuildPlan compiles the schedule against the pattern. The pattern here must
// be the *relabeled* pattern (vertex searched at depth i is named i), as
// produced by RelabeledPattern.
func BuildPlan(relabeled *pattern.Pattern, n int) Plan {
	p := Plan{
		N:     n,
		Cand:  make([]Candidate, n),
		Steps: make([][]Step, n),
	}
	// chainBuf maps a bitmask of parent depths to the buffer holding the
	// intersection of their neighborhoods.
	chainBuf := map[uint16]int{}
	for depth := 0; depth < n; depth++ {
		var parents []int
		for j := 0; j < depth; j++ {
			if relabeled.HasEdge(depth, j) {
				parents = append(parents, j)
			}
		}
		switch len(parents) {
		case 0:
			p.Cand[depth] = Candidate{Kind: CandFull}
		case 1:
			p.Cand[depth] = Candidate{
				Kind: CandNeighborhood, Parent: parents[0], NumParents: 1,
			}
		default:
			buf := p.ensureChain(chainBuf, parents)
			p.Cand[depth] = Candidate{
				Kind: CandBuffer, Buf: buf, NumParents: len(parents),
			}
		}
	}
	return p
}

// ensureChain materializes the intersection chain over the ascending parent
// list, sharing common prefixes with previously built chains, and returns
// the buffer index holding the full intersection.
func (p *Plan) ensureChain(chainBuf map[uint16]int, parents []int) int {
	prefixMask := uint16(1<<parents[0] | 1<<parents[1])
	prevBuf := -1 // left input of the first step is N(v_parents[0])
	if buf, ok := chainBuf[prefixMask]; ok {
		prevBuf = buf
	} else {
		buf = p.NumBufs
		p.NumBufs++
		chainBuf[prefixMask] = buf
		d := parents[1]
		p.Steps[d] = append(p.Steps[d], Step{
			Depth: d, LeftBuf: -1, LeftParent: parents[0], Out: buf, PrefixLen: 2,
		})
		prevBuf = buf
	}
	for t := 2; t < len(parents); t++ {
		prefixMask |= 1 << parents[t]
		if buf, ok := chainBuf[prefixMask]; ok {
			prevBuf = buf
			continue
		}
		buf := p.NumBufs
		p.NumBufs++
		chainBuf[prefixMask] = buf
		d := parents[t]
		p.Steps[d] = append(p.Steps[d], Step{
			Depth: d, LeftBuf: prevBuf, LeftParent: -1, Out: buf, PrefixLen: t + 1,
		})
		prevBuf = buf
	}
	return prevBuf
}
