package core

import (
	"sync/atomic"

	"graphpi/internal/graph"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// The generated tier's clique counter. The name is historical: the tier
// once ran go:generate'd loop nests, one per clique size; one counter now
// serves every K_q. It counts under the fixed descending order
// v0 > v1 > ... > v_{q-1}, which detectCliqueKernel proves equivalent to
// the planned restrictions. Its speed comes from cliqueStep, which bounds
// both operands by the symmetry order before intersecting them (GraphZero's
// order-bounded set algebra, the paper's restriction windows applied at
// the set-operation level), and from counting the last level by length.

// MinClique and MaxClique bound the clique sizes the generated tier covers.
const (
	MinClique = 3
	MaxClique = 12
)

// cliqueCounter is one worker's clique-counting state: the per-level
// candidate buffers, the running tally and an optional telemetry shard.
type cliqueCounter struct {
	g     *graph.Graph
	q     int
	stop  *atomic.Bool
	bufs  [][]uint32          // bufs[d] holds level d's candidates, 2 ≤ d < q
	st    *telemetry.RunStats // nil when telemetry is off
	count int64
}

// newCliqueCounter allocates a K_q counter on g. st, when non-nil, must
// have at least q levels; the traversal and count do not depend on it.
func newCliqueCounter(g *graph.Graph, q int, stop *atomic.Bool, st *telemetry.RunStats) *cliqueCounter {
	k := &cliqueCounter{g: g, q: q, stop: stop, bufs: make([][]uint32, q), st: st}
	for d := 2; d < q; d++ {
		k.bufs[d] = make([]uint32, 0, g.MaxDegree())
	}
	return k
}

func (k *cliqueCounter) Count() int64               { return k.count }
func (k *cliqueCounter) Stats() *telemetry.RunStats { return k.st }

// RunRoot counts cliques whose v0 lies in the vertex range [start, end).
// The stop flag is probed once per root vertex.
//
//graphpi:deterministic
func (k *cliqueCounter) RunRoot(start, end int) {
	if k.st != nil && end > start {
		k.st.Levels[0].Scan(end-start, 0)
	}
	for v := start; v < end; v++ {
		if k.stop.Load() {
			return
		}
		v0 := uint32(v)
		r1 := k.g.Neighbors(v0)
		c1 := vertexset.Below(r1, v0)
		if k.st != nil {
			k.st.Levels[1].Scan(len(c1), len(r1)-len(c1))
		}
		k.count += k.level(1, c1, c1)
	}
}

// RunRootEdges counts cliques whose (v0, v1) edge lies in the CSR
// adjacency-slot range [start, end), so a hub's adjacency can spread
// across tasks. v1 iterates the range's share of N(v0), while the
// candidates of v2 narrow the full chain below v0. The stop flag is probed
// once per v0.
//
//graphpi:deterministic
func (k *cliqueCounter) RunRootEdges(start, end int) {
	v0 := k.g.SlotOwner(start)
	for start < end {
		if k.stop.Load() {
			return
		}
		_, ve := k.g.AdjSlotRange(v0)
		if ve <= start {
			v0++
			continue
		}
		slotEnd := min(ve, end)
		r1 := k.g.AdjSlots(start, slotEnd)
		e1 := vertexset.Below(r1, v0)
		if k.st != nil {
			k.st.Levels[0].Scan(1, 0)
			k.st.Levels[1].Scan(len(e1), len(r1)-len(e1))
		}
		k.count += k.level(1, e1, vertexset.Below(k.g.Neighbors(v0), v0))
		start = slotEnd
		v0++
	}
}

// level binds v_d to each vertex of cands and narrows left, the full
// candidate chain of level d, to level d+1's candidates. Level q-2, the
// last to bind, adds the size of each narrowed set instead of looping;
// level q-3 runs it inline, as a call per (small) innermost set costs
// several percent. The stats branch traverses and counts identically.
func (k *cliqueCounter) level(d int, cands, left []uint32) int64 {
	var count int64
	g, buf := k.g, k.bufs[d+1]
	if k.st != nil {
		lst, next := &k.st.Levels[d], &k.st.Levels[d+1]
		if d == k.q-2 {
			return leafStats(g, buf, left, cands, lst, next)
		}
		for _, v := range cands {
			buf = cliqueStepStats(buf, left, g, v, lst)
			next.Scan(len(buf), 0)
			if d+1 == k.q-2 {
				count += leafStats(g, k.bufs[d+2], buf, buf, next, &k.st.Levels[d+2])
			} else {
				count += k.level(d+1, buf, buf)
			}
		}
		return count
	}
	if d == k.q-2 {
		for _, v := range cands {
			count += int64(len(cliqueStep(buf, left, g, v)))
		}
		return count
	}
	if d == k.q-3 {
		leaf := k.bufs[d+2]
		for _, v := range cands {
			buf = cliqueStep(buf, left, g, v)
			for _, w := range buf {
				count += int64(len(cliqueStep(leaf, buf, g, w)))
			}
		}
		return count
	}
	for _, v := range cands {
		buf = cliqueStep(buf, left, g, v)
		count += k.level(d+1, buf, buf)
	}
	return count
}

// leafStats is level q-2 with telemetry recorded into lst and next.
func leafStats(g *graph.Graph, dst, left, cands []uint32, lst, next *telemetry.LevelStats) int64 {
	var count int64
	for _, v := range cands {
		dst = cliqueStepStats(dst, left, g, v, lst)
		next.Scan(len(dst), 0)
		count += int64(len(dst))
	}
	return count
}

// cliqueStep narrows one clique level: dst = {u ∈ left : u ∈ N(v), u < v}.
// Because left already holds vertices below every earlier bound vertex of
// the descending chain, the result is exactly the next level's candidate
// set. Hub vertices are probed through their bitmap in O(|left|).
func cliqueStep(dst, left []uint32, g *graph.Graph, v uint32) []uint32 {
	left = vertexset.Below(left, v)
	right := g.Neighbors(v)
	if bm := g.HubBitmap(v); bm != nil && len(left) <= len(right) {
		return vertexset.IntersectBitmap(dst[:0], left, bm)
	}
	return vertexset.Intersect(dst, left, vertexset.Below(right, v))
}

// cliqueStepStats is cliqueStep with telemetry: the Below narrowing counts
// as the binding level's prunes and the intersection is attributed to the
// kernel family actually dispatched. Results are bit-identical.
func cliqueStepStats(dst, left []uint32, g *graph.Graph, v uint32, lst *telemetry.LevelStats) []uint32 {
	nl := vertexset.Below(left, v)
	lst.Prunes += uint64(len(left) - len(nl))
	right := g.Neighbors(v)
	if bm := g.HubBitmap(v); bm != nil && len(nl) <= len(right) {
		lst.Intersect(telemetry.KernelBitmap)
		return vertexset.IntersectBitmap(dst[:0], nl, bm)
	}
	right = vertexset.Below(right, v)
	lst.Intersect(telemetry.ClassifyIntersect(len(nl), len(right), vertexset.GallopRatio))
	return vertexset.Intersect(dst, nl, right)
}
