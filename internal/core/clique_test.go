package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// countCliques runs one K_q clique counter over consecutive task ranges
// [cuts[i], cuts[i+1]): vertex ranges, or adjacency-slot ranges when edges.
func countCliques(g *graph.Graph, q int, edges bool, cuts []int, stop *atomic.Bool, st *telemetry.RunStats) int64 {
	k := newCliqueCounter(g, q, stop, st)
	for i := 0; i+1 < len(cuts); i++ {
		if edges {
			k.RunRootEdges(cuts[i], cuts[i+1])
		} else {
			k.RunRoot(cuts[i], cuts[i+1])
		}
	}
	return k.Count()
}

func binom(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

// disjointCliques builds a disjoint union of complete graphs, so every
// clique count has the closed form Σ C(size, q).
func disjointCliques(t *testing.T, sizes ...int) *graph.Graph {
	t.Helper()
	total := 0
	for _, s := range sizes {
		total += s
	}
	b := graph.NewBuilder(total, 0)
	base := 0
	for _, s := range sizes {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.AddEdge(uint32(base+i), uint32(base+j))
			}
		}
		base += s
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// midChainCut returns an adjacency slot that splits the below-v0 part of
// the adjacency of the vertex with the most lower neighbours — the cut
// inside a hub's adjacency that the edge root must sum across.
func midChainCut(g *graph.Graph) int {
	below := func(v uint32) int { return len(vertexset.Below(g.Neighbors(v), v)) }
	var hub uint32
	for v := uint32(0); v < uint32(g.NumVertices()); v++ {
		if below(v) > below(hub) {
			hub = v
		}
	}
	s, _ := g.AdjSlotRange(hub)
	return s + below(hub)/2
}

func TestCliqueCounterPlantedCounts(t *testing.T) {
	sizes := []int{14, 9, 5, 3}
	g := disjointCliques(t, sizes...)
	var stop atomic.Bool
	for q := MinClique; q <= MaxClique; q++ {
		var want int64
		for _, s := range sizes {
			want += binom(s, q)
		}
		if got := countCliques(g, q, false, []int{0, g.NumVertices()}, &stop, nil); got != want {
			t.Errorf("K%d: vertex root counted %d, want %d", q, got, want)
		}
		if got := countCliques(g, q, true, []int{0, g.NumAdjSlots()}, &stop, nil); got != want {
			t.Errorf("K%d: edge root counted %d, want %d", q, got, want)
		}
	}
}

// TestCliqueCounterRangeSplit sums the counter over split ranges —
// including a cut through the middle of a hub's adjacency for the edge
// root — and over a bitmap-accelerated view of the same graph.
func TestCliqueCounterRangeSplit(t *testing.T) {
	g := graph.BarabasiAlbert(500, 6, 99)
	gBM := graph.BarabasiAlbert(500, 6, 99)
	gBM.BuildHubBitmaps(1<<24, 8)
	var stop atomic.Bool
	n, m, cut := g.NumVertices(), g.NumAdjSlots(), midChainCut(g)
	if s, e := g.AdjSlotRange(g.SlotOwner(cut)); cut == s || cut == e {
		t.Fatalf("cut %d does not split an adjacency", cut)
	}
	for q := MinClique; q <= 6; q++ {
		whole := countCliques(g, q, false, []int{0, n}, &stop, nil)
		if whole == 0 {
			t.Fatalf("K%d: fixture has no cliques", q)
		}
		if split := countCliques(g, q, false, []int{0, 17, 123, n}, &stop, nil); split != whole {
			t.Errorf("K%d: split vertex ranges sum to %d, whole %d", q, split, whole)
		}
		if esplit := countCliques(g, q, true, []int{0, 1, cut, cut + 1, m}, &stop, nil); esplit != whole {
			t.Errorf("K%d: split edge ranges sum to %d, whole %d", q, esplit, whole)
		}
		if got := countCliques(gBM, q, false, []int{0, n}, &stop, nil); got != whole {
			t.Errorf("K%d: bitmap view counted %d, want %d", q, got, whole)
		}
		if got := countCliques(gBM, q, true, []int{0, cut, m}, &stop, nil); got != whole {
			t.Errorf("K%d: bitmap view edge root counted %d, want %d", q, got, whole)
		}
	}
}

func TestCliqueCounterStop(t *testing.T) {
	g := disjointCliques(t, 12, 12)
	var stop atomic.Bool
	stop.Store(true)
	if got := countCliques(g, 4, false, []int{0, g.NumVertices()}, &stop, nil); got != 0 {
		t.Errorf("stopped vertex root counted %d, want 0", got)
	}
	if got := countCliques(g, 4, true, []int{0, g.NumAdjSlots()}, &stop, nil); got != 0 {
		t.Errorf("stopped edge root counted %d, want 0", got)
	}
}

// TestCliqueCounterSizeBounds pins the clique sizes the generated tier
// serves: K2 is not detected and a forced generated compile refuses it,
// while both ends of [MinClique, MaxClique] are detected.
func TestCliqueCounterSizeBounds(t *testing.T) {
	cfg := cliqueConfig(t, MinClique-1)
	if cfg.cliqueQ != 0 {
		t.Errorf("K%d detected as a generated-tier clique", MinClique-1)
	}
	if _, err := cfg.CompileTier(graph.Complete(4), false, TierGenerated); err == nil {
		t.Errorf("K%d compiled on the generated tier", MinClique-1)
	}
	for _, q := range []int{MinClique, MaxClique} {
		if cfg := cliqueConfig(t, q); cfg.cliqueQ != q {
			t.Errorf("K%d not detected (cliqueQ=%d)", q, cfg.cliqueQ)
		}
	}
}

// statsFixture is a Barabási–Albert background with four planted, nearly
// complete 14-vertex communities, degree-ordered, with bitmaps on the
// hubs of degree ≥ 24 only, so the clique levels dispatch merge, gallop
// and bitmap intersections alike.
func statsFixture(t *testing.T) *graph.Graph {
	t.Helper()
	base := graph.BarabasiAlbert(400, 4, 7)
	const comms, size = 4, 14
	b := graph.NewBuilder(base.NumVertices(), int(base.NumEdges())+comms*size*size/2)
	for v := 0; v < base.NumVertices(); v++ {
		for _, u := range base.Neighbors(uint32(v)) {
			if uint32(v) < u {
				b.AddEdge(uint32(v), u)
			}
		}
	}
	for c := 0; c < comms; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if (i*size+j)%7 == 3 {
					continue
				}
				b.AddEdge(uint32(c+23*i), uint32(c+23*j))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g = g.Reorder()
	g.BuildHubBitmaps(1<<24, 24)
	return g
}

// TestCliqueCounterStatsGolden pins every per-level telemetry counter of
// K3..K6 on both roots to the values the per-size generated kernels
// recorded on the same fixture. The counters are deterministic, so any
// drift in scans, candidates, prunes or kernel dispatch fails here.
func TestCliqueCounterStatsGolden(t *testing.T) {
	g := statsFixture(t)
	n, m := g.NumVertices(), g.NumAdjSlots()
	// Levels 0 and 1 depend on the root, not on q. Levels 2..4 read the
	// same for every q that binds them; the leaf level only scans.
	vertexL0 := "scans=2 cand=400 max=267 prunes=0 isect=0 kernels=[0 0 0 0]"
	edgeL0 := "scans=402 cand=402 max=1 prunes=0 isect=0 kernels=[0 0 0 0]"
	vertexL1 := "scans=400 cand=1895 max=15 prunes=8182 isect=1895 kernels=[1111 73 711 0]"
	edgeL1 := "scans=402 cand=1895 max=14 prunes=8182 isect=1895 kernels=[1111 73 711 0]"
	inner := []string{
		2: "scans=1895 cand=1634 max=11 prunes=4435 isect=1634 kernels=[563 43 1028 0]",
		3: "scans=1634 cand=2496 max=10 prunes=6648 isect=2496 kernels=[991 29 1476 0]",
		4: "scans=2496 cand=3785 max=9 prunes=8626 isect=3785 kernels=[1233 55 2497 0]",
	}
	leaf := []string{
		3: "scans=1895 cand=1634 max=11 prunes=0 isect=0 kernels=[0 0 0 0]",
		4: "scans=1634 cand=2496 max=10 prunes=0 isect=0 kernels=[0 0 0 0]",
		5: "scans=2496 cand=3785 max=9 prunes=0 isect=0 kernels=[0 0 0 0]",
		6: "scans=3785 cand=4333 max=8 prunes=0 isect=0 kernels=[0 0 0 0]",
	}
	counts := []int64{3: 1634, 4: 2496, 5: 3785, 6: 4333}
	var stop atomic.Bool
	for q := 3; q <= 6; q++ {
		for _, edges := range []bool{false, true} {
			want := []string{vertexL0, vertexL1}
			cuts := []int{0, n / 3, n}
			if edges {
				want = []string{edgeL0, edgeL1}
				cuts = []int{0, 1, midChainCut(g), m}
			}
			want = append(append(want, inner[2:q-1]...), leaf[q])
			st := telemetry.NewRunStats(q)
			if got := countCliques(g, q, edges, cuts, &stop, st); got != counts[q] {
				t.Errorf("K%d edges=%v: counted %d, want %d", q, edges, got, counts[q])
			}
			for d, l := range st.Levels {
				got := fmt.Sprintf("scans=%d cand=%d max=%d prunes=%d isect=%d kernels=%v",
					l.Scans, l.Candidates, l.CandMax, l.Prunes, l.Intersections, l.Kernels)
				if got != want[d] {
					t.Errorf("K%d edges=%v level %d:\n got %s\nwant %s", q, edges, d, got, want[d])
				}
			}
		}
	}
}
