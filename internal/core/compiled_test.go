package core

import (
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/telemetry"
)

// chainSet builds the total-order restriction chain id(v1)>id(v0),
// id(v2)>id(v1), ... — a valid complete restriction set for cliques.
func chainSet(n int) restrict.Set {
	var s restrict.Set
	for i := 1; i < n; i++ {
		s = append(s, restrict.Restriction{First: uint8(i), Second: uint8(i - 1)})
	}
	return s
}

// cliqueConfig builds K_q with the identity schedule and the chain set,
// bypassing the planner (whose schedule search is factorial in q).
func cliqueConfig(t *testing.T, q int) *Config {
	t.Helper()
	return mustConfig(t, pattern.Clique(q), identitySchedule(q), chainSet(q))
}

// matrixCompare counts under every (tier, workers, edge-parallel) cell and
// compares against the single-worker interpreter. Each tier also runs one
// cell with telemetry enabled: collection must leave the count bit-identical
// and must actually populate the per-level counters.
func matrixCompare(t *testing.T, name string, cfg *Config, g *graph.Graph, tiers []Tier, useIEP bool) {
	t.Helper()
	count := func(opt RunOptions) int64 {
		if useIEP {
			return cfg.CountIEP(g, opt)
		}
		return cfg.Count(g, opt)
	}
	want := count(RunOptions{Workers: 1, Tier: TierInterpret})
	for _, tier := range tiers {
		for _, workers := range []int{1, 4} {
			for _, ep := range []EdgeParallelMode{EdgeParallelOff, EdgeParallelAuto, EdgeParallelOn} {
				got := count(RunOptions{Workers: workers, EdgeParallel: ep, Tier: tier})
				if got != want {
					t.Errorf("%s iep=%v tier=%s workers=%d edgePar=%d: counted %d, interpreter %d",
						name, useIEP, tier, workers, ep, got, want)
				}
			}
		}
		st := telemetry.NewRunStats(cfg.N())
		if got := count(RunOptions{Workers: 4, Tier: tier, Stats: st}); got != want {
			t.Errorf("%s iep=%v tier=%s with telemetry: counted %d, interpreter %d",
				name, useIEP, tier, got, want)
		}
		if st.Levels[0].Scans == 0 {
			t.Errorf("%s iep=%v tier=%s: telemetry run recorded no level-0 scans", name, useIEP, tier)
		}
	}
}

// TestTierMatrixNamedPatterns runs the paper's evaluation patterns
// through the auto tier × workers × scheduling matrix on plain and
// bitmap-accelerated graphs, against the single-worker interpreter.
func TestTierMatrixNamedPatterns(t *testing.T) {
	g := graph.BarabasiAlbert(250, 4, 7)
	gHub := graph.BarabasiAlbert(250, 4, 7)
	gHub.BuildHubBitmaps(1<<24, 8)
	pats := []*pattern.Pattern{
		pattern.P1(), pattern.P2(), pattern.P3(), pattern.P4(), pattern.P5(),
		pattern.Cycle6Tri(), pattern.CliqueMinus(6),
	}
	if !testing.Short() {
		pats = append(pats, pattern.P6())
	}
	for _, p := range pats {
		res, err := Plan(p, g.Stats(), PlanOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cfg := res.Best
		for _, gg := range []*graph.Graph{g, gHub} {
			for _, useIEP := range []bool{false, true} {
				matrixCompare(t, p.Name(), cfg, gg, []Tier{TierAuto}, useIEP)
			}
		}
	}
}

// TestGeneratedCliqueTierMatrix covers the full generated suite k3..k12:
// a Barabási–Albert background with a planted K13 overlapping it, so every
// kernel counts something nonzero and the interpreter sees the same graph.
func TestGeneratedCliqueTierMatrix(t *testing.T) {
	base := graph.BarabasiAlbert(160, 4, 21)
	b := graph.NewBuilder(base.NumVertices(), int(base.NumEdges())+100)
	for v := 0; v < base.NumVertices(); v++ {
		for _, w := range base.Neighbors(uint32(v)) {
			if uint32(v) < w {
				b.AddEdge(uint32(v), w)
			}
		}
	}
	// Plant a K13 across existing vertices (edges overlap the BA edges).
	for i := 0; i < 13; i++ {
		for j := i + 1; j < 13; j++ {
			b.AddEdge(uint32(i*7), uint32(j*7))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gHub := g
	if g2, err2 := b.Build(); err2 == nil {
		g2.BuildHubBitmaps(1<<24, 8)
		gHub = g2
	}
	for q := 3; q <= 12; q++ {
		cfg := cliqueConfig(t, q)
		if cfg.cliqueQ != q {
			t.Fatalf("K%d chain config did not detect a generated kernel (cliqueQ=%d)", q, cfg.cliqueQ)
		}
		tiers := []Tier{TierAuto, TierGenerated}
		for _, gg := range []*graph.Graph{g, gHub} {
			matrixCompare(t, cfg.Pattern.Name(), cfg, gg, tiers, false)
			if q <= maxIEPExactnessN {
				matrixCompare(t, cfg.Pattern.Name(), cfg, gg, tiers, true)
			}
		}
	}
}

// TestTierResolution pins the auto-selection and fallback rules.
func TestTierResolution(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, 3)
	k4 := cliqueConfig(t, 4)
	res, err := Plan(pattern.House(), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	house := res.Best
	// Every tier value, the retired one included: only auto and generated
	// reach the clique counter, and only for a clique; everything else
	// interprets and is no compiled tier.
	for tier := TierAuto; tier <= TierGenerated+1; tier++ {
		compiled := tier == TierAuto || tier == TierGenerated
		want := TierInterpret
		if compiled {
			want = TierGenerated
		}
		if got := k4.ResolveTier(g, tier, false); got != want {
			t.Errorf("K4 tier %s resolves to %s, want %s", tier, got, want)
		}
		if _, err := k4.CompileTier(g, false, tier); (err == nil) != compiled {
			t.Errorf("K4 CompileTier(%s) error = %v, want error %v", tier, err, !compiled)
		}
		if got := house.ResolveTier(g, tier, true); got != TierInterpret {
			t.Errorf("House tier %s resolves to %s, want interpreted", tier, got)
		}
		if _, err := house.CompileTier(g, true, tier); err == nil {
			t.Errorf("House CompileTier(%s): want error", tier)
		}
	}
	if _, err := ParseTier("compiled"); err == nil {
		t.Error(`ParseTier("compiled") accepted the retired tier`)
	}
}
