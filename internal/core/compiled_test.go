package core

import (
	"math/rand/v2"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
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

// TestCompiledTierMatrixNamedPatterns runs the paper's evaluation patterns
// through the full tier × workers × scheduling matrix on plain and
// bitmap-accelerated graphs.
func TestCompiledTierMatrixNamedPatterns(t *testing.T) {
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
				matrixCompare(t, p.Name(), cfg, gg, []Tier{TierAuto, TierCompiled}, useIEP)
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
		tiers := []Tier{TierAuto, TierCompiled, TierGenerated}
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
	if got := k4.ResolveTier(g, TierAuto, false); got != TierGenerated {
		t.Errorf("K4 auto tier = %s, want generated", got)
	}
	if got := k4.ResolveTier(g, TierCompiled, false); got != TierCompiled {
		t.Errorf("K4 compiled tier = %s, want compiled", got)
	}
	if got := k4.ResolveTier(g, TierInterpret, false); got != TierInterpret {
		t.Errorf("K4 interpret tier = %s, want interpreted", got)
	}
	res, err := Plan(pattern.House(), g.Stats(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	house := res.Best
	if got := house.ResolveTier(g, TierAuto, true); got != TierCompiled {
		t.Errorf("House auto tier = %s, want compiled", got)
	}
	// House has no generated kernel: explicit requests must fall back.
	if got := house.ResolveTier(g, TierGenerated, false); got != TierInterpret {
		t.Errorf("House generated tier resolves to %s, want interpreted fallback", got)
	}
	if _, err := house.CompileTier(g, false, TierGenerated); err == nil {
		t.Error("CompileTier(TierGenerated) on House: want error")
	}
	if _, err := house.CompileTier(g, false, TierInterpret); err == nil {
		t.Error("CompileTier(TierInterpret): want error")
	}
}

// TestCompileMemoised pins that repeated counting runs reuse the same
// compiled kernel (the service's hot-hit path relies on this).
func TestCompileMemoised(t *testing.T) {
	g := graph.BarabasiAlbert(50, 3, 3)
	cfg := cliqueConfig(t, 4)
	cp1, err := cfg.Compile(g, false)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := cfg.Compile(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp1 != cp2 {
		t.Error("Compile built a second kernel for the same (graph, IEP, tier)")
	}
	cp3, err := cfg.CompileTier(g, false, TierCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if cp3 == cp1 {
		t.Error("different tiers share one memo entry")
	}
}

// TestCompiledRandomizedConfigs is the property test: random graphs,
// random connected patterns, random valid schedules with the generated
// restriction sets — every tier must agree with the interpreter, including
// configurations the planner would never pick.
func TestCompiledRandomizedConfigs(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 17))
	pats := pattern.AllConnected(4)
	pats = append(pats, pattern.AllConnected(5)...)
	for trial := 0; trial < 25; trial++ {
		g := graph.GNM(60+rng.IntN(60), 200+rng.IntN(300), rng.Uint64())
		p := pats[rng.IntN(len(pats))]
		sres := schedule.Generate(p, schedule.Options{KeepEliminated: true})
		// Include eliminated schedules too: their CandFull loops exercise
		// the compiled full-scan path the planner never picks.
		scheds := append(append([]schedule.Schedule(nil), sres.Efficient...), sres.Eliminated...)
		s := scheds[rng.IntN(len(scheds))]
		sets, err := restrict.Generate(p, restrict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rs := sets[rng.IntN(len(sets))]
		if rng.IntN(4) == 0 {
			rs = nil // restriction-free: duplicate checks must survive compilation
		}
		cfg, err := NewConfig(p, s, rs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, useIEP := range []bool{false, true} {
			count := func(tier Tier, workers int) int64 {
				opt := RunOptions{Workers: workers, Tier: tier}
				if useIEP {
					return cfg.CountIEP(g, opt)
				}
				return cfg.Count(g, opt)
			}
			want := count(TierInterpret, 1)
			for _, tier := range []Tier{TierAuto, TierCompiled} {
				if got := count(tier, 1+rng.IntN(4)); got != want {
					t.Errorf("trial %d %s sched=%v restr=%v iep=%v tier=%s: %d, interpreter %d",
						trial, p, s, rs, useIEP, tier, got, want)
				}
			}
		}
	}
}
