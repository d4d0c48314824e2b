package core_test

import (
	"math/rand/v2"
	"testing"

	"graphpi/internal/baseline"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// TestRandomizedConfigsMatchOracle anchors the engine to the independent
// brute-force oracle: random graphs, random connected patterns, random
// schedules (eliminated ones too, so CandFull loops run) and generated
// restriction sets — configurations the planner would never pick. Count
// must equal the oracle (times |Aut| without restrictions), CountIEP must
// equal Count, on one worker and on 2–4 edge-parallel workers.
func TestRandomizedConfigsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 17))
	pats := pattern.AllConnected(4)
	pats = append(pats, pattern.AllConnected(5)...)
	for trial := 0; trial < 25; trial++ {
		g := graph.GNM(60+rng.IntN(60), 200+rng.IntN(300), rng.Uint64())
		p := pats[rng.IntN(len(pats))]
		sres := schedule.Generate(p, schedule.Options{KeepEliminated: true})
		scheds := append(append([]schedule.Schedule(nil), sres.Efficient...), sres.Eliminated...)
		s := scheds[rng.IntN(len(scheds))]
		sets, err := restrict.Generate(p, restrict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rs := sets[rng.IntN(len(sets))]
		if rng.IntN(4) == 0 {
			rs = nil // restriction-free: duplicate checks must survive
		}
		cfg, err := core.NewConfig(p, s, rs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The oracle enumerates in pattern-vertex order; an efficient
		// schedule relabels p so every vertex has an earlier neighbour,
		// which keeps the brute force cheap without changing the count.
		want := baseline.BruteForceCount(g, schedule.RelabeledPattern(p, sres.Efficient[0]))
		if rs == nil {
			want *= int64(len(p.Automorphisms()))
		}
		for _, opt := range []core.RunOptions{
			{Workers: 1},
			{Workers: 2 + rng.IntN(3), EdgeParallel: core.EdgeParallelOn},
		} {
			if got := cfg.Count(g, opt); got != want {
				t.Errorf("trial %d %s sched=%v restr=%v workers=%d: Count %d, oracle %d",
					trial, p, s, rs, opt.Workers, got, want)
			}
			if got := cfg.CountIEP(g, opt); got != want {
				t.Errorf("trial %d %s sched=%v restr=%v workers=%d: CountIEP %d, oracle %d",
					trial, p, s, rs, opt.Workers, got, want)
			}
		}
	}
}
