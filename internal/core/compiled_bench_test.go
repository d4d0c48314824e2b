package core

import (
	"fmt"
	"testing"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// BenchmarkTiers compares the execution tiers single-core on the skewed
// hybrid fixture — the numbers kernelbench tracks across PRs, in a form
// `go test -bench` and pprof can chew on.
func BenchmarkTiers(b *testing.B) {
	g := graph.BarabasiAlbert(12000, 5, 4242).Reorder()
	g.BuildHubBitmaps(0, 0)
	pats := []struct {
		name string
		p    *pattern.Pattern
	}{
		{"house", pattern.House()},
		{"pentagon", pattern.Pentagon()},
		{"k5", pattern.Clique(5)},
	}
	for _, pc := range pats {
		res, err := Plan(pc.p, g.Stats(), PlanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := res.Best
		for _, tier := range []Tier{TierInterpret, TierGenerated} {
			if cfg.ResolveTier(g, tier, true) != tier {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", pc.name, tier), func(b *testing.B) {
				opt := RunOptions{Workers: 1, Tier: tier}
				for i := 0; i < b.N; i++ {
					cfg.CountIEP(g, opt)
				}
			})
		}
	}
}
