// Command kernelbench measures the execution-tier compiler: the same
// counting jobs run on the loop-program interpreter, on the runtime-compiled
// closure kernels, and (for total-order-restricted cliques) on the
// generated tier's clique counter — single-core, so the numbers isolate
// kernel quality from scheduling. Counts must be bit-identical across tiers; only the time may
// move. The results land in a JSON report so CI can track the perf
// trajectory across PRs.
//
// Run with:
//
//	go run ./cmd/kernelbench -out BENCH_pr8.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

type result struct {
	Pattern string  `json:"pattern"`
	Tier    string  `json:"tier"` // interpreted | compiled | generated
	IEP     bool    `json:"iep"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
	// Speedup is interpreted_seconds / seconds for the same pattern: 1.0 on
	// the interpreter rows, >1 when a compiled tier wins.
	Speedup float64 `json:"speedup_vs_interpreted"`
}

type report struct {
	Bench     string    `json:"bench"`
	Graph     string    `json:"graph"`
	Vertices  int       `json:"vertices"`
	Edges     int64     `json:"edges"`
	GoMaxProc int       `json:"gomaxprocs"`
	When      time.Time `json:"when"`
	// Speedups maps "pattern/tier" → speedup over the interpreter; the
	// numbers this benchmark exists to watch.
	Speedups map[string]float64 `json:"speedups"`
	Results  []result           `json:"results"`
}

func main() {
	var (
		out  = flag.String("out", "BENCH_pr8.json", "output JSON path")
		n    = flag.Int("n", 30000, "BA graph vertices")
		m    = flag.Int("m", 5, "BA edges per vertex")
		reps = flag.Int("reps", 3, "timed repetitions per cell (best is reported)")
	)
	flag.Parse()

	// The skewed fixture every other benchmark uses, on the optimized view
	// (degree-ordered + hub bitmaps) a resident service would deploy: the
	// bitmap kernel is one of the choices the compiler freezes.
	g := deployedView(graph.BarabasiAlbert(*n, *m, 4242))
	// BA(n, 5) holds few cliques (k4/k5 count 180/33), so those rows time
	// the root scan. The *-planted rows count on a clique-heavy fixture
	// shaped like perfbench's count-hot input, so they time the clique nest.
	pg := deployedView(plantedGraph(8000, 3, 120, 22, 0.9, 4242))
	rep := report{
		Bench: "pr8-kernel-tiers",
		Graph: fmt.Sprintf("BA(n=%d, m=%d, seed=4242) hybrid; *-planted rows: "+
			"BA(8000, 3) + 120 communities of 22 keeping 90%% of pairs, seed 4242, hybrid", *n, *m),
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		GoMaxProc: runtime.GOMAXPROCS(0),
		When:      time.Now().UTC(),
		Speedups:  map[string]float64{},
	}
	fmt.Printf("graph: %s\nplanted: %s\n", g.Stats(), pg.Stats())

	patterns := []struct {
		name string
		p    *pattern.Pattern
		g    *graph.Graph
	}{
		{"house", pattern.House(), g},
		{"pentagon", pattern.Pentagon(), g},
		{"k4", pattern.Clique(4), g},
		{"k5", pattern.Clique(5), g},
		{"k5-planted", pattern.Clique(5), pg},
		{"k6-planted", pattern.Clique(6), pg},
	}
	const useIEP = true
	for _, pc := range patterns {
		g := pc.g
		planned, err := core.Plan(pc.p, g.Stats(), core.PlanOptions{})
		if err != nil {
			log.Fatalf("%s: %v", pc.name, err)
		}
		cfg := planned.Best

		run := func(tier core.Tier) (int64, float64) {
			opt := core.RunOptions{Workers: 1, Tier: tier}
			// One warm-up rep pays the compile (amortized in a resident
			// service by the plan cache) and faults the graph hot.
			count := cfg.CountIEP(g, opt)
			best := 0.0
			for r := 0; r < *reps; r++ {
				start := time.Now()
				if c := cfg.CountIEP(g, opt); c != count {
					log.Fatalf("%s/%s: count drifted between reps: %d != %d", pc.name, tier, c, count)
				}
				if s := time.Since(start).Seconds(); best == 0 || s < best {
					best = s
				}
			}
			return count, best
		}

		want, base := run(core.TierInterpret)
		rep.Results = append(rep.Results, result{
			Pattern: pc.name, Tier: core.TierInterpret.String(), IEP: useIEP,
			Count: want, Seconds: base, Speedup: 1.0,
		})
		fmt.Printf("%-8s %-11s count=%d time=%.3fs\n", pc.name, core.TierInterpret, want, base)

		for _, tier := range []core.Tier{core.TierCompiled, core.TierGenerated} {
			// Skip tiers the configuration cannot satisfy (the generated
			// tier serves only cliques) instead of silently timing the
			// interpreter fallback.
			if cfg.ResolveTier(g, tier, useIEP) != tier {
				continue
			}
			count, secs := run(tier)
			if count != want {
				log.Fatalf("%s/%s: count %d != interpreted %d", pc.name, tier, count, want)
			}
			speedup := base / secs
			key := pc.name + "/" + tier.String()
			rep.Speedups[key] = speedup
			rep.Results = append(rep.Results, result{
				Pattern: pc.name, Tier: tier.String(), IEP: useIEP,
				Count: count, Seconds: secs, Speedup: speedup,
			})
			fmt.Printf("%-8s %-11s count=%d time=%.3fs speedup=%.2fx\n", pc.name, tier, count, secs, speedup)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (speedups: %+v)\n", *out, rep.Speedups)
}

// deployedView returns g degree-ordered with hub bitmaps, the view a
// resident service deploys.
func deployedView(g *graph.Graph) *graph.Graph {
	g = g.Reorder()
	g.BuildHubBitmaps(0, 0)
	return g
}

// plantedGraph returns BA(n, m) plus comms communities of size vertices
// each, on vertices of their own: every member has one edge into the
// background, and a community keeps the fraction keep of its pairs.
func plantedGraph(n, m, comms, size int, keep float64, seed uint64) *graph.Graph {
	ba := graph.BarabasiAlbert(n, m, seed)
	b := graph.NewBuilder(n+comms*size, int(ba.NumEdges())+comms*size*size/2)
	for v := 0; v < n; v++ {
		for _, u := range ba.Neighbors(uint32(v)) {
			if uint32(v) < u {
				b.AddEdge(uint32(v), u)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var pairs [][2]uint32
	for c := 0; c < comms; c++ {
		first := uint32(n + c*size)
		pairs = pairs[:0]
		for i := uint32(0); i < uint32(size); i++ {
			b.AddEdge(first+i, uint32(rng.IntN(n)))
			for j := i + 1; j < uint32(size); j++ {
				pairs = append(pairs, [2]uint32{first + i, first + j})
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs[:int(keep*float64(len(pairs))+0.5)] {
			b.AddEdge(p[0], p[1])
		}
	}
	pg, err := b.Build()
	if err != nil {
		log.Fatalf("planted graph: %v", err)
	}
	return pg
}
