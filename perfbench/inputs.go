package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"

	"graphpi/internal/auxgraph"
	"graphpi/internal/graph"
)

// plantedGraph is count-hot's input: a Barabási–Albert background (n
// vertices, m edges per new vertex) plus comms planted communities of size
// members each, on vertices of their own, each member tied to one random
// background vertex. A community keeps exactly keep of its member pairs,
// chosen at random, so every seed plants the same dense structure up to
// which pairs are missing, and the clique work varies little between seeds.
func plantedGraph(n, m, comms, size int, keep float64, seed uint64) (*graph.Graph, error) {
	ba := graph.BarabasiAlbert(n, m, seed)
	total := n + comms*size
	b := graph.NewBuilder(total, int(ba.NumEdges())+comms*size*size/2)
	for v := 0; v < n; v++ {
		for _, u := range ba.Neighbors(uint32(v)) {
			if uint32(v) < u {
				b.AddEdge(uint32(v), u)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	pairs := make([][2]uint32, 0, size*(size-1)/2)
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
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("building planted graph: %w", err)
	}
	g.SetName(fmt.Sprintf("planted-%d-%d-%dx%d-s%d", n, m, comms, size, seed))
	return g, nil
}

// baGraph is the Barabási–Albert input of the other workloads.
func baGraph(n, m int, seed uint64) *graph.Graph {
	g := graph.BarabasiAlbert(n, m, seed)
	g.SetName(fmt.Sprintf("ba-%d-%d-s%d", n, m, seed))
	return g
}

// writeSnapshot saves a workload's input as a GPiCSR snapshot in the run
// directory and returns its path. Writing the snapshot is input
// generation, not set-up: the program under test starts from the file.
func writeSnapshot(r *run, g *graph.Graph) (string, error) {
	path := filepath.Join(r.dir, fmt.Sprintf("input-%s-%d.gpi", r.workload, r.seed))
	if err := graph.SaveBinaryFile(path, g); err != nil {
		return "", fmt.Errorf("writing snapshot: %w", err)
	}
	return path, nil
}

// loadView is the deployed view's set-up: load the snapshot, order it by
// degree, then build hub bitmaps from the hub share of the default view
// budget (aux pruning stays at its default, off). Each step is a span
// under parent.
func loadView(r *run, path string, parent int) (*graph.Graph, error) {
	sp := r.tr.begin("graph.load", parent)
	g, err := graph.LoadAnyFile(path)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("graph.reorder", parent)
	og := g.Reorder()
	r.tr.end(sp)
	sp = r.tr.begin("graph.hubs", parent)
	split := auxgraph.PlanBudget(0, og.NumVertices(), r.workers, 1)
	og.BuildHubBitmaps(split.HubBytes, 0)
	r.tr.end(sp)
	return og, nil
}
