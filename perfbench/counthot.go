package main

import (
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// countHotSizing sizes count-hot's input graph (see plantedGraph).
type countHotSizing struct {
	n, m, comms, members int
	keep                 float64
}

// A pass takes about 0.1 s on two workers, so a window holds enough passes
// for op_p90_s to have ten beyond it.
var countHotSize = countHotSizing{n: 2000, m: 3, comms: 30, members: 22, keep: 0.9}

// countHot counts four pre-planned patterns per pass with IEP on every
// worker: cliques on the generated tier and house/K23 on the compiled
// tier. Execution does nearly all the work; planning does none.
type countHot struct {
	size  countHotSizing
	path  string
	pats  []benchPattern
	g     *graph.Graph
	plans []*planned
	want  []int64
}

func newCountHot(size countHotSizing) *countHot {
	return &countHot{size: size, pats: []benchPattern{
		{"k5", pattern.Clique(5)},
		{"k6", pattern.Clique(6)},
		{"house", pattern.P1()},
		{"k23", pattern.P4()},
	}}
}

func (w *countHot) input(r *run) error {
	s := w.size
	g, err := plantedGraph(s.n, s.m, s.comms, s.members, s.keep, r.seed)
	if err != nil {
		return err
	}
	w.path, err = writeSnapshot(r, g)
	return err
}

func (w *countHot) setup(r *run, parent int) error {
	g, err := loadView(r, w.path, parent)
	if err != nil {
		return err
	}
	w.g, w.plans = g, nil
	for _, bp := range w.pats {
		p, err := planAndCompile(r.tr, g, bp, parent)
		if err != nil {
			return err
		}
		w.plans = append(w.plans, p)
	}
	return nil
}

func (w *countHot) teardown() {}

func (w *countHot) reference(r *run) error {
	w.want = w.want[:0]
	for _, bp := range w.pats {
		want, err := r.expect(bp.key, w.g, bp.pat)
		if err != nil {
			return err
		}
		w.want = append(w.want, want)
	}
	return nil
}

// pass counts the four patterns. The operation is the whole pass: the
// median of a four-pattern mix would fall in the gap between the cliques
// and house/K23, and single-pattern times are per-layer metrics.
func (w *countHot) pass(r *run, tr *tracer, parent int) []float64 {
	t0 := time.Now()
	for i, p := range w.plans {
		got, _ := p.count(r, tr, w.g, tr.newStats(p.cfg.N()), parent)
		r.check(p.key, got, w.want[i])
	}
	return []float64{time.Since(t0).Seconds()}
}

func (w *countHot) layers(r *run, m metrics) error {
	plans, local, err := layerProbe(r, w.g, w.pats, m)
	if err != nil {
		return err
	}
	if err := serviceLayer(r, w.g, w.pats, m); err != nil {
		return err
	}
	return clusterLayer(r, w.path, w.g, plans, local, m)
}
