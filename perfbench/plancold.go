package main

import (
	_ "embed"
	"fmt"
	"strings"
	"time"

	"graphpi/internal/baseline"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
)

// motifs6.txt lists every connected 6-vertex pattern up to isomorphism as
// an "n:adjacency" spec, one per line: the CanonicalKey of each member of
// pattern.AllConnected(6), in its order. Enumerating them takes seconds,
// which would otherwise land in set-up.
//
//go:embed motifs6.txt
var motifs6 string

// planColdSizing sizes plan-cold's input graph: n vertices and m edges
// drawn uniformly. A uniform graph keeps the counting share of a pass, and
// so its spread between seeds, small; hubs would make both depend on the
// seed.
type planColdSizing struct{ n, m int }

var planColdSize = planColdSizing{n: 600, m: 1800}

// bruteForceMaxN is the largest pattern whose reference comes from the
// brute-force oracle rather than the GraphZero-planned interpreter.
const bruteForceMaxN = 5

// planCold plans, compiles and counts every connected 6-vertex pattern and
// the paper's P1–P6 from scratch on a tiny sparse graph, so the planner
// does most of the work.
type planCold struct {
	size planColdSizing
	path string
	g    *graph.Graph
	pats []benchPattern
	want []int64
}

func newPlanCold(size planColdSizing) *planCold { return &planCold{size: size} }

// parseMotifs parses the embedded 6-vertex pattern list.
func parseMotifs() ([]benchPattern, error) {
	var out []benchPattern
	for _, spec := range strings.Fields(motifs6) {
		p, err := pattern.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("motifs6.txt: %w", err)
		}
		out = append(out, benchPattern{spec, p.WithName(fmt.Sprintf("motif6-%d", len(out)+1))})
	}
	return out, nil
}

func (w *planCold) input(r *run) error {
	g := graph.GNM(w.size.n, w.size.m, r.seed)
	g.SetName(fmt.Sprintf("gnm-%d-%d-s%d", w.size.n, w.size.m, r.seed))
	var err error
	w.path, err = writeSnapshot(r, g)
	return err
}

func (w *planCold) setup(r *run, parent int) error {
	g, err := loadView(r, w.path, parent)
	if err != nil {
		return err
	}
	pats, err := parseMotifs()
	if err != nil {
		return err
	}
	for i, p := range pattern.EvaluationPatterns() {
		pats = append(pats, benchPattern{fmt.Sprintf("P%d", i+1), p})
	}
	w.g, w.pats = g, pats
	return nil
}

func (w *planCold) teardown() {}

func (w *planCold) reference(r *run) error {
	w.want = w.want[:0]
	for _, bp := range w.pats {
		var want int64
		if bp.pat.N() <= bruteForceMaxN {
			want = baseline.BruteForceCount(w.g, bp.pat)
			r.want[bp.key] = want
		} else {
			var err error
			if want, err = r.expect(bp.key, w.g, bp.pat); err != nil {
				return err
			}
		}
		w.want = append(w.want, want)
	}
	return nil
}

func (w *planCold) pass(r *run, tr *tracer, parent int) []float64 {
	lat := make([]float64, 0, len(w.pats))
	for i, bp := range w.pats {
		t0 := time.Now()
		p, err := planAndCompile(tr, w.g, bp, parent)
		if err != nil {
			r.fail(bp.key, err)
			continue
		}
		got, _ := p.count(r, tr, w.g, tr.newStats(p.cfg.N()), parent)
		lat = append(lat, time.Since(t0).Seconds())
		r.check(bp.key, got, w.want[i])
	}
	return lat
}

func (w *planCold) layers(r *run, m metrics) error {
	plans, local, err := layerProbe(r, w.g, w.pats, m)
	if err != nil {
		return err
	}
	// The service and cluster probes use the paper's P1–P6 only.
	eval := w.pats[len(w.pats)-len(pattern.EvaluationPatterns()):]
	if err := serviceLayer(r, w.g, eval, m); err != nil {
		return err
	}
	return clusterLayer(r, w.path, w.g, plans[len(plans)-len(eval):], local, m)
}
