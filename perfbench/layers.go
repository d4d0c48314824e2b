package main

import (
	"fmt"
	"math"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

// benchPattern is one pattern a workload runs, under the key its reference
// count is recorded by.
type benchPattern struct {
	key string
	pat *pattern.Pattern
}

// planned is a pattern after the plan and compile layers.
type planned struct {
	benchPattern
	cfg        *core.Config
	tier       core.Tier // the tier counting runs on
	candidates int       // configurations the planner ranked
	compileS   float64   // time of the first compile
}

// planPattern plans bp from scratch (no plan cache) on g's statistics.
func planPattern(tr *tracer, g *graph.Graph, bp benchPattern, parent int) (*planned, error) {
	sp := tr.begin("plan", parent)
	res, err := core.Plan(bp.pat, g.Stats(), core.PlanOptions{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("planning %s: %w", bp.key, err)
	}
	return &planned{
		benchPattern: bp,
		cfg:          res.Best,
		tier:         core.TierInterpret,
		candidates:   res.NumSchedules * res.NumRestrictionSets,
	}, nil
}

// compile resolves the tier counting will run on and compiles the plan for
// it, the way the engine does on the first count.
func (p *planned) compile(tr *tracer, g *graph.Graph, parent int) {
	tier := p.cfg.ResolveTier(g, core.TierAuto, true)
	if tier == core.TierInterpret {
		return
	}
	sp := tr.begin("compile", parent)
	t0 := time.Now()
	_, err := p.cfg.CompileTier(g, true, tier)
	p.compileS = time.Since(t0).Seconds()
	tr.end(sp)
	if err == nil { // on error the engine falls back to the interpreter too
		p.tier = tier
	}
}

// planAndCompile is planPattern followed by compile.
func planAndCompile(tr *tracer, g *graph.Graph, bp benchPattern, parent int) (*planned, error) {
	p, err := planPattern(tr, g, bp, parent)
	if err != nil {
		return nil, err
	}
	p.compile(tr, g, parent)
	return p, nil
}

// count runs the IEP count of a plan on all workers, with st as the
// optional per-level stats sink, as an "exec" span.
func (p *planned) count(r *run, tr *tracer, g *graph.Graph, st *telemetry.RunStats, parent int) (int64, float64) {
	sp := tr.begin("exec", parent)
	t0 := time.Now()
	n := p.cfg.CountIEP(g, core.RunOptions{Workers: r.workers, Stats: st})
	d := time.Since(t0).Seconds()
	tr.end(sp)
	return n, d
}

// patternLayers is the trace-file record of one pattern's layer probe.
type patternLayers struct {
	Workload      string                       `json:"workload"`
	Pattern       string                       `json:"pattern"`
	Tier          string                       `json:"tier"`
	Candidates    int                          `json:"plan_candidates"`
	ExecS         float64                      `json:"exec_s"`
	ScanCands     uint64                       `json:"exec_candidates"`
	Intersections uint64                       `json:"exec_intersections"`
	Kernels       [telemetry.NumKernels]uint64 `json:"exec_kernels"` // merge, gallop, bitmap, aux
	IEPCounts     uint64                       `json:"exec_iep_counts"`
	Prunes        uint64                       `json:"exec_prunes"`
	Drift         float64                      `json:"plan_drift"`
	GraphPiS      float64                      `json:"graphpi_exec_s"`
	GraphZeroS    float64                      `json:"graphzero_exec_s"`
	GraphZeroDone bool                         `json:"graphzero_finished"`
}

// graphZeroBudget bounds a GraphZero-planned count at this multiple of the
// GraphPi-planned one (plus graphZeroSlack); a count that runs out is left
// out of the ratio.
const (
	graphZeroBudget = 12
	graphZeroSlack  = time.Second
)

// layerProbe measures the plan, compile and exec layers on each distinct
// pattern of a workload: a cold plan, the first compile, one count with a
// stats sink, the drift of that count against the cost model, and the
// GraphZero planner's configuration counted on the same tier machinery.
// It returns the plans and each pattern's untraced local count time.
func layerProbe(r *run, g *graph.Graph, pats []benchPattern, m metrics) ([]*planned, map[string]float64, error) {
	var (
		plans          []*planned
		local          = map[string]float64{}
		cands          int
		tiers          = map[core.Tier]int{}
		compileS       float64
		execS, gzS, gp float64
		drifts         []float64
		tot            patternLayers
	)
	for _, bp := range pats {
		want, ok := r.want[bp.key]
		if !ok {
			return nil, nil, fmt.Errorf("no reference for %s", bp.key)
		}
		sp := r.tr.begin("probe", 0)
		p, err := planAndCompile(r.tr, g, bp, sp)
		if err != nil {
			r.tr.end(sp)
			return nil, nil, err
		}
		plans = append(plans, p)
		cands += p.candidates
		compileS += p.compileS
		tiers[p.tier]++
		rec := patternLayers{Workload: r.workload, Pattern: bp.key, Tier: p.tier.String(), Candidates: p.candidates}

		st := r.tr.newStats(p.cfg.N())
		got, d := p.count(r, r.tr, g, st, sp)
		r.check("probe "+bp.key, got, want)
		rec.ExecS = d
		execS += d
		for _, l := range st.Levels {
			rec.ScanCands += l.Candidates
			rec.Intersections += l.Intersections
			for k := range l.Kernels {
				rec.Kernels[k] += l.Kernels[k]
			}
			rec.IEPCounts += l.IEPCounts
			rec.Prunes += l.Prunes
		}
		if dr, ok := p.cfg.DriftReport(true, st); ok && dr.OverallRatio > 0 && !math.IsInf(dr.OverallRatio, 0) {
			rec.Drift = dr.OverallRatio
			drifts = append(drifts, dr.OverallRatio)
		}

		// The GraphZero arm: the same engine, tiers and IEP, planned by
		// the reproduced GraphZero pipeline instead.
		got, rec.GraphPiS = p.count(r, nil, g, nil, 0)
		r.check("probe graphpi "+bp.key, got, want)
		local[bp.key] = rec.GraphPiS
		gsp := r.tr.begin("plan.graphzero", sp)
		gz, err := core.PlanGraphZero(bp.pat, g.Stats())
		r.tr.end(gsp)
		if err != nil {
			r.tr.end(sp)
			return nil, nil, fmt.Errorf("graphzero plan of %s: %w", bp.key, err)
		}
		gsp = r.tr.begin("exec.graphzero", sp)
		t0 := time.Now()
		budget := time.Duration(graphZeroBudget*rec.GraphPiS*float64(time.Second)) + graphZeroSlack
		got, done := gz.Best.CountIEPTimed(g, core.RunOptions{Workers: r.workers, Budget: budget})
		rec.GraphZeroS = time.Since(t0).Seconds()
		r.tr.end(gsp)
		if rec.GraphZeroDone = done; done {
			r.check("probe graphzero "+bp.key, got, want)
			gzS += rec.GraphZeroS
			gp += rec.GraphPiS
		}
		r.tr.end(sp)
		r.note(rec)
		tot.ScanCands += rec.ScanCands
		tot.Intersections += rec.Intersections
		for k := range tot.Kernels {
			tot.Kernels[k] += rec.Kernels[k]
		}
		tot.IEPCounts += rec.IEPCounts
		tot.Prunes += rec.Prunes
	}
	plansS := r.tr.durations("plan")
	m["plan.p50_s"] = median(plansS)
	m["plan.max_s"] = quantile(plansS, 1)
	m["plan.candidates"] = float64(cands)
	m["plan.graphzero_ratio"] = ratio(gzS, gp)
	m["plan.drift"] = median(drifts)
	m["compile.s"] = compileS
	m["compile.tier.generated"] = float64(tiers[core.TierGenerated])
	m["compile.tier.compiled"] = float64(tiers[core.TierCompiled])
	m["compile.tier.interpret"] = float64(tiers[core.TierInterpret])
	m["exec.s"] = execS
	m["exec.candidates"] = float64(tot.ScanCands)
	m["exec.intersections"] = float64(tot.Intersections)
	m["exec.kernel.merge"] = float64(tot.Kernels[telemetry.KernelMerge])
	m["exec.kernel.gallop"] = float64(tot.Kernels[telemetry.KernelGallop])
	m["exec.kernel.bitmap"] = float64(tot.Kernels[telemetry.KernelBitmap])
	m["exec.kernel.aux"] = float64(tot.Kernels[telemetry.KernelAux])
	m["exec.iep_counts"] = float64(tot.IEPCounts)
	m["exec.prune_ratio"] = ratio(float64(tot.Prunes), float64(tot.Prunes+tot.ScanCands))
	return plans, local, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
