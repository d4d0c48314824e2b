package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/iep"
	"graphpi/internal/schedule"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// EdgeParallelMode selects how the outermost loops are parallelized.
type EdgeParallelMode uint8

const (
	// EdgeParallelAuto (the default) uses edge-parallel root scheduling
	// whenever the schedule is eligible and more than one worker runs.
	EdgeParallelAuto EdgeParallelMode = iota
	// EdgeParallelOn forces edge-parallel roots whenever eligible.
	EdgeParallelOn
	// EdgeParallelOff always chunks the outer loop by vertex ranges.
	EdgeParallelOff
)

// RunOptions controls the execution of a compiled configuration.
type RunOptions struct {
	// Workers is the number of goroutines (< 1 → GOMAXPROCS). The result
	// is identical regardless of worker count.
	Workers int
	// ChunkSize is the number of outermost-loop vertices per scheduled
	// task (< 1 → an adaptive default). Smaller chunks balance power-law
	// skew at slightly higher scheduling cost (paper §IV-E, fine-grained
	// task partitioning). Under edge-parallel scheduling the granularity
	// is scaled by the average degree so the task count stays comparable.
	ChunkSize int
	// EdgeParallel selects the root scheduling discipline. When the
	// schedule's second loop iterates N(v0), the first two loops flatten
	// into a sweep over CSR edge slots, making work units proportional to
	// edges instead of vertices — a single hub can no longer serialize a
	// whole chunk (paper §IV-E's skew problem). Auto enables it for
	// multi-worker runs on eligible schedules.
	EdgeParallel EdgeParallelMode
	// Budget, when positive, aborts the run cooperatively once exceeded
	// (the experiment harness's equivalent of the paper's 48-hour "T"
	// cutoff). Use the *Timed variants to learn whether a run completed.
	Budget time.Duration
	// Context, when non-nil, cancels the run cooperatively: every worker
	// observes cancellation at its next outer-loop vertex (or edge-slot
	// group) boundary and returns, so taskpool goroutines are freed within
	// one chunk even when the full search would run for minutes. A
	// cancelled run reports complete=false from the *Timed variants; use
	// the *Ctx methods to get the context error directly.
	Context context.Context
	// Tier selects the execution tier for counting runs (see Tier).
	// TierAuto picks generated > runtime-compiled; enumeration and runs a
	// compiled tier cannot host fall back to the interpreter. Counts are
	// bit-identical across tiers, so the choice is purely about speed.
	Tier Tier
	// Stats, when non-nil, enables per-level telemetry: every worker
	// records into a private shard and the shards are merged into Stats
	// when the run returns. The counts themselves are bit-identical with
	// and without Stats; the disabled path pays one nil check per
	// candidate scan. Allocate with telemetry.NewRunStats(cfg.N()).
	Stats *telemetry.RunStats
}

func (o RunOptions) chunk(n, workers int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	// Aim for ~64 tasks per worker so stealing/self-scheduling can smooth
	// out skewed vertices, without degenerating to per-vertex dispatch.
	return taskpool.AdaptiveChunk(n, workers, 64, 1, 1024)
}

// edgeChunk sizes edge-parallel tasks: ~64 per worker, floored so the
// scheduling cursor is not hammered, capped so skew still spreads. An
// explicit ChunkSize stays in vertex units and is scaled by the average
// degree, so one option tunes both disciplines comparably.
func (o RunOptions) edgeChunk(m, nv, workers int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize * avgSlotsPerVertex(m, nv)
	}
	return taskpool.AdaptiveChunk(m, workers, 64, 16, 65536)
}

// avgSlotsPerVertex returns the mean directed degree (>= 1), the factor that
// converts a vertex-unit chunk size into an equivalent slot-unit one.
func avgSlotsPerVertex(m, nv int) int {
	if nv <= 0 {
		return 1
	}
	if avg := m / nv; avg > 1 {
		return avg
	}
	return 1
}

// Count returns the number of embeddings of the configuration's pattern by
// enumerating the full loop nest (no IEP). If the restriction set is
// complete, each embedding is counted exactly once; with an empty set the
// result counts every automorphic image (|Aut| per embedding).
//
//graphpi:deterministic
func (c *Config) Count(g *graph.Graph, opt RunOptions) int64 {
	n, _ := c.execute(g, opt, false, nil)
	return n
}

// CountTimed is Count with an explicit completion flag: complete is false
// when opt.Budget expired before the search finished (the partial tally is
// still returned).
func (c *Config) CountTimed(g *graph.Graph, opt RunOptions) (count int64, complete bool) {
	return c.execute(g, opt, false, nil)
}

// CountIEPTimed is CountIEP with a completion flag.
func (c *Config) CountIEPTimed(g *graph.Graph, opt RunOptions) (count int64, complete bool) {
	return c.execute(g, opt, true, nil)
}

// CountIEP counts embeddings using the Inclusion-Exclusion Principle over
// the configuration's independent innermost loops (paper §IV-D). Results
// equal Count for complete restriction sets, typically far faster.
//
//graphpi:deterministic
func (c *Config) CountIEP(g *graph.Graph, opt RunOptions) int64 {
	n, _ := c.execute(g, opt, true, nil)
	return n
}

// ErrBudgetExceeded reports that a *Ctx run was aborted by RunOptions.Budget
// rather than by its context.
var ErrBudgetExceeded = errors.New("core: run budget exceeded")

// ctxErr maps a run's outcome to the error the *Ctx methods return: the
// context's error when it was cancelled, ErrBudgetExceeded when the budget
// timer aborted the run, nil only when the run truly completed.
func ctxErr(ctx context.Context, complete bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !complete {
		return ErrBudgetExceeded
	}
	return nil
}

// CountCtx is Count under a context: the run stops cooperatively when ctx
// is cancelled and the (partial) tally is returned alongside ctx's error.
// A nil error means the count ran to completion and is exact.
func (c *Config) CountCtx(ctx context.Context, g *graph.Graph, opt RunOptions) (int64, error) {
	opt.Context = ctx
	n, complete := c.execute(g, opt, false, nil)
	return n, ctxErr(ctx, complete)
}

// CountIEPCtx is CountIEP under a context (see CountCtx).
func (c *Config) CountIEPCtx(ctx context.Context, g *graph.Graph, opt RunOptions) (int64, error) {
	opt.Context = ctx
	n, complete := c.execute(g, opt, true, nil)
	return n, ctxErr(ctx, complete)
}

// EnumerateCtx is Enumerate under a context: cancellation stops every worker
// at its next boundary and no further visits happen after that point. The
// returned tally counts the visits that did happen; the error is ctx's.
func (c *Config) EnumerateCtx(ctx context.Context, g *graph.Graph, opt RunOptions, visit func([]uint32) bool) (int64, error) {
	opt.Context = ctx
	n, complete := c.execute(g, opt, false, visit)
	return n, ctxErr(ctx, complete)
}

// Enumerate invokes visit for every embedding found. The slice passed to
// visit is indexed by original pattern vertex and reused between calls —
// copy it to retain. Embeddings are reported in original vertex ids even on
// a Reorder()ed graph. visit may be invoked concurrently from different
// workers when opt.Workers > 1; returning false stops the enumeration.
// Enumerate returns the number of embeddings visited (if stopped early, the
// tally reflects the visits that happened).
func (c *Config) Enumerate(g *graph.Graph, opt RunOptions, visit func([]uint32) bool) int64 {
	n, _ := c.execute(g, opt, false, visit)
	return n
}

// EdgeParallelEligible reports whether the first two loops can be flattened
// into an edge sweep: depth 1 must iterate N(v0) and must not already be
// consumed by the IEP suffix. External runtimes (the simulated cluster)
// use it to decide whether Counter.CountEdgeRange tasks are available.
func (c *Config) EdgeParallelEligible(useIEP bool) bool {
	if c.n < 2 {
		return false
	}
	if useIEP && c.effectiveIEPK() >= c.n-1 {
		return false // IEP takes over right after depth 0
	}
	cand := c.plan.Cand[1]
	return cand.Kind == schedule.CandNeighborhood && cand.Parent == 0
}

func (c *Config) execute(g *graph.Graph, opt RunOptions, useIEP bool, visit func([]uint32) bool) (int64, bool) {
	nv := g.NumVertices()
	if nv == 0 {
		return 0, true
	}
	workers := taskpool.Workers(opt.Workers)
	// Tier resolution: counting runs prefer a compiled tier; enumeration
	// and compile failures (an explicit TierGenerated for a non-clique, a
	// spec the lowering rejects) fall back to the interpreter.
	var comp *Compiled
	if visit == nil && opt.Tier != TierInterpret {
		comp, _ = c.CompileTier(g, useIEP, opt.Tier)
	}
	var stop, aborted atomic.Bool
	if opt.Budget > 0 {
		timer := time.AfterFunc(opt.Budget, func() {
			aborted.Store(true)
			stop.Store(true)
		})
		defer timer.Stop()
	}
	if ctx := opt.Context; ctx != nil {
		if ctx.Err() != nil {
			return 0, false
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				aborted.Store(true)
				stop.Store(true)
			case <-watchDone:
			}
		}()
	}
	eligible := c.EdgeParallelEligible(useIEP)
	if comp != nil {
		eligible = comp.edgeOK
	}
	edgePar := eligible &&
		opt.EdgeParallel != EdgeParallelOff &&
		(opt.EdgeParallel == EdgeParallelOn || workers > 1)
	if comp != nil {
		total := c.runCompiled(comp, g, opt, workers, nv, edgePar, &stop)
		return total, !aborted.Load()
	}
	runners := make([]*runner, workers)
	body := func(run func(r *runner, rg taskpool.Range)) func(int, taskpool.Range) {
		return func(w int, rg taskpool.Range) {
			if stop.Load() {
				return
			}
			r := runners[w]
			if r == nil {
				r = newRunner(c, g, useIEP, visit, &stop)
				if opt.Stats != nil {
					r.st = telemetry.NewRunStats(c.n)
				}
				runners[w] = r
			}
			run(r, rg)
		}
	}
	if edgePar {
		m := g.NumAdjSlots()
		taskpool.Run(workers, m, opt.edgeChunk(m, nv, workers),
			body(func(r *runner, rg taskpool.Range) { r.runRootEdges(rg.Start, rg.End) }))
	} else {
		taskpool.Run(workers, nv, opt.chunk(nv, workers),
			body(func(r *runner, rg taskpool.Range) { r.runRoot(rg.Start, rg.End) }))
	}
	var total int64
	for _, r := range runners {
		if r != nil {
			total += r.count
			opt.Stats.Merge(r.st)
		}
	}
	if useIEP && c.effectiveIEPK() >= 1 {
		total = total * c.iepNum / c.iepDen
	}
	return total, !aborted.Load()
}

// runCompiled executes a compiled tier under the same scheduling and
// cancellation machinery as the interpreter: per-worker state, the shared
// stop flag probed at outer-loop boundaries, vertex- or edge-parallel root
// tasks. The raw tally is scaled by the compilation's own correction — the
// clique counter counts finals directly, IEP-compiled closures carry the
// configuration's over-count factors.
//
//graphpi:deterministic
func (c *Config) runCompiled(comp *Compiled, g *graph.Graph, opt RunOptions, workers, nv int, edgePar bool, stop *atomic.Bool) int64 {
	states := make([]compiledState, workers)
	body := func(w int, rg taskpool.Range) {
		if stop.Load() {
			return
		}
		s := states[w]
		if s == nil {
			var st *telemetry.RunStats
			if opt.Stats != nil {
				st = telemetry.NewRunStats(c.n)
			}
			if comp.tier == TierGenerated {
				s = newCliqueCounter(g, c.cliqueQ, stop, st)
			} else {
				cs := comp.kern.NewState(stop)
				cs.SetStats(st)
				s = cs
			}
			states[w] = s
		}
		if edgePar {
			s.RunRootEdges(rg.Start, rg.End)
		} else {
			s.RunRoot(rg.Start, rg.End)
		}
	}
	if edgePar {
		m := g.NumAdjSlots()
		taskpool.Run(workers, m, opt.edgeChunk(m, nv, workers), body)
	} else {
		taskpool.Run(workers, nv, opt.chunk(nv, workers), body)
	}
	var total int64
	for _, s := range states {
		if s != nil {
			total += s.Count()
			opt.Stats.Merge(s.Stats())
		}
	}
	return total * comp.scaleNum / comp.scaleDen
}

// compiledState is one worker's execution state on a compiled tier: the
// clique counter or a runtime-compiled kernel's codegen.State.
type compiledState interface {
	RunRoot(start, end int)
	RunRootEdges(start, end int)
	Count() int64
	Stats() *telemetry.RunStats
}

// effectiveIEPK returns the IEP suffix actually usable at run time (0 when
// the pattern has a single vertex or the schedule admits no suffix).
func (c *Config) effectiveIEPK() int {
	if c.n < 2 {
		return 0
	}
	return c.kIEP
}

// Counter is the task-execution primitive for external runtimes (the
// simulated cluster): it runs the configuration over explicit outermost-loop
// vertex ranges and accumulates a raw tally. One Counter per goroutine.
type Counter struct {
	r      *runner
	useIEP bool
}

// NewCounter creates a Counter bound to a configuration and graph.
func NewCounter(cfg *Config, g *graph.Graph, useIEP bool) *Counter {
	return &Counter{r: newRunner(cfg, g, useIEP, nil, nil), useIEP: useIEP}
}

// NewCounterStop is NewCounter with a shared stop flag: once stop becomes
// true the Counter abandons its current range at the next outer-loop
// boundary and every later CountRange/CountEdgeRange call returns
// immediately. A stopped Counter's tally is partial — the flag exists so an
// external runtime (a cluster worker whose master disconnected, a cancelled
// service job) can free its workers without finishing dead work.
func NewCounterStop(cfg *Config, g *graph.Graph, useIEP bool, stop *atomic.Bool) *Counter {
	return &Counter{r: newRunner(cfg, g, useIEP, nil, stop), useIEP: useIEP}
}

// CountRange processes outer-loop vertices [start, end) and adds matches to
// the internal tally.
func (c *Counter) CountRange(start, end int) {
	c.r.runRoot(start, end)
}

// CountEdgeRange processes the CSR adjacency slots [start, end) — the
// edge-parallel task shape. Only valid when the configuration is
// EdgeParallelEligible; the caller must cover every slot exactly once.
func (c *Counter) CountEdgeRange(start, end int) {
	if start < end {
		c.r.runRootEdges(start, end)
	}
}

// Raw returns the accumulated tally, before any IEP scaling.
func (c *Counter) Raw() int64 { return c.r.count }

// ScaleIEP converts a raw tally summed over IEP-enabled Counters into the
// final embedding count.
func (c *Config) ScaleIEP(raw int64) int64 {
	if c.effectiveIEPK() >= 1 {
		return raw * c.iepNum / c.iepDen
	}
	return raw
}

// runner is the per-worker execution state: bound vertices, intersection
// buffers and the IEP calculator. A runner is single-goroutine.
type runner struct {
	cfg   *Config
	g     *graph.Graph
	bound []uint32
	bufs  [][]uint32
	visit func([]uint32) bool
	emb   []uint32
	orig  []uint32 // new→old id map of a reordered graph; nil = identity
	stop  *atomic.Bool
	count int64
	st    *telemetry.RunStats // nil when telemetry is disabled

	hasHubs bool
	useIEP  bool
	iepCut  int // depth after which IEP takes over; -1 when disabled
	calc    *iep.Calculator
	iepSets [][]uint32
	iepBMs  []vertexset.Bitmap
}

func newRunner(cfg *Config, g *graph.Graph, useIEP bool, visit func([]uint32) bool, stop *atomic.Bool) *runner {
	r := &runner{
		cfg:     cfg,
		g:       g,
		bound:   make([]uint32, cfg.n),
		bufs:    make([][]uint32, cfg.plan.NumBufs),
		visit:   visit,
		orig:    g.NewToOld(),
		stop:    stop,
		hasHubs: g.NumHubs() > 0,
		iepCut:  -1,
	}
	maxDeg := g.MaxDegree()
	for i := range r.bufs {
		r.bufs[i] = make([]uint32, 0, maxDeg)
	}
	if visit != nil {
		r.emb = make([]uint32, cfg.n)
	}
	if k := cfg.effectiveIEPK(); useIEP && k >= 1 {
		r.useIEP = true
		r.iepCut = cfg.n - k - 1
		r.calc = iep.NewCalculator(k)
		r.iepSets = make([][]uint32, k)
		if r.hasHubs {
			r.iepBMs = make([]vertexset.Bitmap, k)
		}
	}
	return r
}

// runRoot executes the outermost loop over the vertex range [start, end).
func (r *runner) runRoot(start, end int) {
	if lst := r.st.Level(0); lst != nil && end > start {
		lst.Scan(end-start, 0)
	}
	n := r.cfg.n
	for v := start; v < end; v++ {
		if r.stop != nil && r.stop.Load() {
			return
		}
		r.bound[0] = uint32(v)
		switch {
		case n == 1:
			r.leaf()
		case r.iepCut == 0:
			r.runSteps(0)
			r.count += r.iepCount()
		default:
			r.runSteps(0)
			r.run(1)
		}
	}
}

// runRootEdges executes the flattened first two loops over the CSR slot
// range [start, end). Each slot is one directed edge (v0, w); tasks are
// therefore proportional to edges, so a hub's adjacency spreads across many
// tasks instead of serializing the chunk that owns the hub.
func (r *runner) runRootEdges(start, end int) {
	g := r.g
	v := g.SlotOwner(start)
	for start < end {
		if r.stop != nil && r.stop.Load() {
			return
		}
		_, ve := g.AdjSlotRange(v)
		if ve <= start {
			v++ // zero-degree vertex or finished adjacency
			continue
		}
		stop := ve
		if stop > end {
			stop = end
		}
		r.bound[0] = v
		if lst := r.st.Level(0); lst != nil {
			lst.Scan(1, 0)
		}
		r.runSteps(0)
		r.runList(1, g.AdjSlots(start, stop))
		start = stop
		v++
	}
}

// window returns the restriction window for the loop at depth: candidates
// must be > lo (when hasLo) and < hi. Taking the max lower bound and min
// upper bound covers every restriction attached to this depth.
func (r *runner) window(depth int) (lo uint32, hasLo bool, hi uint32) {
	cfg := r.cfg
	for _, p := range cfg.lowers[depth] {
		if b := r.bound[p]; !hasLo || b > lo {
			lo, hasLo = b, true
		}
	}
	hi = uint32(maxUint32)
	for _, p := range cfg.uppers[depth] {
		if b := r.bound[p]; b < hi {
			hi = b
		}
	}
	return lo, hasLo, hi
}

// run executes the loop at the given depth (1 ≤ depth ≤ n-1).
func (r *runner) run(depth int) {
	cand := r.cfg.plan.Cand[depth]
	switch cand.Kind {
	case schedule.CandFull:
		// Unconstrained loop over all data vertices (only inefficient
		// schedules reach this: Figure 9 measures them too).
		r.runFull(depth)
	case schedule.CandNeighborhood:
		r.runList(depth, r.g.Neighbors(r.bound[cand.Parent]))
	default:
		r.runList(depth, r.bufs[cand.Buf])
	}
}

// runList executes the loop at depth over an explicit sorted candidate set.
func (r *runner) runList(depth int, cands []uint32) {
	cfg := r.cfg
	raw := len(cands)
	lo, hasLo, hi := r.window(depth)
	if hi != maxUint32 {
		cands = vertexset.Below(cands, hi)
	}
	if hasLo {
		cands = vertexset.Above(cands, lo)
	}
	lst := r.st.Level(depth)
	if lst != nil {
		lst.Scan(len(cands), raw-len(cands))
		defer lst.ScanTimerEnd(lst.ScanTimerStart())
	}
	isLeaf := depth == cfg.n-1
	atCut := depth == r.iepCut
	// dupCheck lists only the earlier positions whose distinctness is not
	// already implied by candidate provenance or the restriction window —
	// usually none, so the O(depth) scan of the seed engine disappears.
	dup := cfg.dupCheck[depth]
next:
	for _, v := range cands {
		for _, p := range dup {
			if r.bound[p] == v {
				if lst != nil {
					lst.DupSkips++
				}
				continue next
			}
		}
		r.bound[depth] = v
		switch {
		case isLeaf:
			r.leaf()
			if r.stop != nil && r.stop.Load() {
				return
			}
		case atCut:
			r.runSteps(depth)
			r.count += r.iepCount()
		default:
			r.runSteps(depth)
			r.run(depth + 1)
			if r.stop != nil && r.stop.Load() {
				return
			}
		}
	}
}

// runFull is the CandFull variant of runList: candidates are all data
// vertices inside the restriction window.
func (r *runner) runFull(depth int) {
	lo, hasLo, hi := r.window(depth)
	start := 0
	if hasLo {
		start = int(lo) + 1
	}
	end := r.g.NumVertices()
	if hi != maxUint32 && int(hi) < end {
		end = int(hi)
	}
	lst := r.st.Level(depth)
	if lst != nil {
		size := end - start
		if size < 0 {
			size = 0
		}
		lst.Scan(size, r.g.NumVertices()-size)
		defer lst.ScanTimerEnd(lst.ScanTimerStart())
	}
	isLeaf := depth == r.cfg.n-1
	atCut := depth == r.iepCut
	dup := r.cfg.dupCheck[depth]
next:
	for vi := start; vi < end; vi++ {
		v := uint32(vi)
		for _, p := range dup {
			if r.bound[p] == v {
				if lst != nil {
					lst.DupSkips++
				}
				continue next
			}
		}
		r.bound[depth] = v
		switch {
		case isLeaf:
			r.leaf()
			if r.stop != nil && r.stop.Load() {
				return
			}
		case atCut:
			r.runSteps(depth)
			r.count += r.iepCount()
		default:
			r.runSteps(depth)
			r.run(depth + 1)
			if r.stop != nil && r.stop.Load() {
				return
			}
		}
	}
}

// runSteps executes the intersections hoisted to this depth, picking the
// kernel per step: when either input is a hub adjacency with a precomputed
// bitmap and the other side is smaller, the O(|small|) bitmap probe replaces
// the scalar merge/gallop.
func (r *runner) runSteps(depth int) {
	lst := r.st.Level(depth)
	for _, stp := range r.cfg.plan.Steps[depth] {
		var left []uint32
		var leftBM vertexset.Bitmap
		if stp.LeftBuf >= 0 {
			left = r.bufs[stp.LeftBuf]
		} else {
			lp := r.bound[stp.LeftParent]
			left = r.g.Neighbors(lp)
			if r.hasHubs {
				leftBM = r.g.HubBitmap(lp)
			}
		}
		rv := r.bound[stp.Depth]
		right := r.g.Neighbors(rv)
		out := r.bufs[stp.Out][:0]
		if r.hasHubs {
			if bm := r.g.HubBitmap(rv); bm != nil && len(left) <= len(right) {
				if lst != nil {
					lst.Intersect(telemetry.KernelBitmap)
				}
				r.bufs[stp.Out] = vertexset.IntersectBitmap(out, left, bm)
				continue
			}
			if leftBM != nil && len(right) < len(left) {
				if lst != nil {
					lst.Intersect(telemetry.KernelBitmap)
				}
				r.bufs[stp.Out] = vertexset.IntersectBitmap(out, right, leftBM)
				continue
			}
		}
		if lst != nil {
			lst.Intersect(telemetry.ClassifyIntersect(len(left), len(right), vertexset.GallopRatio))
		}
		r.bufs[stp.Out] = vertexset.Intersect(out, left, right)
	}
}

// leaf records one embedding, translating back to original vertex ids when
// the data graph is a degree-ordered relabeling.
func (r *runner) leaf() {
	r.count++
	if r.visit == nil {
		return
	}
	if r.orig != nil {
		for i, v := range r.bound {
			r.emb[r.cfg.order[i]] = r.orig[v]
		}
	} else {
		for i, v := range r.bound {
			r.emb[r.cfg.order[i]] = v
		}
	}
	if !r.visit(r.emb) {
		r.stop.Store(true)
	}
}

// iepCount computes the inclusion–exclusion count of the innermost k loops
// given the currently bound outer prefix (paper Figure 6: |S_IEP|). Hub
// neighborhoods among the candidate sets contribute their bitmaps so the
// calculator's internal intersections can use the bitmap kernel.
func (r *runner) iepCount() int64 {
	cfg := r.cfg
	k := len(r.iepSets)
	base := cfg.n - k
	if lst := r.st.Level(base - 1); lst != nil {
		lst.IEPCounts++
	}
	for i := 0; i < k; i++ {
		cand := cfg.plan.Cand[base+i]
		switch cand.Kind {
		case schedule.CandNeighborhood:
			p := r.bound[cand.Parent]
			r.iepSets[i] = r.g.Neighbors(p)
			if r.iepBMs != nil {
				r.iepBMs[i] = r.g.HubBitmap(p)
			}
		case schedule.CandBuffer:
			r.iepSets[i] = r.bufs[cand.Buf]
			if r.iepBMs != nil {
				r.iepBMs[i] = nil
			}
		default:
			// A disconnected inner vertex would need the whole vertex
			// set; connected patterns never produce this.
			panic("core: IEP inner loop with full candidate set")
		}
	}
	if r.iepBMs != nil {
		return r.calc.CountHybrid(r.iepSets, r.iepBMs, r.bound[:base])
	}
	return r.calc.Count(r.iepSets, r.bound[:base])
}
