package codegen

import (
	"sync/atomic"

	"graphpi/internal/graph"
	"graphpi/internal/iep"
	"graphpi/internal/schedule"
	"graphpi/internal/telemetry"
	"graphpi/internal/vertexset"
)

// maxUint32 is the open upper limit used when no restriction bounds a loop.
const maxUint32 = 1<<32 - 1

// Kernel is a Program compiled against one data graph: a chain of per-level
// closures with the specialization decisions (window shape, duplicate
// checks, kernel choice, leaf monomorphization) resolved once at build time
// instead of per iteration. A Kernel is immutable and shared by every
// worker; the mutable execution state lives in State.
type Kernel struct {
	prog    *Program
	g       *graph.Graph
	hasHubs bool
	n       int

	// root runs the loop nest below one bound root vertex (bound[0] set).
	root func(*State)
	// steps0 runs the (rare) intersections hoisted to depth 0.
	steps0 func(*State)
	// scan1 runs the depth-1 loop over an explicit candidate slice — the
	// entry point for edge-parallel slot groups. nil when depth 1 is not
	// a list scan (or the nest ends at the root).
	scan1 func(*State, []uint32)
	// iepFn computes the IEP suffix count for the bound prefix.
	iepFn func(*State) int64
}

// State is one worker's execution state for a Kernel: bound vertices,
// intersection buffers, tally and the IEP calculator. Single-goroutine.
type State struct {
	k     *Kernel
	g     *graph.Graph
	nv    int
	bound []uint32
	bufs  [][]uint32
	stop  *atomic.Bool
	count int64
	st    *telemetry.RunStats // nil when telemetry is disabled

	calc    *iep.Calculator
	iepSets [][]uint32
	iepBMs  []vertexset.Bitmap
}

// Compile binds a lowered Program to a data graph, building the closure
// chain. The chain is constructed innermost-out so every level captures its
// successor directly — no per-iteration dispatch survives to run time.
//
//graphpi:deterministic
func Compile(prog *Program, g *graph.Graph) *Kernel {
	k := &Kernel{
		prog:    prog,
		g:       g,
		hasHubs: g.NumHubs() > 0,
		n:       prog.N,
	}
	if prog.IEPCut >= 0 {
		k.iepFn = k.compileIEP()
	}
	// The deepest level actually executed: the IEP cut when present.
	last := prog.N - 1
	if prog.IEPCut >= 0 {
		last = prog.IEPCut
	}
	// entries[d] executes the whole loop at depth d (fetch + scan);
	// scans[d] is the scan half, for callers that supply the candidates.
	entries := make([]func(*State), prog.N)
	var scan1 func(*State, []uint32)
	for d := last; d >= 1; d-- {
		lv := prog.Levels[d]
		var next func(*State)
		if d < last {
			next = entries[d+1]
		}
		if lv.Cand.Kind == schedule.CandFull {
			entries[d] = k.compileFull(lv, next)
			continue
		}
		scan := k.compileScan(lv, next)
		if d == 1 {
			scan1 = scan
		}
		entries[d] = k.compileEntry(lv, scan)
	}
	k.steps0 = k.compileSteps(prog.Levels[0].Steps, 0)
	switch {
	case prog.N == 1:
		// RunRoot short-circuits; no chain to build.
	case prog.IEPCut == 0:
		// RunRoot already ran steps0; IEP consumes everything after the
		// root (no depth-1 scan exists, matching EdgeParallelEligible's
		// refusal).
		iepFn := k.iepFn
		k.root = func(s *State) { s.count += iepFn(s) }
	default:
		k.root = entries[1]
		k.scan1 = scan1
	}
	return k
}

// NewState allocates one worker's execution state. stop may be nil; when
// set, a true value makes the runs below return at the next outer-loop
// boundary with a partial tally.
func (k *Kernel) NewState(stop *atomic.Bool) *State {
	s := &State{
		k:     k,
		g:     k.g,
		nv:    k.g.NumVertices(),
		bound: make([]uint32, k.n),
		bufs:  make([][]uint32, k.prog.NumBufs),
		stop:  stop,
	}
	maxDeg := k.g.MaxDegree()
	for i := range s.bufs {
		s.bufs[i] = make([]uint32, 0, maxDeg)
	}
	if k.prog.IEPCut >= 0 {
		s.calc = iep.NewCalculator(k.prog.KIEP)
		s.iepSets = make([][]uint32, k.prog.KIEP)
		if k.hasHubs {
			s.iepBMs = make([]vertexset.Bitmap, k.prog.KIEP)
		}
	}
	return s
}

// EdgeCapable reports whether RunRootEdges may be used (the nest has a
// depth-1 list scan not consumed by the IEP suffix).
func (k *Kernel) EdgeCapable() bool { return k.scan1 != nil }

// Count returns the raw tally accumulated so far (before IEP scaling).
func (s *State) Count() int64 { return s.count }

// SetStats enables per-level telemetry for this worker state; the closures
// record into it when non-nil. Stats returns the shard for merging (nil when
// telemetry was never enabled). Counts are bit-identical either way.
func (s *State) SetStats(st *telemetry.RunStats) { s.st = st }
func (s *State) Stats() *telemetry.RunStats      { return s.st }

// RunRoot executes the outermost loop over the vertex range [start, end).
//
//graphpi:deterministic
func (s *State) RunRoot(start, end int) {
	k := s.k
	if lst := s.st.Level(0); lst != nil && end > start {
		lst.Scan(end-start, 0)
	}
	if k.n == 1 {
		if s.stop != nil && s.stop.Load() {
			return
		}
		s.count += int64(end - start)
		return
	}
	steps0, root := k.steps0, k.root
	for v := start; v < end; v++ {
		if s.stop != nil && s.stop.Load() {
			return
		}
		s.bound[0] = uint32(v)
		if steps0 != nil {
			steps0(s)
		}
		root(s)
	}
}

// RunRootEdges executes the flattened first two loops over the CSR slot
// range [start, end). Only valid when EdgeCapable; the caller must cover
// every slot exactly once.
//
//graphpi:deterministic
func (s *State) RunRootEdges(start, end int) {
	k := s.k
	g := s.g
	steps0, scan1 := k.steps0, k.scan1
	lst := s.st.Level(0)
	v := g.SlotOwner(start)
	for start < end {
		if s.stop != nil && s.stop.Load() {
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
		s.bound[0] = v
		if lst != nil {
			lst.Scan(1, 0)
		}
		if steps0 != nil {
			steps0(s)
		}
		scan1(s, g.AdjSlots(start, stop))
		start = stop
		v++
	}
}

// compileEntry wires a list level's candidate fetch to its scan.
func (k *Kernel) compileEntry(lv Level, scan func(*State, []uint32)) func(*State) {
	if lv.Cand.Kind == schedule.CandNeighborhood {
		parent := lv.Cand.Parent
		return func(s *State) { scan(s, s.g.Neighbors(s.bound[parent])) }
	}
	buf := lv.Cand.Buf
	return func(s *State) { scan(s, s.bufs[buf]) }
}

// compileScan builds the loop body of one list level, specialized on its
// role (leaf / IEP cut / interior) and on whether duplicate checks survive.
// The leaf of a counting run monomorphizes to a single length add — the
// interpreter's per-candidate bind, leaf call and stop probe all vanish.
func (k *Kernel) compileScan(lv Level, next func(*State)) func(*State, []uint32) {
	narrow := compileNarrow(lv.Lowers, lv.Uppers)
	steps := k.compileSteps(lv.Steps, lv.Depth)
	dup := lv.Dup
	d := lv.Depth
	switch {
	case lv.IsLeaf && len(dup) == 0:
		if narrow == nil {
			return func(s *State, cands []uint32) {
				if lst := s.st.Level(d); lst != nil {
					lst.Scan(len(cands), 0)
				}
				s.count += int64(len(cands))
			}
		}
		return func(s *State, cands []uint32) {
			raw := len(cands)
			cands = narrow(s, cands)
			if lst := s.st.Level(d); lst != nil {
				lst.Scan(len(cands), raw-len(cands))
			}
			s.count += int64(len(cands))
		}
	case lv.IsLeaf:
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			lst := s.st.Level(d)
			if lst != nil {
				lst.Scan(len(cands), raw-len(cands))
			}
		nextCand:
			for _, v := range cands {
				for _, p := range dup {
					if s.bound[p] == v {
						if lst != nil {
							lst.DupSkips++
						}
						continue nextCand
					}
				}
				s.count++
			}
		}
	case lv.AtCut:
		iepFn := k.iepFn
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			lst := s.st.Level(d)
			if lst != nil {
				lst.Scan(len(cands), raw-len(cands))
				defer lst.ScanTimerEnd(lst.ScanTimerStart())
			}
		nextCand:
			for _, v := range cands {
				for _, p := range dup {
					if s.bound[p] == v {
						if lst != nil {
							lst.DupSkips++
						}
						continue nextCand
					}
				}
				s.bound[d] = v
				if steps != nil {
					steps(s)
				}
				s.count += iepFn(s)
			}
		}
	case len(dup) == 0:
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			if lst := s.st.Level(d); lst != nil {
				lst.Scan(len(cands), raw-len(cands))
				defer lst.ScanTimerEnd(lst.ScanTimerStart())
			}
			for _, v := range cands {
				s.bound[d] = v
				if steps != nil {
					steps(s)
				}
				next(s)
				if s.stop != nil && s.stop.Load() {
					return
				}
			}
		}
	default:
		return func(s *State, cands []uint32) {
			raw := len(cands)
			if narrow != nil {
				cands = narrow(s, cands)
			}
			lst := s.st.Level(d)
			if lst != nil {
				lst.Scan(len(cands), raw-len(cands))
				defer lst.ScanTimerEnd(lst.ScanTimerStart())
			}
		nextCand:
			for _, v := range cands {
				for _, p := range dup {
					if s.bound[p] == v {
						if lst != nil {
							lst.DupSkips++
						}
						continue nextCand
					}
				}
				s.bound[d] = v
				if steps != nil {
					steps(s)
				}
				next(s)
				if s.stop != nil && s.stop.Load() {
					return
				}
			}
		}
	}
}

// compileFull builds the loop body of a CandFull level: a sweep over the
// whole vertex range inside the restriction window (only inefficient
// schedules reach this).
func (k *Kernel) compileFull(lv Level, next func(*State)) func(*State) {
	bounds := compileWindow(lv.Lowers, lv.Uppers)
	steps := k.compileSteps(lv.Steps, lv.Depth)
	dup := lv.Dup
	d := lv.Depth
	iepFn := k.iepFn
	atCut := lv.AtCut
	isLeaf := lv.IsLeaf
	if isLeaf && len(dup) == 0 {
		return func(s *State) {
			start, end := bounds(s)
			if lst := s.st.Level(d); lst != nil {
				size := end - start
				if size < 0 {
					size = 0
				}
				lst.Scan(size, s.nv-size)
			}
			if end > start {
				s.count += int64(end - start)
			}
		}
	}
	return func(s *State) {
		start, end := bounds(s)
		lst := s.st.Level(d)
		if lst != nil {
			size := end - start
			if size < 0 {
				size = 0
			}
			lst.Scan(size, s.nv-size)
			defer lst.ScanTimerEnd(lst.ScanTimerStart())
		}
	nextCand:
		for vi := start; vi < end; vi++ {
			v := uint32(vi)
			for _, p := range dup {
				if s.bound[p] == v {
					if lst != nil {
						lst.DupSkips++
					}
					continue nextCand
				}
			}
			switch {
			case isLeaf:
				s.count++
			case atCut:
				s.bound[d] = v
				if steps != nil {
					steps(s)
				}
				s.count += iepFn(s)
			default:
				s.bound[d] = v
				if steps != nil {
					steps(s)
				}
				next(s)
				if s.stop != nil && s.stop.Load() {
					return
				}
			}
		}
	}
}

// compileNarrow bakes the restriction window into a candidate-slice
// narrowing closure reading fixed bound positions — no per-iteration window
// scan. nil means the level is unrestricted.
func compileNarrow(lowers, uppers []uint8) func(*State, []uint32) []uint32 {
	switch {
	case len(lowers) == 0 && len(uppers) == 0:
		return nil
	case len(lowers) == 0 && len(uppers) == 1:
		p := uppers[0]
		return func(s *State, c []uint32) []uint32 {
			return vertexset.Below(c, s.bound[p])
		}
	case len(lowers) == 1 && len(uppers) == 0:
		p := lowers[0]
		return func(s *State, c []uint32) []uint32 {
			return vertexset.Above(c, s.bound[p])
		}
	case len(lowers) == 1 && len(uppers) == 1:
		lp, up := lowers[0], uppers[0]
		return func(s *State, c []uint32) []uint32 {
			return vertexset.Above(vertexset.Below(c, s.bound[up]), s.bound[lp])
		}
	default:
		return func(s *State, c []uint32) []uint32 {
			lo, hasLo, hi := windowOf(s, lowers, uppers)
			if hi != maxUint32 {
				c = vertexset.Below(c, hi)
			}
			if hasLo {
				c = vertexset.Above(c, lo)
			}
			return c
		}
	}
}

// compileWindow is compileNarrow for CandFull levels: it yields the vertex
// index range [start, end) instead of narrowing a slice.
func compileWindow(lowers, uppers []uint8) func(*State) (int, int) {
	if len(lowers) == 0 && len(uppers) == 0 {
		return func(s *State) (int, int) { return 0, s.nv }
	}
	return func(s *State) (int, int) {
		lo, hasLo, hi := windowOf(s, lowers, uppers)
		start := 0
		if hasLo {
			start = int(lo) + 1
		}
		end := s.nv
		if hi != maxUint32 && int(hi) < end {
			end = int(hi)
		}
		return start, end
	}
}

// windowOf computes the max lower / min upper bound over several window
// positions (the general case; single-bound levels are specialized away).
func windowOf(s *State, lowers, uppers []uint8) (lo uint32, hasLo bool, hi uint32) {
	for _, p := range lowers {
		if b := s.bound[p]; !hasLo || b > lo {
			lo, hasLo = b, true
		}
	}
	hi = uint32(maxUint32)
	for _, p := range uppers {
		if b := s.bound[p]; b < hi {
			hi = b
		}
	}
	return lo, hasLo, hi
}

// compileSteps compiles a level's hoisted intersections. nil when the level
// has none (the common case — only multi-parent candidates need steps).
// d is the hosting schedule level, used only for telemetry attribution.
func (k *Kernel) compileSteps(steps []Step, d int) func(*State) {
	if len(steps) == 0 {
		return nil
	}
	fns := make([]func(*State), len(steps))
	for i, st := range steps {
		fns[i] = k.compileStep(st, d)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(s *State) {
		for _, fn := range fns {
			fn(s)
		}
	}
}

// compileStep compiles one intersection with its kernel choice and left
// operand frozen: each variant reads its buffer or neighborhood directly,
// with no per-iteration fetch indirection. A frozen bitmap kernel still
// guards at run time — the bound vertex may not be a hub — but it keeps the
// interpreter's full hybrid dispatch (including the left-side probe):
// dropping a bitmap probe trades O(|small|) walks for full merges and loses
// far more than the skipped comparisons save.
func (k *Kernel) compileStep(st Step, d int) func(*State) {
	out := st.Out
	dep := st.Depth
	fromBuf := st.LeftBuf >= 0
	lb := st.LeftBuf
	lp := st.LeftParent
	choice := st.Kernel
	if choice == KernelBitmap && !k.hasHubs {
		choice = KernelAdaptive
	}
	switch choice {
	case KernelMerge:
		if fromBuf {
			return func(s *State) {
				s.recIntersect(d, telemetry.KernelMerge)
				s.bufs[out] = vertexset.IntersectMerge(s.bufs[out], s.bufs[lb], s.g.Neighbors(s.bound[dep]))
			}
		}
		return func(s *State) {
			s.recIntersect(d, telemetry.KernelMerge)
			s.bufs[out] = vertexset.IntersectMerge(s.bufs[out], s.g.Neighbors(s.bound[lp]), s.g.Neighbors(s.bound[dep]))
		}
	case KernelGallop:
		if fromBuf {
			return func(s *State) {
				s.recIntersect(d, telemetry.KernelGallop)
				s.bufs[out] = vertexset.IntersectGallop(s.bufs[out], s.bufs[lb], s.g.Neighbors(s.bound[dep]))
			}
		}
		return func(s *State) {
			s.recIntersect(d, telemetry.KernelGallop)
			s.bufs[out] = vertexset.IntersectGallop(s.bufs[out], s.g.Neighbors(s.bound[lp]), s.g.Neighbors(s.bound[dep]))
		}
	case KernelBitmap, KernelAdaptive:
		if k.hasHubs {
			if fromBuf {
				// Buffer left side: only the bound vertex can be a hub.
				return func(s *State) {
					l := s.bufs[lb]
					rv := s.bound[dep]
					right := s.g.Neighbors(rv)
					if bm := s.g.HubBitmap(rv); bm != nil && len(l) <= len(right) {
						s.recIntersect(d, telemetry.KernelBitmap)
						s.bufs[out] = vertexset.IntersectBitmap(s.bufs[out][:0], l, bm)
						return
					}
					s.recAdaptive(d, len(l), len(right))
					s.bufs[out] = vertexset.Intersect(s.bufs[out], l, right)
				}
			}
			// Two neighborhoods: probe either side's hub bitmap with the
			// smaller set, mirroring the interpreter bit for bit.
			return func(s *State) {
				l := s.g.Neighbors(s.bound[lp])
				rv := s.bound[dep]
				right := s.g.Neighbors(rv)
				if bm := s.g.HubBitmap(rv); bm != nil && len(l) <= len(right) {
					s.recIntersect(d, telemetry.KernelBitmap)
					s.bufs[out] = vertexset.IntersectBitmap(s.bufs[out][:0], l, bm)
					return
				}
				if bm := s.g.HubBitmap(s.bound[lp]); bm != nil && len(right) < len(l) {
					s.recIntersect(d, telemetry.KernelBitmap)
					s.bufs[out] = vertexset.IntersectBitmap(s.bufs[out][:0], right, bm)
					return
				}
				s.recAdaptive(d, len(l), len(right))
				s.bufs[out] = vertexset.Intersect(s.bufs[out], l, right)
			}
		}
		fallthrough
	default:
		if fromBuf {
			return func(s *State) {
				l := s.bufs[lb]
				right := s.g.Neighbors(s.bound[dep])
				s.recAdaptive(d, len(l), len(right))
				s.bufs[out] = vertexset.Intersect(s.bufs[out], l, right)
			}
		}
		return func(s *State) {
			l := s.g.Neighbors(s.bound[lp])
			right := s.g.Neighbors(s.bound[dep])
			s.recAdaptive(d, len(l), len(right))
			s.bufs[out] = vertexset.Intersect(s.bufs[out], l, right)
		}
	}
}

// recIntersect attributes one intersection to a level's stats; recAdaptive
// classifies an adaptive dispatch by the rule vertexset.Intersect applies.
// Both are nil-safe single-branch no-ops when telemetry is disabled.
func (s *State) recIntersect(d, kernel int) {
	if lst := s.st.Level(d); lst != nil {
		lst.Intersect(kernel)
	}
}

func (s *State) recAdaptive(d, lenA, lenB int) {
	if lst := s.st.Level(d); lst != nil {
		lst.Intersect(telemetry.ClassifyIntersect(lenA, lenB, vertexset.GallopRatio))
	}
}

// compileIEP builds the suffix counter: fill the candidate sets of the
// innermost KIEP loops from the bound prefix and hand them to the
// inclusion–exclusion calculator (paper Figure 6: |S_IEP|).
func (k *Kernel) compileIEP() func(*State) int64 {
	srcs := k.prog.IEP
	base := k.prog.N - k.prog.KIEP
	cut := k.prog.IEPCut
	return func(s *State) int64 {
		if lst := s.st.Level(cut); lst != nil {
			lst.IEPCounts++
		}
		for i, src := range srcs {
			if src.Parent >= 0 {
				p := s.bound[src.Parent]
				s.iepSets[i] = s.g.Neighbors(p)
				if s.iepBMs != nil {
					s.iepBMs[i] = s.g.HubBitmap(p)
				}
			} else {
				s.iepSets[i] = s.bufs[src.Buf]
				if s.iepBMs != nil {
					s.iepBMs[i] = nil
				}
			}
		}
		if s.iepBMs != nil {
			return s.calc.CountHybrid(s.iepSets, s.iepBMs, s.bound[:base])
		}
		return s.calc.Count(s.iepSets, s.bound[:base])
	}
}
