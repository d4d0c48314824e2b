// Package core is the heart of GraphPi: it compiles a configuration — a
// schedule plus a set of asymmetric restrictions (paper §IV) — into an
// executable loop program, runs it over a CSR data graph sequentially or in
// parallel, and hosts the planner that picks the optimal configuration with
// the performance model.
//
// The paper emits C++ source per configuration and compiles it; here the
// configuration is compiled to a compact interpreted program (see
// schedule.BuildPlan) with per-worker preallocated buffers, preserving the
// algorithm while staying a pure Go library.
package core

import (
	"fmt"
	"math"

	"graphpi/internal/costmodel"
	"graphpi/internal/iep"
	"graphpi/internal/pattern"
	"graphpi/internal/perm"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

// Config is a compiled, executable configuration: one schedule and one
// restriction set for one pattern.
type Config struct {
	// Pattern is the original pattern the configuration searches for.
	Pattern *pattern.Pattern
	// Schedule is the vertex search order.
	Schedule schedule.Schedule
	// Restrictions is the asymmetric restriction set, expressed on the
	// original pattern's vertex names.
	Restrictions restrict.Set
	// Cost is the performance model's prediction for this configuration
	// (set by the planner; 0 when the configuration was built manually).
	Cost float64

	n         int
	relabeled *pattern.Pattern
	plan      schedule.Plan
	order     []uint8 // position → original pattern vertex
	// lowers[d] lists positions p with restriction id(v_d) > id(v_p):
	// candidates at depth d must exceed bound[p].
	lowers [][]uint8
	// uppers[d] lists positions p with restriction id(v_p) > id(v_d):
	// candidates at depth d must stay below bound[p] (the paper's break).
	uppers [][]uint8
	// dupCheck[d] lists the positions p < d whose bound vertex could still
	// collide with a depth-d candidate: positions that are neither pattern
	// neighbors of d (candidates come from their neighborhoods, and the
	// data graph has no self-loops) nor covered by a restriction window.
	// Usually empty, eliminating the engine's O(depth) duplicate scan.
	dupCheck [][]uint8
	// kIEP is the usable inclusion–exclusion suffix of this schedule,
	// possibly shrunk so the over-count correction below is exact.
	kIEP int
	// CountIEP scales its raw tally by iepNum/iepDen: dropping the
	// restrictions of the innermost kIEP loops makes every subgraph be
	// counted iepDen times instead of iepNum times (paper §IV-D's x is
	// iepDen with iepNum = 1 for complete restriction sets).
	iepNum, iepDen int64
	// planParams, when set by the planner, carries the data-graph
	// statistics the configuration was costed against; drift reports
	// re-cost the plan from them. Manually built configurations leave it
	// nil.
	planParams *costmodel.Params
	// cliqueQ is nonzero when the clique counter (clique.go) may substitute
	// for this configuration (see detectCliqueKernel).
	cliqueQ int
}

// NewConfig compiles a configuration. The schedule must be a permutation of
// the pattern's vertices and the restrictions must reference pattern
// vertices; neither is required to be "efficient" or complete — experiment
// harnesses deliberately run eliminated schedules and foreign restriction
// sets (Figures 2b and 9).
func NewConfig(pat *pattern.Pattern, sched schedule.Schedule, rs restrict.Set) (*Config, error) {
	n := pat.N()
	if len(sched.Order) != n {
		return nil, fmt.Errorf("core: schedule %v has %d vertices, pattern has %d",
			sched, len(sched.Order), n)
	}
	seen := make([]bool, n)
	for _, v := range sched.Order {
		if int(v) >= n || seen[v] {
			return nil, fmt.Errorf("core: schedule %v is not a permutation", sched)
		}
		seen[v] = true
	}
	for _, r := range rs {
		if int(r.First) >= n || int(r.Second) >= n || r.First == r.Second {
			return nil, fmt.Errorf("core: restriction %v out of range", r)
		}
	}

	c := &Config{
		Pattern:      pat,
		Schedule:     sched.Clone(),
		Restrictions: rs.Clone(),
		n:            n,
		order:        append([]uint8(nil), sched.Order...),
	}
	c.relabeled = schedule.RelabeledPattern(pat, sched)
	c.plan = schedule.BuildPlan(c.relabeled, n)

	// Bake the restrictions into per-depth candidate windows (restrict
	// package): each attaches to its later schedule position's loop.
	pos := make([]uint8, n)
	for depth, v := range sched.Order {
		pos[v] = uint8(depth)
	}
	windows := restrict.BakeWindows(rs, pos)
	c.lowers = windows.Lowers
	c.uppers = windows.Uppers

	c.dupCheck = make([][]uint8, n)
	for d := 1; d < n; d++ {
		for p := 0; p < d; p++ {
			if c.relabeled.HasEdge(d, p) {
				continue // candidate ∈ N(bound[p]) ⇒ candidate ≠ bound[p]
			}
			covered := false
			for _, q := range c.lowers[d] {
				if int(q) == p {
					covered = true
					break
				}
			}
			for _, q := range c.uppers[d] {
				if int(q) == p {
					covered = true
					break
				}
			}
			if !covered {
				c.dupCheck[d] = append(c.dupCheck[d], uint8(p))
			}
		}
	}

	c.kIEP = sched.SuffixIndependent(pat)
	if c.kIEP > n-1 {
		c.kIEP = n - 1
	}
	if c.kIEP > iep.MaxK {
		c.kIEP = iep.MaxK
	}
	c.computeIEPScaling()
	c.detectCliqueKernel(windows)
	return c, nil
}

// maxIEPExactnessN caps the pattern size for which the IEP over-count
// correction is verified (the check enumerates all n! relative orders).
// Larger patterns simply fall back to plain enumeration when CountIEP is
// requested; the paper's patterns stop at 7 vertices.
const maxIEPExactnessN = 8

// computeIEPScaling determines the largest usable IEP suffix and the exact
// over-count correction.
//
// Paper §IV-D drops the restrictions of the innermost k loops and divides
// the raw IEP tally by x, the number of automorphisms the remaining
// restrictions fail to eliminate. That division is exact only when every
// automorphism-coset of injective maps has the same number of members
// passing the outer restrictions — which holds for the configurations the
// paper exercises but not for every (schedule, restriction set) pair
// Algorithm 1 can emit. We therefore verify exactness explicitly: for k
// from the schedule's independent suffix downward, enumerate the n!
// relative orders grouped into automorphism cosets and check that the
// per-coset counts of orders passing (a) the full set and (b) the
// outer-only set are constants. The first k that passes fixes the scaling
// CountIEP must apply (full/outer, i.e. iepNum/iepDen); if none passes,
// CountIEP falls back to full enumeration (kIEP = 0).
func (c *Config) computeIEPScaling() {
	c.iepNum, c.iepDen = 1, 1
	if c.kIEP < 1 || c.n < 2 {
		c.kIEP = 0
		return
	}
	if c.n > maxIEPExactnessN {
		c.kIEP = 0
		return
	}
	full := c.posRestrictionSet(c.n)
	auts := c.relabeled.Automorphisms()
	for k := c.kIEP; k >= 1; k-- {
		outer := c.posRestrictionSet(c.n - k)
		num, den, ok := cosetConstants(c.n, auts, full, outer)
		if ok {
			c.kIEP = k
			c.iepNum, c.iepDen = num, den
			return
		}
	}
	c.kIEP = 0
}

// posRestrictionSet collects the restrictions (in position space) whose
// later endpoint lies before cut — i.e. the checks executed by the
// outermost cut loops.
func (c *Config) posRestrictionSet(cut int) restrict.Set {
	var out restrict.Set
	for d := 0; d < cut && d < c.n; d++ {
		for _, p := range c.lowers[d] {
			out = append(out, restrict.Restriction{First: uint8(d), Second: p})
		}
		for _, p := range c.uppers[d] {
			out = append(out, restrict.Restriction{First: p, Second: uint8(d)})
		}
	}
	return out.Canonicalize()
}

// cosetConstants partitions the n! relative orders into automorphism cosets
// (σ ~ σ∘a) and returns the per-coset counts of orders satisfying the full
// and outer restriction sets, provided those counts are the same for every
// coset; ok is false otherwise.
func cosetConstants(n int, auts []perm.Perm, full, outer restrict.Set) (numFull, numOuter int64, ok bool) {
	pass := func(sigma perm.Perm, s restrict.Set) bool {
		for _, r := range s {
			if sigma[r.First] <= sigma[r.Second] {
				return false
			}
		}
		return true
	}
	visited := make([]bool, perm.Factorial(n))
	tau := make(perm.Perm, n)
	first := true
	ok = true
	perm.ForEach(n, func(sigma perm.Perm) bool {
		if visited[lehmerRank(sigma)] {
			return true
		}
		var mFull, mOuter int64
		for _, a := range auts {
			for i := range a {
				tau[i] = sigma[a[i]]
			}
			visited[lehmerRank(tau)] = true
			if pass(tau, outer) {
				mOuter++
				if pass(tau, full) {
					mFull++
				}
			}
		}
		if first {
			numFull, numOuter, first = mFull, mOuter, false
		} else if mFull != numFull || mOuter != numOuter {
			ok = false
			return false
		}
		return true
	})
	if numOuter == 0 {
		return 0, 0, false // inconsistent set: nothing would ever be counted
	}
	return numFull, numOuter, ok
}

// lehmerRank maps a permutation to its lexicographic rank in [0, n!).
func lehmerRank(p perm.Perm) int64 {
	n := len(p)
	var rank int64
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += int64(smaller) * perm.Factorial(n-1-i)
	}
	return rank
}

// N returns the pattern size.
func (c *Config) N() int { return c.n }

// KIEP returns the inclusion–exclusion suffix length this configuration can
// exploit when counting (0 when CountIEP must fall back to enumeration).
func (c *Config) KIEP() int { return c.kIEP }

// IEPDivisor returns the over-count divisor applied by CountIEP (the
// paper's x; the full scaling is IEPNumerator()/IEPDivisor()).
func (c *Config) IEPDivisor() int64 { return c.iepDen }

// IEPNumerator returns the numerator of CountIEP's scaling (1 for complete
// restriction sets).
func (c *Config) IEPNumerator() int64 { return c.iepNum }

// Plan exposes the compiled loop program (read-only; used by the cost model
// and experiment reports).
func (c *Config) PlanView() schedule.Plan { return c.plan }

// PosRestrictions returns the restrictions mapped to schedule positions as
// (First, Second) pairs meaning id(pos First) > id(pos Second).
func (c *Config) PosRestrictions() [][2]uint8 {
	var out [][2]uint8
	for d := 0; d < c.n; d++ {
		for _, p := range c.lowers[d] {
			out = append(out, [2]uint8{uint8(d), p})
		}
		for _, p := range c.uppers[d] {
			out = append(out, [2]uint8{p, uint8(d)})
		}
	}
	return out
}

func (c *Config) String() string {
	return fmt.Sprintf("config{%s, schedule %s, restrictions %s, cost %.3g}",
		c.Pattern, c.Schedule, c.Restrictions, c.Cost)
}

// maxUint32 is the open upper limit used when no restriction bounds a loop.
const maxUint32 = math.MaxUint32
