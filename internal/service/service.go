// Package service is GraphPi's resident query server: it holds optimized
// data graphs in memory and executes pattern-matching queries against them
// over HTTP, amortizing the paper's per-pattern preprocessing across queries
// instead of across one batch run.
//
// Three pieces carry the load:
//
//   - a plan cache (cache.go) keyed by graph fingerprint + canonical pattern
//     form + planner options, so a repeat query skips schedule/restriction
//     search entirely and its planning latency collapses to a map lookup;
//   - an admission controller (admit.go) — a bounded run-slot gate with a
//     FIFO waiting line and fast 429s beyond it — plus per-job worker
//     budgets drawn from a shared taskpool.Limiter, so concurrent jobs
//     share the machine instead of oversubscribing it; and
//   - a backend abstraction (backend.go): the same compiled configuration
//     executes on the in-process engine or across TCP cluster workers,
//     bit-identically, so deployments scale from one box to a worker fleet
//     without clients noticing.
//
// Every query is a job: observable via /jobs, cancellable via
// /jobs/{id}/cancel, and cancelled implicitly when its client disconnects —
// cancellation reaches the core counting loops through context plumbing
// (core.RunOptions.Context) and frees the job's workers within one
// outer-loop boundary.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/cluster"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/taskpool"
	"graphpi/internal/telemetry"
)

// Process-level metrics, registered once at package level (the statcheck
// convention). Servers share them: they describe the process, not one Server.
var (
	mCountQueries = telemetry.NewCounter("graphpi_count_queries_total",
		"Count queries executed to completion or failure, any backend.")
	mProfiledRuns = telemetry.NewCounter("graphpi_profiled_runs_total",
		"Count queries that ran with ?profile=1 per-level stats collection.")
	mQueryLatency = telemetry.NewHistogram("graphpi_query_seconds",
		"End-to-end count query latency, admission through backend completion.")
)

// Options configures a Server. Zero values pick sane defaults.
type Options struct {
	// MaxConcurrent bounds how many jobs execute at once (default 2).
	MaxConcurrent int
	// MaxQueue bounds how many admitted jobs may wait for a run slot;
	// arrivals beyond it are rejected with ErrQueueFull (default 64).
	MaxQueue int
	// TotalWorkers is the shared worker-goroutine budget local jobs draw
	// from (default GOMAXPROCS).
	TotalWorkers int
	// WorkersPerJob is the default worker budget per job (default
	// TotalWorkers / MaxConcurrent, at least 1). Requests may ask for
	// fewer; asking for more is clamped.
	WorkersPerJob int
	// CacheBytes is the plan cache's byte budget (default 8 MiB).
	CacheBytes int64
	// ClusterAddrs lists TCP cluster workers (cluster.Serve listeners).
	// When set, counting jobs default to cluster dispatch; every worker
	// must hold a replica of the resident graph a job targets.
	ClusterAddrs []string
	// ClusterWorkersPerNode is the per-rank worker count for dispatched
	// jobs (default 2; workers may override via their ServeOptions).
	ClusterWorkersPerNode int
	// ClusterJobRetries is how many times a failed cluster job is retried
	// before its error reaches the client (default 2; negative → 0). Worker
	// loss mid-job is already recovered inside a single attempt by the
	// elastic transport; retries cover total failures — every worker lost at
	// once, or a fleet that is restarting.
	ClusterJobRetries int
	// KeepFinishedJobs bounds the finished-job history /jobs reports
	// (default 256).
	KeepFinishedJobs int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the service
	// handler. Off by default: the profiler exposes heap contents, so it is
	// an operator opt-in (-pprof on the CLI), not a public surface.
	EnablePprof bool
	// Tracer, if non-nil, receives NDJSON span events for the coarse phases
	// of every query: plan, compile, run, cluster-deal.
	Tracer *telemetry.Tracer
	// Logf, if non-nil, receives lifecycle messages.
	Logf func(format string, args ...any)
}

func (o *Options) normalize() {
	if o.MaxConcurrent < 1 {
		o.MaxConcurrent = 2
	}
	if o.MaxQueue < 1 {
		o.MaxQueue = 64
	}
	if o.TotalWorkers < 1 {
		o.TotalWorkers = runtime.GOMAXPROCS(0)
	}
	if o.WorkersPerJob < 1 {
		o.WorkersPerJob = o.TotalWorkers / o.MaxConcurrent
		if o.WorkersPerJob < 1 {
			o.WorkersPerJob = 1
		}
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = defaultCacheBytes
	}
	if o.ClusterJobRetries == 0 {
		o.ClusterJobRetries = 2
	} else if o.ClusterJobRetries < 0 {
		o.ClusterJobRetries = 0
	}
}

// Server is the resident query service. Create one with New, register
// graphs with AddGraph, and serve Handler() over HTTP.
type Server struct {
	opt     Options
	cache   *planCache
	jobs    *jobTable
	admit   *admission
	workers *taskpool.Limiter
	local   localBackend
	cluster *clusterBackend
	start   time.Time

	mu     sync.RWMutex
	graphs map[string]*residentGraph

	jobsCreated  atomic.Int64
	jobsDone     atomic.Int64
	jobsFailed   atomic.Int64
	jobsCanceled atomic.Int64
	jobsRejected atomic.Int64
}

// residentGraph is one registered graph plus its cached identity.
type residentGraph struct {
	name string
	g    *graph.Graph
	fp   string
}

// New creates a Server with no graphs registered.
func New(opt Options) *Server {
	opt.normalize()
	s := &Server{
		opt:     opt,
		cache:   newPlanCache(opt.CacheBytes),
		jobs:    newJobTable(opt.KeepFinishedJobs),
		admit:   newAdmission(opt.MaxConcurrent, opt.MaxQueue),
		workers: taskpool.NewLimiter(opt.TotalWorkers),
		start:   time.Now(),
		graphs:  map[string]*residentGraph{},
	}
	if len(opt.ClusterAddrs) > 0 {
		s.cluster = newClusterBackend(opt.ClusterAddrs, opt.ClusterWorkersPerNode, opt.ClusterJobRetries, opt.Tracer)
	}
	return s
}

// Close releases backend resources (cluster connections). In-flight jobs
// fail; the HTTP listener is the caller's to close.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.close()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// AddGraph registers a resident graph under name. Optimize the graph before
// registering (hub bitmap construction is not safe concurrent with readers);
// registered graphs are treated as immutable.
func (s *Server) AddGraph(name string, g *graph.Graph) error {
	if name == "" {
		return fmt.Errorf("service: graph name must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.graphs[name]; ok {
		return fmt.Errorf("service: graph %q already registered", name)
	}
	s.graphs[name] = &residentGraph{name: name, g: g, fp: cluster.FingerprintKey(g)}
	s.logf("service: graph %q resident (%d vertices, %d edges)", name, g.NumVertices(), g.NumEdges())
	return nil
}

// Graph returns the resident graph registered under name.
func (s *Server) Graph(name string) (*graph.Graph, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rg, ok := s.graphs[name]
	if !ok {
		return nil, false
	}
	return rg.g, true
}

// GraphNames lists the registered graph names (sorted by registration map
// iteration is fine for tests; HTTP sorts).
func (s *Server) graphList() []*residentGraph {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*residentGraph, 0, len(s.graphs))
	for _, rg := range s.graphs {
		out = append(out, rg)
	}
	return out
}

// resolveGraph maps a request's graph parameter to a resident graph. An
// empty name resolves only when exactly one graph is resident.
func (s *Server) resolveGraph(name string) (*residentGraph, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.graphs) == 1 {
			for _, rg := range s.graphs {
				return rg, nil
			}
		}
		return nil, &statusError{404, fmt.Sprintf("graph parameter required (%d graphs resident)", len(s.graphs))}
	}
	rg, ok := s.graphs[name]
	if !ok {
		return nil, &statusError{404, fmt.Sprintf("no resident graph %q", name)}
	}
	return rg, nil
}

// statusError carries an HTTP status through the execution path.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// queryRequest is one parsed count/enumerate request.
type queryRequest struct {
	graphName   string
	patternSpec string
	useIEP      bool
	backendName string    // "", "auto", "local", "cluster"
	workers     int       // requested budget; 0 → the per-job default
	planner     string    // "" | "graphzero"
	limit       int64     // enumerate: stop after this many embeddings (0 = all)
	tier        core.Tier // requested execution tier (local backend only)
	profile     bool      // collect per-level run stats + drift (?profile=1)
}

// queryResult is the outcome of a count job (and the trailer of an
// enumerate stream).
type queryResult struct {
	Job       string  `json:"job"`
	Graph     string  `json:"graph"`
	Pattern   string  `json:"pattern"`
	Backend   string  `json:"backend"`
	Count     int64   `json:"count"`
	IEP       bool    `json:"iep,omitempty"`
	Cache     string  `json:"cache"` // hit | miss
	Workers   int     `json:"workers,omitempty"`
	PlanSec   float64 `json:"plan_seconds"`
	ExecSec   float64 `json:"exec_seconds"`
	Schedule  string  `json:"schedule,omitempty"`
	Tier      string  `json:"tier,omitempty"`      // execution tier the count ran on
	Truncated bool    `json:"truncated,omitempty"` // enumerate hit its limit

	// Profile carries the run's collected per-level statistics and the
	// cost-model drift reconciliation when the request asked for ?profile=1.
	Profile *ProfileReport `json:"profile,omitempty"`
}

// ProfileReport is the ?profile=1 payload: what the run actually did at every
// schedule level, reconciled against what the planner's cost model predicted.
type ProfileReport struct {
	// Tier is the execution tier the profiled run used.
	Tier string `json:"tier"`
	// Levels holds the merged per-level counters, indexed by schedule
	// position. Empty on the cluster backend: the wire protocol reduces
	// counts, not counters, so only predictions are reported there.
	Levels []telemetry.LevelStats `json:"levels,omitempty"`
	// Drift reconciles the counters against the cost model (Eq. 6/7). Nil
	// when the configuration carries no planner statistics.
	Drift *telemetry.DriftReport `json:"drift,omitempty"`
	// Note flags reduced payloads (e.g. cluster backend: predictions only).
	Note string `json:"note,omitempty"`
}

// plan resolves the cached configuration for (graph, pattern spec, planner),
// running the planner on a miss. planSec is the wall time this call spent
// planning — ≈0 on a hit, the point of the cache.
func (s *Server) plan(rg *residentGraph, pat *pattern.Pattern, planner string) (cfg *core.Config, planSec float64, hit bool, err error) {
	key := planKey{graphName: rg.name, graphFP: rg.fp, patternCK: pat.CanonicalKey(), options: planner}
	t0 := time.Now()
	cfg, _, hit, err = s.cache.get(key, func() (*core.Config, time.Duration, error) {
		var (
			res *core.PlanResult
			err error
		)
		if planner == "graphzero" {
			res, err = core.PlanGraphZero(pat, rg.g.Stats())
		} else {
			res, err = core.Plan(pat, rg.g.Stats(), core.PlanOptions{})
		}
		if err != nil {
			return nil, 0, err
		}
		return res.Best, res.PrepTime, nil
	})
	return cfg, time.Since(t0).Seconds(), hit, err
}

// pickBackend resolves the backend for a count job. Enumerate always runs
// locally: the cluster wire protocol reduces counts, not embedding streams.
func (s *Server) pickBackend(req queryRequest) (backend, error) {
	switch req.backendName {
	case "", "auto":
		if s.cluster != nil {
			return s.cluster, nil
		}
		return s.local, nil
	case "local":
		return s.local, nil
	case "cluster":
		if s.cluster == nil {
			return nil, &statusError{400, "no cluster workers configured (start with -cluster-workers)"}
		}
		return s.cluster, nil
	default:
		return nil, &statusError{400, fmt.Sprintf("unknown backend %q (want auto, local or cluster)", req.backendName)}
	}
}

// jobBudget clamps a request's worker ask to the per-job budget.
func (s *Server) jobBudget(requested int) int {
	w := s.opt.WorkersPerJob
	if requested > 0 && requested < w {
		w = requested
	}
	return w
}

// runCount executes one counting query end to end: admission, plan (via
// cache), worker budget, backend execution, job bookkeeping.
func (s *Server) runCount(ctx context.Context, req queryRequest) (*queryResult, error) {
	rg, err := s.resolveGraph(req.graphName)
	if err != nil {
		return nil, err
	}
	pat, err := pattern.Parse(req.patternSpec)
	if err != nil {
		return nil, &statusError{400, err.Error()}
	}
	be, err := s.pickBackend(req)
	if err != nil {
		return nil, err
	}

	j, ctx := s.jobs.create(ctx, "count", rg.name, pat.String())
	s.jobsCreated.Add(1)
	defer s.jobs.retire(j)

	if err := s.admit.acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.jobsRejected.Add(1)
		}
		s.countFinish(j, 0, err)
		return nil, err
	}
	defer s.admit.release()

	tPlan := time.Now()
	cfg, planSec, hit, err := s.plan(rg, pat, req.planner)
	s.opt.Tracer.Span("plan", tPlan, map[string]string{
		"graph": rg.name, "pattern": pat.String(), "cache": cacheLabel(hit),
	})
	if err != nil {
		s.countFinish(j, 0, err)
		return nil, err
	}

	// Worker budget: local jobs draw goroutine slots from the shared pool;
	// cluster jobs burn remote cores and only hold their run slot here.
	workers := 0
	local := be == backend(s.local)
	if local {
		w, err := s.workers.Acquire(ctx, s.jobBudget(req.workers))
		if err != nil {
			s.countFinish(j, 0, err)
			return nil, err
		}
		workers = w
		defer s.workers.Release(w)
	}

	// Surface tier resolution as its own span, so a trace names the tier
	// the run executes on. ResolveTier reports the interpreter for
	// requests the clique counter cannot serve, the same fallback the
	// engine takes.
	if s.opt.Tracer != nil && local {
		tComp := time.Now()
		rt := cfg.ResolveTier(rg.g, req.tier, req.useIEP)
		s.opt.Tracer.Span("compile", tComp, map[string]string{"tier": rt.String()})
	}

	// ?profile=1: hand the backend a stats sink. Local runs merge every
	// worker shard into it; the cluster backend leaves it empty (the wire
	// reduces counts, not counters) and the profile reports predictions only.
	var stats *telemetry.RunStats
	if req.profile {
		stats = telemetry.NewRunStats(cfg.N())
		mProfiledRuns.Inc()
	}

	j.setRunning(be.name(), workers, hit)
	t0 := time.Now()
	count, err := be.count(ctx, cfg, rg.g, req.useIEP, workers, req.tier, stats)
	execSec := time.Since(t0).Seconds()
	mCountQueries.Inc()
	mQueryLatency.Observe(time.Since(t0))
	s.opt.Tracer.Span("run", t0, map[string]string{
		"graph": rg.name, "pattern": pat.String(), "backend": be.name(),
	})
	if err != nil {
		s.countFinish(j, count, err)
		return nil, err
	}
	s.countFinish(j, count, nil)
	res := &queryResult{
		Job:     j.id,
		Graph:   rg.name,
		Pattern: pat.String(),
		Backend: be.name(),
		Count:   count,
		IEP:     req.useIEP,
		Cache:   cacheLabel(hit),
		Workers: workers,
		PlanSec: planSec,
		ExecSec: execSec,
	}
	res.Schedule = cfg.Schedule.String()
	// Label the execution tier. The cluster wire protocol runs the
	// interpreter on every worker; local jobs resolve the tier the way the
	// engine did, so the label names the kernel that actually ran.
	if local {
		res.Tier = cfg.ResolveTier(rg.g, req.tier, req.useIEP).String()
	} else {
		res.Tier = core.TierInterpret.String()
	}
	if req.profile {
		p := &ProfileReport{Tier: res.Tier}
		if local {
			p.Levels = stats.Levels
		} else {
			stats = nil // the wire carried no counters; don't reconcile zeros
			p.Note = "cluster backend reduces counts, not counters: predictions only"
		}
		if d, ok := cfg.DriftReport(req.useIEP, stats); ok {
			p.Drift = d
		} else if p.Note == "" {
			p.Note = "configuration carries no planner statistics; drift unavailable"
		}
		res.Profile = p
	}
	return res, nil
}

// runEnumerate executes one enumerate query, invoking visit for every
// embedding (possibly from several goroutines; visit must serialize its own
// output). It returns the stream trailer.
func (s *Server) runEnumerate(ctx context.Context, req queryRequest, visit func([]uint32) bool) (*queryResult, error) {
	// Enumerate always runs locally (the cluster wire reduces counts, not
	// embedding streams): an explicit cluster request is an error, auto
	// falls through to local, and unknown names get pickBackend's 400.
	if req.backendName == "cluster" {
		return nil, &statusError{400, "enumerate runs on the local backend only (the cluster wire protocol reduces counts, not embedding streams)"}
	}
	if _, err := s.pickBackend(req); err != nil {
		return nil, err
	}
	rg, err := s.resolveGraph(req.graphName)
	if err != nil {
		return nil, err
	}
	pat, err := pattern.Parse(req.patternSpec)
	if err != nil {
		return nil, &statusError{400, err.Error()}
	}

	j, ctx := s.jobs.create(ctx, "enumerate", rg.name, pat.String())
	s.jobsCreated.Add(1)
	defer s.jobs.retire(j)

	if err := s.admit.acquire(ctx); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.jobsRejected.Add(1)
		}
		s.countFinish(j, 0, err)
		return nil, err
	}
	defer s.admit.release()

	cfg, planSec, hit, err := s.plan(rg, pat, req.planner)
	if err != nil {
		s.countFinish(j, 0, err)
		return nil, err
	}
	workers, err := s.workers.Acquire(ctx, s.jobBudget(req.workers))
	if err != nil {
		s.countFinish(j, 0, err)
		return nil, err
	}
	defer s.workers.Release(workers)

	j.setRunning("local", workers, hit)
	// Visit runs concurrently from the job's workers: reserve an emission
	// slot before writing (and back out on failure), so the stream never
	// exceeds the limit and the tally stays exact under contention.
	var emitted atomic.Int64
	var truncated atomic.Bool
	// The job record and trailer use the emission tally, not EnumerateCtx's
	// visit count: under a limit, a worker that trips the limit check has
	// already had its in-flight visit counted by the engine, so the raw
	// count can exceed what the stream carried.
	t0 := time.Now()
	_, err = cfg.EnumerateCtx(ctx, rg.g, core.RunOptions{Workers: workers}, func(emb []uint32) bool {
		if req.limit > 0 && emitted.Add(1) > req.limit {
			emitted.Add(-1)
			truncated.Store(true)
			return false
		}
		if req.limit <= 0 {
			emitted.Add(1)
		}
		if !visit(emb) {
			emitted.Add(-1)
			return false
		}
		return true
	})
	execSec := time.Since(t0).Seconds()
	if err != nil {
		s.countFinish(j, emitted.Load(), err)
		return nil, err
	}
	s.countFinish(j, emitted.Load(), nil)
	return &queryResult{
		Job:       j.id,
		Graph:     rg.name,
		Pattern:   pat.String(),
		Backend:   "local",
		Count:     emitted.Load(),
		Cache:     cacheLabel(hit),
		Workers:   workers,
		PlanSec:   planSec,
		ExecSec:   execSec,
		Truncated: truncated.Load(),
	}, nil
}

// countFinish records a job's terminal state in the job record and the
// service counters.
func (s *Server) countFinish(j *job, count int64, err error) {
	switch j.finish(count, err) {
	case JobDone:
		s.jobsDone.Add(1)
	case JobCanceled:
		s.jobsCanceled.Add(1)
	default:
		s.jobsFailed.Add(1)
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// Metrics is the expvar-style snapshot served at /metrics.
type Metrics struct {
	UptimeSec   float64    `json:"uptime_seconds"`
	Graphs      int        `json:"graphs"`
	QueueDepth  int        `json:"queue_depth"`
	RunningJobs int        `json:"running_jobs"`
	BusyWorkers int        `json:"busy_workers"`
	WorkerCap   int        `json:"worker_cap"`
	Jobs        JobCounts  `json:"jobs"`
	Cache       cacheStats `json:"cache"`
	HitRate     float64    `json:"cache_hit_rate"`
	Cluster     []string   `json:"cluster_workers,omitempty"`

	// Cluster data-plane health (all zero without -cluster-workers;
	// workers_alive is 0 when the pool state is unknown — no transport
	// dialed yet — as well as when every worker is lost).
	WorkersConfigured int   `json:"workers_configured"`
	WorkersAlive      int   `json:"workers_alive"`
	RejoinsTotal      int64 `json:"rejoins_total"`
	RedealtTotal      int64 `json:"tasks_redealt_total"`
	JobRetriesTotal   int64 `json:"job_retries_total"`
}

// JobCounts aggregates job outcomes since start.
type JobCounts struct {
	Created  int64 `json:"created"`
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	Rejected int64 `json:"rejected"`
}

// MetricsSnapshot assembles the current metrics.
func (s *Server) MetricsSnapshot() Metrics {
	cs := s.cache.stats()
	m := Metrics{
		UptimeSec:   time.Since(s.start).Seconds(),
		QueueDepth:  s.admit.queueDepth(),
		RunningJobs: s.admit.running(),
		BusyWorkers: s.workers.InUse(),
		WorkerCap:   s.workers.Cap(),
		Cache:       cs,
		Jobs: JobCounts{
			Created:  s.jobsCreated.Load(),
			Done:     s.jobsDone.Load(),
			Failed:   s.jobsFailed.Load(),
			Canceled: s.jobsCanceled.Load(),
			Rejected: s.jobsRejected.Load(),
		},
	}
	s.mu.RLock()
	m.Graphs = len(s.graphs)
	s.mu.RUnlock()
	if total := cs.Hits + cs.Misses; total > 0 {
		m.HitRate = float64(cs.Hits) / float64(total)
	}
	if s.cluster != nil {
		m.Cluster = s.cluster.addrs
		st, known := s.cluster.poolStats()
		m.WorkersConfigured = st.Workers
		if known {
			m.WorkersAlive = st.Live
		}
		m.RejoinsTotal = st.Rejoins
		m.RedealtTotal = st.Redealt
		m.JobRetriesTotal = s.cluster.jobRetries.Load()
	}
	return m
}

// ClusterDegraded reports whether the service is configured for cluster
// dispatch but currently has zero live workers — the /healthz 503 condition.
// An undialed pool (no job has run yet) is not degraded: health is unknown,
// not known-bad, and the first job's dial would establish it.
func (s *Server) ClusterDegraded() bool {
	if s.cluster == nil {
		return false
	}
	st, known := s.cluster.poolStats()
	return known && st.Live == 0
}

// PlanningRuns exposes the cache's planning-run counter (test hook: a cache
// hit must not move it).
func (s *Server) PlanningRuns() int64 { return s.cache.PlanningRuns() }
