package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"

	"graphpi/internal/cluster"
	"graphpi/internal/core"
	"graphpi/internal/graph"
)

// Handler returns the service's HTTP API:
//
//	GET  /healthz               liveness (503 when every cluster worker is lost)
//	GET  /graphs                resident graphs
//	POST /graphs                load a snapshot: {"name","path","optimize"}
//	GET|POST /count             count embeddings (JSON result)
//	GET|POST /enumerate         stream embeddings as NDJSON
//	GET  /jobs                  all tracked jobs, newest first
//	GET  /jobs/{id}             one job
//	POST /jobs/{id}/cancel      cancel a queued or running job
//	GET  /explain               plan + cost-model predictions, no execution
//	GET  /metrics               JSON counters; ?format=prometheus for scrapers
//	GET  /debug/pprof/...       net/http/pprof (only with Options.EnablePprof)
//
// Query parameters for /count and /enumerate: graph (resident graph name;
// optional when exactly one graph is resident), pattern (a named pattern or
// "n:adjacency"), iep (default true for /count), backend (auto|local|
// cluster), workers (per-job budget cap), planner (graphpi|graphzero),
// tier (count: auto|interpret|generated; local backend only),
// profile (count: collect per-level run stats and a cost-model drift report
// into the result's "profile" field), and limit (enumerate: stop after N
// embeddings). /explain accepts the same graph/pattern/iep/planner/tier
// parameters.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Degrade, don't lie: a server configured for cluster dispatch with
		// zero live workers cannot serve its default backend, so load
		// balancers should route elsewhere until the pool recovers.
		if s.ClusterDegraded() {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"ok": false, "error": "no live cluster workers"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /graphs", s.handleGraphs)
	mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	mux.HandleFunc("GET /count", s.handleCount)
	mux.HandleFunc("POST /count", s.handleCount)
	mux.HandleFunc("GET /enumerate", s.handleEnumerate)
	mux.HandleFunc("POST /enumerate", s.handleEnumerate)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opt.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError maps execution errors onto HTTP statuses: statusError carries
// its own, ErrQueueFull is load shedding, a cancelled context is the client
// hanging up (writing is moot but harmless), anything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	var se *statusError
	switch {
	case errors.As(err, &se):
		writeJSON(w, se.status, map[string]string{"error": se.msg})
	case errors.Is(err, ErrQueueFull):
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, 499, map[string]string{"error": "canceled"}) // nginx's client-closed-request
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	}
}

// parseQuery reads the shared query parameters from URL query and/or form.
func parseQuery(r *http.Request, countDefaultIEP bool) (queryRequest, error) {
	q := r.URL.Query()
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err == nil {
			for k, vs := range r.PostForm {
				if q.Get(k) == "" && len(vs) > 0 {
					q.Set(k, vs[0])
				}
			}
		}
	}
	req := queryRequest{
		graphName:   q.Get("graph"),
		patternSpec: q.Get("pattern"),
		backendName: q.Get("backend"),
		planner:     q.Get("planner"),
		useIEP:      countDefaultIEP,
	}
	if req.patternSpec == "" {
		return req, &statusError{400, "pattern parameter required"}
	}
	switch p := req.planner; p {
	case "", "graphpi":
		req.planner = ""
	case "graphzero":
	default:
		return req, &statusError{400, fmt.Sprintf("unknown planner %q (want graphpi or graphzero)", p)}
	}
	if v := q.Get("iep"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, &statusError{400, fmt.Sprintf("bad iep value %q", v)}
		}
		req.useIEP = b
	}
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return req, &statusError{400, fmt.Sprintf("bad workers value %q", v)}
		}
		req.workers = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return req, &statusError{400, fmt.Sprintf("bad limit value %q", v)}
		}
		req.limit = n
	}
	if v := q.Get("tier"); v != "" {
		t, err := core.ParseTier(v)
		if err != nil {
			return req, &statusError{400, err.Error()}
		}
		req.tier = t
	}
	if v := q.Get("profile"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, &statusError{400, fmt.Sprintf("bad profile value %q", v)}
		}
		req.profile = b
	}
	return req, nil
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	req, err := parseQuery(r, true)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.runCount(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleEnumerate streams embeddings as NDJSON: one JSON array of original
// vertex ids per line, then a trailer object with the job summary. The
// stream begins only once the job is admitted and planned, so early errors
// still produce proper HTTP statuses.
func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	req, err := parseQuery(r, false)
	if err != nil {
		writeError(w, err)
		return
	}
	var (
		mu      sync.Mutex
		started bool
		flusher http.Flusher
	)
	if f, ok := w.(http.Flusher); ok {
		flusher = f
	}
	visit := func(emb []uint32) bool {
		line, err := json.Marshal(emb)
		if err != nil {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false // client gone; EnumerateCtx also sees the context cancel
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	res, err := s.runEnumerate(r.Context(), req, visit)
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		if !started {
			writeError(w, err)
		}
		return
	}
	if !started {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	if line, err := json.Marshal(res); err == nil {
		w.Write(append(line, '\n'))
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// graphInfo is the /graphs payload for one resident graph.
type graphInfo struct {
	Name        string `json:"name"`
	Vertices    int    `json:"vertices"`
	Edges       int64  `json:"edges"`
	Optimized   bool   `json:"optimized"`
	Hubs        int    `json:"hubs,omitempty"`
	Fingerprint string `json:"fingerprint"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	rgs := s.graphList()
	out := make([]graphInfo, 0, len(rgs))
	for _, rg := range rgs {
		out = append(out, graphInfo{
			Name:        rg.name,
			Vertices:    rg.g.NumVertices(),
			Edges:       rg.g.NumEdges(),
			Optimized:   rg.g.IsReordered(),
			Hubs:        rg.g.NumHubs(),
			Fingerprint: rg.fp,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// loadGraphRequest is the POST /graphs body: load a snapshot (or edge list)
// from a server-side path and register it, optionally optimizing first.
// The service trusts its operator; this is an admin endpoint, not a public
// upload surface.
type loadGraphRequest struct {
	Name      string `json:"name"`
	Path      string `json:"path"`
	Optimize  bool   `json:"optimize"`
	HubBudget int64  `json:"hub_budget,omitempty"`
	HubFloor  int    `json:"hub_floor,omitempty"`
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var req loadGraphRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, &statusError{400, fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.Path == "" {
		writeError(w, &statusError{400, "path required"})
		return
	}
	g, err := loadGraphFile(req.Path)
	if err != nil {
		writeError(w, &statusError{400, err.Error()})
		return
	}
	if req.Optimize {
		if !g.IsReordered() {
			g = g.Reorder()
		}
		// Rebuild hubs when the snapshot carries none or the operator tuned
		// the parameters; an already-tuned snapshot's hub set is kept when
		// the request leaves them at defaults.
		if g.NumHubs() == 0 || req.HubBudget > 0 || req.HubFloor > 0 {
			g.BuildHubBitmaps(req.HubBudget, req.HubFloor)
		}
	}
	name := req.Name
	if name == "" {
		name = g.Name()
	}
	if name == "" {
		writeError(w, &statusError{400, "name required (snapshot carries no dataset name)"})
		return
	}
	if err := s.AddGraph(name, g); err != nil {
		writeError(w, &statusError{409, err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, graphInfo{
		Name:        name,
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		Optimized:   g.IsReordered(),
		Hubs:        g.NumHubs(),
		Fingerprint: cluster.FingerprintKey(g),
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, &statusError{404, fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, &statusError{404, fmt.Sprintf("no job %q", id)})
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, map[string]any{"job": id, "cancel": "requested", "status": j.info().Status})
}

// loadGraphFile reads a snapshot or edge-list file with format
// auto-detection (shared with the facade's LoadGraph).
func loadGraphFile(path string) (*graph.Graph, error) {
	return graph.LoadAnyFile(path)
}
