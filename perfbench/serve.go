package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/service"
)

// serveMixedSizing sizes serve-mixed's Barabási–Albert graph and its
// request deck: per pattern and pass, how many requests of each kind.
type serveMixedSizing struct {
	n, m int
	mix  requestMix
}

// requestMix counts one pattern's requests of each kind in a deck.
type requestMix struct{ named, respelled, enumerate, profile int }

var serveMixedSize = serveMixedSizing{
	n: 2000, m: 3,
	mix: requestMix{named: 14, respelled: 3, enumerate: 2, profile: 1},
}

// enumerateLimit is the limit of every /enumerate stream.
const enumerateLimit = 500

// probeMix is the deck of the service probe on the other workloads.
var probeMix = requestMix{named: 2, respelled: 1, enumerate: 1, profile: 1}

// maxClients is the number of closed-loop clients driving a server.
const maxClients = 2

// Request kinds.
const (
	kindCount     = "count"     // /count of the pattern's name
	kindRespelled = "respelled" // /count of an isomorphic n:adjacency spelling
	kindEnumerate = "enumerate" // /enumerate?limit=… NDJSON stream
	kindProfile   = "profile"   // /count?profile=1
)

type request struct {
	kind string
	key  string // reference key
	spec string // the pattern parameter sent
}

// buildDeck lays out mix's requests for every pattern and shuffles them.
// The multiset of requests is the same for every seed; the seed picks the
// order and the respellings.
func buildDeck(seed uint64, pats []benchPattern, mix requestMix) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var deck []request
	for _, bp := range pats {
		spec := bp.key
		if _, err := pattern.Parse(spec); err != nil {
			spec = fmt.Sprintf("%d:%s", bp.pat.N(), bp.pat.AdjacencyString())
		}
		add := func(kind string, n int, spell func() string) {
			for i := 0; i < n; i++ {
				deck = append(deck, request{kind: kind, key: bp.key, spec: spell()})
			}
		}
		named := func() string { return spec }
		add(kindCount, mix.named, named)
		add(kindRespelled, mix.respelled, func() string {
			q := bp.pat.Relabel(rng.Perm(bp.pat.N()))
			return fmt.Sprintf("%d:%s", q.N(), q.AdjacencyString())
		})
		add(kindEnumerate, mix.enumerate, named)
		add(kindProfile, mix.profile, named)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// reply is the subset of a /count result (or /enumerate trailer) the
// benchmark reads.
type reply struct {
	Count   int64           `json:"count"`
	PlanSec float64         `json:"plan_seconds"`
	ExecSec float64         `json:"exec_seconds"`
	Profile json.RawMessage `json:"profile"`
}

// reqResult is one completed request as the client saw it.
type reqResult struct {
	kind         string
	latency      float64
	planS, execS float64
	bytes        int
	ok           bool
}

// serveRig is an in-process service.Server on a loopback listener plus
// the HTTP client that drives it.
type serveRig struct {
	srv    *service.Server
	hs     *http.Server
	done   chan struct{} // closed when the HTTP server has stopped
	client *http.Client
	base   string
}

const graphName = "bench"

func startServe(r *run, g *graph.Graph) (*serveRig, error) {
	srv := service.New(service.Options{MaxConcurrent: maxClients, TotalWorkers: r.workers})
	if err := srv.AddGraph(graphName, g); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients, DisableCompression: true}},
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(rig.done)
		_ = rig.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return rig, nil
}

func (s *serveRig) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close() // closes the listener and every connection; nothing to report
	<-s.done
	s.srv.Close()
}

// do sends one request and reads the whole reply.
func (s *serveRig) do(tr *tracer, parent int, q request) (reqResult, reply, error) {
	v := url.Values{"graph": {graphName}, "pattern": {q.spec}}
	path := "/count"
	switch q.kind {
	case kindProfile:
		v.Set("profile", "1")
	case kindEnumerate:
		path = "/enumerate"
		v.Set("limit", fmt.Sprint(enumerateLimit))
	}
	res := reqResult{kind: q.kind}
	var rep reply
	sp := tr.begin("http."+q.kind, parent)
	t0 := time.Now()
	resp, err := s.client.Get(s.base + path + "?" + v.Encode())
	if err != nil {
		tr.end(sp)
		return res, rep, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.latency = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return res, rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, rep, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	res.bytes = len(body)
	last := body
	if q.kind == kindEnumerate {
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		last = lines[len(lines)-1]
		res.bytes = len(body) - len(last)
		if err := json.Unmarshal(last, &rep); err != nil {
			return res, rep, fmt.Errorf("enumerate trailer: %w", err)
		}
		if rep.Count != int64(len(lines)-1) {
			return res, rep, fmt.Errorf("enumerate streamed %d embeddings, trailer says %d", len(lines)-1, rep.Count)
		}
	} else if err := json.Unmarshal(last, &rep); err != nil {
		return res, rep, fmt.Errorf("count reply: %w", err)
	}
	if q.kind == kindProfile && len(rep.Profile) == 0 {
		return res, rep, fmt.Errorf("profile requested but missing")
	}
	res.planS, res.execS, res.ok = rep.PlanSec, rep.ExecSec, true
	return res, rep, nil
}

// runDeck sends every request of the deck from closed-loop clients, each
// waiting for its reply before taking the next request, and checks every
// reply against the reference counts.
func (s *serveRig) runDeck(r *run, tr *tracer, parent int, deck []request) []reqResult {
	out := make([]reqResult, len(deck))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < min(maxClients, r.workers); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(deck) {
					return
				}
				q := deck[i]
				res, rep, err := s.do(tr, parent, q)
				out[i] = res
				what := q.kind + " " + q.key
				if err != nil {
					r.fail(what, err)
					continue
				}
				want := r.want[q.key]
				if q.kind == kindEnumerate {
					want = min(want, enumerateLimit)
				}
				r.check(what, rep.Count, want)
			}
		}()
	}
	wg.Wait()
	return out
}

// getJSON fetches one of the server's JSON endpoints.
func (s *serveRig) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metrics derives the service layer's metrics from the requests sent and
// from the server's own /jobs and /metrics reports.
func (s *serveRig) metrics(results []reqResult, m metrics) error {
	var overhead, exec []float64
	var enumBytes, enumSecs float64
	for _, res := range results {
		switch {
		case !res.ok:
		case res.kind == kindEnumerate:
			enumBytes += float64(res.bytes)
			enumSecs += res.latency
		default:
			overhead = append(overhead, res.latency-res.planS-res.execS)
			exec = append(exec, res.execS)
		}
	}
	var jobs []service.JobInfo
	if err := s.getJSON("/jobs", &jobs); err != nil {
		return err
	}
	var queue []float64
	for _, j := range jobs {
		queue = append(queue, j.QueueSec)
	}
	var met service.Metrics
	if err := s.getJSON("/metrics", &met); err != nil {
		return err
	}
	m["service.overhead_p50_s"] = median(overhead)
	m["service.queue_p50_s"] = median(queue)
	m["service.exec_p50_s"] = median(exec)
	m["service.cache_hit_rate"] = met.HitRate
	m["service.enumerate_bytes_per_s"] = ratio(enumBytes, enumSecs)
	m["service.rejected"] = float64(met.Jobs.Rejected)
	return nil
}

// serviceLayer measures the service layer on a workload that does not
// drive a server itself: a fresh server on the workload's view answers a
// small deck of the workload's patterns.
func serviceLayer(r *run, g *graph.Graph, pats []benchPattern, m metrics) error {
	rig, err := startServe(r, g)
	if err != nil {
		return err
	}
	defer rig.close()
	sp := r.tr.begin("probe.service", 0)
	results := rig.runDeck(r, r.tr, sp, buildDeck(r.seed, pats, probeMix))
	r.tr.end(sp)
	return rig.metrics(results, m)
}

// serveMixed drives one in-process query server with closed-loop clients
// sending a fixed, seeded mix of cheap counts, isomorphic respellings,
// enumerate streams and profiled counts.
type serveMixed struct {
	size    serveMixedSizing
	path    string
	pats    []benchPattern
	deck    []request
	g       *graph.Graph
	rig     *serveRig
	results []reqResult // every pass's requests, for the service layer
}

func newServeMixed(size serveMixedSizing) *serveMixed {
	return &serveMixed{size: size, pats: []benchPattern{
		{"triangle", pattern.Triangle()},
		{"rectangle", pattern.Rectangle()},
		{"k4", pattern.Clique(4)},
	}}
}

func (w *serveMixed) input(r *run) error {
	w.deck = buildDeck(r.seed, w.pats, w.size.mix)
	var err error
	w.path, err = writeSnapshot(r, baGraph(w.size.n, w.size.m, r.seed))
	return err
}

// setup builds the view, starts the server and warms its plan cache with
// one count of every pattern.
func (w *serveMixed) setup(r *run, parent int) error {
	g, err := loadView(r, w.path, parent)
	if err != nil {
		return err
	}
	w.g = g
	sp := r.tr.begin("service.start", parent)
	w.rig, err = startServe(r, g)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	for _, bp := range w.pats {
		if _, _, err := w.rig.do(r.tr, parent, request{kind: kindCount, key: bp.key, spec: bp.key}); err != nil {
			return fmt.Errorf("warming %s: %w", bp.key, err)
		}
	}
	return nil
}

func (w *serveMixed) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}

func (w *serveMixed) reference(r *run) error {
	for _, bp := range w.pats {
		if _, err := r.expect(bp.key, w.g, bp.pat); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveMixed) pass(r *run, tr *tracer, parent int) []float64 {
	results := w.rig.runDeck(r, tr, parent, w.deck)
	w.results = append(w.results, results...)
	lat := make([]float64, 0, len(results))
	for _, res := range results {
		if res.ok {
			lat = append(lat, res.latency)
		}
	}
	return lat
}

func (w *serveMixed) layers(r *run, m metrics) error {
	if err := w.rig.metrics(w.results, m); err != nil {
		return err
	}
	plans, local, err := layerProbe(r, w.g, w.pats, m)
	if err != nil {
		return err
	}
	return clusterLayer(r, w.path, w.g, plans, local, m)
}
