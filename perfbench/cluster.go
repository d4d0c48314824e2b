package main

import (
	"net"
	"sync"
	"time"

	"graphpi/internal/cluster"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/telemetry"
)

// clusterTCPSizing sizes cluster-tcp's Barabási–Albert graph and names the
// fixed job sequence of one pass.
type clusterTCPSizing struct {
	n, m int
	jobs []string
}

var clusterTCPSize = clusterTCPSizing{
	n: 8000, m: 4,
	jobs: []string{"triangle", "rectangle", "house", "k4", "rectangle", "house"},
}

// clusterNodes is the number of TCP workers, each running one worker
// goroutine.
const clusterNodes = 2

// clusterRig is clusterNodes cluster.Serve workers on loopback listeners,
// each holding its own replica loaded from the snapshot, and the master's
// transport dialed to them.
type clusterRig struct {
	lns []net.Listener
	wg  sync.WaitGroup
	tr  cluster.Transport
}

func startCluster(r *run, path string, parent int) (*clusterRig, error) {
	c := &clusterRig{}
	var addrs []string
	for i := 0; i < clusterNodes; i++ {
		sp := r.tr.begin("cluster.worker", parent)
		g, err := loadView(r, path, sp)
		r.tr.end(sp)
		if err != nil {
			c.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.lns = append(c.lns, ln)
		addrs = append(addrs, ln.Addr().String())
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = cluster.Serve(ln, g, cluster.ServeOptions{Workers: 1}) // returns nil once close closes ln
		}()
	}
	sp := r.tr.begin("cluster.dial", parent)
	tr, err := cluster.DialTCP(addrs, cluster.DialOptions{})
	r.tr.end(sp)
	if err != nil {
		c.close()
		return nil, err
	}
	c.tr = tr
	return c, nil
}

// close hangs up on the workers, closes their listeners and waits for
// every Serve loop to return.
func (c *clusterRig) close() {
	if c.tr != nil {
		_ = c.tr.Close() // workers see a leave; nothing to recover
	}
	for _, ln := range c.lns {
		_ = ln.Close() // stops Serve; an error leaves nothing to clean up
	}
	c.wg.Wait()
}

// jobResult is one distributed job as the master saw it.
type jobResult struct {
	key     string
	latency float64
	tasks   int
	steals  int64
	share   float64
}

// job runs one distributed IEP count of p and checks it.
func (c *clusterRig) job(r *run, tr *tracer, parent int, g *graph.Graph, p *planned) (jobResult, bool) {
	sp := tr.begin("cluster.job", parent)
	t0 := time.Now()
	res, err := cluster.Run(p.cfg, g, cluster.Options{WorkersPerNode: 1, UseIEP: true, Transport: c.tr})
	lat := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		r.fail("job "+p.key, err)
		return jobResult{}, false
	}
	r.check("job "+p.key, res.Count, r.want[p.key])
	jr := jobResult{key: p.key, latency: lat, tasks: res.Tasks, share: res.MaxBusyShare()}
	for _, ns := range res.Nodes {
		jr.steals += ns.StealsReceived
	}
	return jr, true
}

// metrics derives the cluster layer's metrics from the jobs run and the
// transport's pool statistics. local holds each pattern's local count time
// on the same total number of workers.
func (c *clusterRig) metrics(jobs []jobResult, local map[string]float64, m metrics) {
	var tasks, steals float64
	var shares []float64
	byKey := map[string][]float64{}
	for _, j := range jobs {
		tasks += float64(j.tasks)
		steals += float64(j.steals)
		shares = append(shares, j.share)
		byKey[j.key] = append(byKey[j.key], j.latency)
	}
	var dist, loc float64
	for k, lats := range byKey {
		dist += median(lats)
		loc += local[k]
	}
	n := float64(len(jobs))
	m["cluster.tasks_per_job"] = ratio(tasks, n)
	m["cluster.steals_per_job"] = ratio(steals, n)
	m["cluster.max_busy_share"] = median(shares)
	m["cluster.local_ratio"] = ratio(dist, loc)
	var gap telemetry.HistogramSnapshot
	if ps, ok := c.tr.(cluster.PoolStatsProvider); ok {
		gap = ps.PoolStats().TaskGap
	}
	m["cluster.task_gap_p50_s"] = histQuantile(gap, 0.5)
}

// histQuantile returns the upper bound, in seconds, of the log2 bucket
// holding the q-quantile of a latency histogram (0 when empty).
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if float64(seen) >= q*float64(h.Count) {
			return float64(b.UpperNS) / 1e9
		}
	}
	return 0
}

// clusterLayer measures the cluster layer on a workload that does not run
// distributed jobs itself: fresh workers on the workload's snapshot run
// each plan as one job.
func clusterLayer(r *run, path string, g *graph.Graph, plans []*planned, local map[string]float64, m metrics) error {
	sp := r.tr.begin("probe.cluster", 0)
	defer r.tr.end(sp)
	c, err := startCluster(r, path, sp)
	if err != nil {
		return err
	}
	defer c.close()
	var jobs []jobResult
	for _, p := range plans {
		if jr, ok := c.job(r, r.tr, sp, g, p); ok {
			jobs = append(jobs, jr)
		}
	}
	c.metrics(jobs, local, m)
	return nil
}

// clusterTCP runs a fixed sequence of short distributed counting jobs
// against loopback TCP workers, so the wire is a large share of each job.
type clusterTCP struct {
	size  clusterTCPSizing
	path  string
	pats  []benchPattern // distinct patterns of the job sequence
	g     *graph.Graph
	rig   *clusterRig
	plans map[string]*planned
	jobs  []jobResult // every pass's jobs, for the cluster layer
}

func newClusterTCP(size clusterTCPSizing) *clusterTCP {
	w := &clusterTCP{size: size}
	seen := map[string]bool{}
	for _, name := range size.jobs {
		if !seen[name] {
			seen[name] = true
			p, err := pattern.Named(name)
			if err != nil {
				panic(err) // the job list is a constant of this file
			}
			w.pats = append(w.pats, benchPattern{name, p})
		}
	}
	return w
}

func (w *clusterTCP) input(r *run) error {
	var err error
	w.path, err = writeSnapshot(r, baGraph(w.size.n, w.size.m, r.seed))
	return err
}

// setup builds the master's view, starts and dials the workers, and plans
// every pattern of the job sequence.
func (w *clusterTCP) setup(r *run, parent int) error {
	g, err := loadView(r, w.path, parent)
	if err != nil {
		return err
	}
	w.g = g
	if w.rig, err = startCluster(r, w.path, parent); err != nil {
		return err
	}
	w.plans = map[string]*planned{}
	for _, bp := range w.pats {
		p, err := planPattern(r.tr, g, bp, parent)
		if err != nil {
			return err
		}
		w.plans[bp.key] = p
	}
	return nil
}

func (w *clusterTCP) teardown() {
	if w.rig != nil {
		w.rig.close()
		w.rig = nil
	}
}

func (w *clusterTCP) reference(r *run) error {
	for _, bp := range w.pats {
		if _, err := r.expect(bp.key, w.g, bp.pat); err != nil {
			return err
		}
	}
	return nil
}

func (w *clusterTCP) pass(r *run, tr *tracer, parent int) []float64 {
	lat := make([]float64, 0, len(w.size.jobs))
	for _, name := range w.size.jobs {
		if jr, ok := w.rig.job(r, tr, parent, w.g, w.plans[name]); ok {
			w.jobs = append(w.jobs, jr)
			lat = append(lat, jr.latency)
		}
	}
	return lat
}

func (w *clusterTCP) layers(r *run, m metrics) error {
	_, local, err := layerProbe(r, w.g, w.pats, m)
	if err != nil {
		return err
	}
	w.rig.metrics(w.jobs, local, m)
	return serviceLayer(r, w.g, w.pats, m)
}
