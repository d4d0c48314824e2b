package cluster

import (
	"net"
	"testing"
	"time"

	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

func planFor(t testing.TB, g *graph.Graph, p *pattern.Pattern) *core.Config {
	t.Helper()
	res, err := core.Plan(p, g.Stats(), core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best
}

// startWorkers spins up n loopback TCP worker processes (goroutine-hosted
// cluster.Serve instances, each with its own listener) serving the graph g,
// and returns their addresses. Listeners are closed via t.Cleanup.
func startWorkers(t testing.TB, g *graph.Graph, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go Serve(ln, g, ServeOptions{})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// dialWorkers connects a TCP transport to loopback workers serving g and
// registers its teardown.
func dialWorkers(t testing.TB, g *graph.Graph, n int) Transport {
	t.Helper()
	tr, err := DialTCP(startWorkers(t, g, n), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// transportCase materializes one fabric for a (graph, nodes) pair: the
// channel transport simulates nodes in-process, the TCP transport spins up
// that many loopback worker processes. The same test bodies run against
// both — the conformance suite of the Transport contract.
type transportCase struct {
	name string
	// lossy marks fault-injected fabrics: one rank dies partway through every
	// multi-rank job. Counts must stay bit-identical regardless; assertions
	// about load-balance shape are skipped (a dead rank skews busy time).
	lossy bool
	open  func(t testing.TB, g *graph.Graph, nodes int) Transport
}

var transportCases = []transportCase{
	{name: "chan", open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return NewChanTransport()
	}},
	{name: "tcp", open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return dialWorkers(t, g, nodes)
	}},
	{name: "chan/faulty", lossy: true, open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return NewFaultyTransport(NewChanTransport(), -1, 2)
	}},
	{name: "tcp/faulty", lossy: true, open: func(t testing.TB, g *graph.Graph, nodes int) Transport {
		return NewFaultyTransport(dialWorkers(t, g, nodes), -1, 2)
	}},
}

func TestClusterMatchesSingleNode(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 77)
	p := pattern.House()
	cfg := planFor(t, g, p)
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, nodes := range []int{1, 2, 4} {
				tr := tc.open(t, g, nodes)
				for _, wpn := range []int{1, 3} {
					res, err := Run(cfg, g, Options{
						Nodes: nodes, WorkersPerNode: wpn, Transport: tr,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != want {
						t.Errorf("nodes=%d wpn=%d: count = %d, want %d", nodes, wpn, res.Count, want)
					}
					if len(res.Nodes) != nodes {
						t.Fatalf("nodes=%d: got %d rank stats", nodes, len(res.Nodes))
					}
					var tasksRun int64
					for _, ns := range res.Nodes {
						tasksRun += ns.TasksRun
					}
					if int(tasksRun) != res.Tasks {
						t.Errorf("nodes=%d: tasks run %d != created %d", nodes, tasksRun, res.Tasks)
					}
				}
			}
		})
	}
}

func TestClusterIEP(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 13)
	p := pattern.Cycle6Tri()
	cfg := planFor(t, g, p)
	want := cfg.CountIEP(g, core.RunOptions{Workers: 1})
	if plain := cfg.Count(g, core.RunOptions{Workers: 2}); plain != want {
		t.Errorf("IEP %d != plain %d", want, plain)
	}
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 3)
			res, err := Run(cfg, g, Options{
				Nodes: 3, WorkersPerNode: 2, UseIEP: true, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Errorf("cluster IEP = %d, want %d", res.Count, want)
			}
		})
	}
}

func TestWorkStealingFromStraggler(t *testing.T) {
	// Inject a slow node: work stealing must shift most tasks to healthy
	// nodes (the imbalance scenario of §IV-E).
	g := graph.BarabasiAlbert(600, 4, 3)
	p := pattern.Triangle()
	cfg := planFor(t, g, p)
	want := cfg.Count(g, core.RunOptions{Workers: 1})
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 3)
			res, err := Run(cfg, g, Options{
				Nodes: 3, WorkersPerNode: 1, ChunkSize: 4,
				NodeDelay: 2 * time.Millisecond, DelayedNode: 0,
				Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want {
				t.Fatalf("count = %d, want %d", res.Count, want)
			}
			healthy := res.Nodes[1].TasksRun + res.Nodes[2].TasksRun
			if healthy <= res.Nodes[0].TasksRun {
				t.Errorf("healthy nodes ran %d tasks vs straggler %d; stealing ineffective",
					healthy, res.Nodes[0].TasksRun)
			}
			if res.Nodes[1].StealsReceived+res.Nodes[2].StealsReceived == 0 {
				t.Error("no steals recorded despite straggler")
			}
		})
	}
}

func TestClusterTinyGraph(t *testing.T) {
	g := graph.Complete(6)
	p := pattern.Triangle()
	cfg := planFor(t, g, p)
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, 4)
			res, err := Run(cfg, g, Options{
				Nodes: 4, WorkersPerNode: 2, ChunkSize: 1, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != 20 {
				t.Errorf("K6 triangles = %d, want 20", res.Count)
			}
		})
	}
	// The empty graph short-circuits before any transport traffic.
	empty, _ := graph.FromEdges(0, nil)
	cfg2 := planFor(t, g, p)
	res, err := Run(cfg2, empty, Options{Nodes: 2})
	if err != nil || res.Count != 0 {
		t.Errorf("empty graph: %v %v", res, err)
	}
}

// starRingGraph builds a multi-hub variant of the extreme-skew fixture of the
// single-node balance test (core.TestEdgeParallelBalance): the `hubs`
// highest-id vertices are each adjacent to every lower vertex, plus a ring
// among the non-hub vertices. Under a restriction orientation that makes the
// higher-id endpoint the root, the hubs root essentially all the work, and
// as long as they share one vertex-range chunk, one task owns it.
//
// Busy shares are wall-clock measurements, so the fixture has to make the
// hub chunk dominate by a wide margin: with one hub the ring roots still
// take ~30% of the compute, and on an oversubscribed host scheduler noise
// pushes the hub rank's share below the test's gate. Three hubs raise the
// compute share of the hub chunk to ~90%.
func starRingGraph(n, hubs int) *graph.Graph {
	bld := graph.NewBuilder(n, (2+hubs)*n)
	first := uint32(n - hubs)
	for v := uint32(0); v+1 < first; v++ {
		bld.AddEdge(v, v+1)
	}
	for h := first; h < uint32(n); h++ {
		for v := uint32(0); v < h; v++ {
			bld.AddEdge(h, v)
		}
	}
	g, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// hubRootTriangle compiles a triangle configuration oriented so the max-id
// vertex (the hub) performs the candidate sweep.
func hubRootTriangle(t testing.TB) *core.Config {
	t.Helper()
	cfg, err := core.NewConfig(pattern.Triangle(),
		schedule.Schedule{Order: []uint8{0, 1, 2}},
		restrict.Set{{First: 0, Second: 1}, {First: 1, Second: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestClusterEdgeParallelBalance is the cluster-level analogue of
// core.TestEdgeParallelBalance, run as a conformance case on every
// transport: on the extreme-skew fixture, vertex-range tasks pin one node
// with nearly all the busy time (the hub's chunk is indivisible, so stealing
// cannot help), while edge-parallel slot tasks spread the hub's adjacency
// across many stealable tasks and the max per-node busy-time share collapses
// below 2x the ideal 1/Nodes share — even when one node is an injected
// straggler.
func TestClusterEdgeParallelBalance(t *testing.T) {
	const nodes, n, hubs, chunk = 4, 100000, 3, 64
	if (n-hubs)/chunk != (n-1)/chunk {
		t.Fatal("fixture hubs should share one vertex-range chunk")
	}
	// A large fixture keeps each run's busy time well above the length of an
	// OS time slice, so a descheduled worker cannot dominate its rank's share.
	g := starRingGraph(n, hubs)
	cfg := hubRootTriangle(t)
	if !cfg.EdgeParallelEligible(false) {
		t.Fatal("hub-root triangle should be edge-parallel eligible")
	}
	want := cfg.Count(g, core.RunOptions{Workers: 1, EdgeParallel: core.EdgeParallelOff})

	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.open(t, g, nodes)
			base := Options{Nodes: nodes, WorkersPerNode: 1, ChunkSize: chunk, Transport: tr}

			vopt := base
			vopt.EdgeParallel = core.EdgeParallelOff
			vres, err := Run(cfg, g, vopt)
			if err != nil {
				t.Fatal(err)
			}
			if vres.EdgeParallel {
				t.Fatal("EdgeParallelOff ran slot tasks")
			}
			if vres.Count != want {
				t.Fatalf("vertex-range count = %d, want %d", vres.Count, want)
			}

			eres, err := Run(cfg, g, base)
			if err != nil {
				t.Fatal(err)
			}
			if !eres.EdgeParallel {
				t.Fatal("auto mode should pack slot tasks for an eligible schedule")
			}
			if eres.Count != want {
				t.Fatalf("edge-parallel count = %d, want %d", eres.Count, want)
			}

			sopt := base
			sopt.NodeDelay = 200 * time.Microsecond
			sopt.DelayedNode = 1
			sres, err := Run(cfg, g, sopt)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Count != want {
				t.Fatalf("straggler edge-parallel count = %d, want %d", sres.Count, want)
			}

			if tc.lossy {
				// A rank died partway through each run; busy time is no
				// longer a balance signal. Exact counts above are the gate.
				return
			}
			vShare, eShare, sShare := vres.MaxBusyShare(), eres.MaxBusyShare(), sres.MaxBusyShare()
			t.Logf("max busy share: vertex %.3f (%d tasks), edge %.3f (%d tasks), edge+straggler %.3f",
				vShare, vres.Tasks, eShare, eres.Tasks, sShare)
			if vShare < 0.6 {
				t.Errorf("vertex-range tasks should serialize on the hub: max busy share %.3f", vShare)
			}
			bound := 2.0 / nodes
			if eShare >= bound {
				t.Errorf("edge-parallel max busy share %.3f, want < %.3f", eShare, bound)
			}
			if sShare >= bound {
				t.Errorf("edge-parallel max busy share with straggler %.3f, want < %.3f", sShare, bound)
			}
		})
	}
}

// TestClusterHybridEquivalence pins cluster.Run to the single-node engine
// across {chan, tcp} transports x {1, N} nodes x {vertex, edge}-parallel x
// {plain, IEP} on both the original and the Optimize()d (reordered + hub
// bitmaps) view of the graph, over the paper's named pattern suite. This is
// the bit-identical-counts acceptance gate for the transport layer.
func TestClusterHybridEquivalence(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 99)
	og := g.Reorder()
	og.BuildHubBitmaps(1<<22, 0)
	if og.NumHubs() == 0 {
		t.Fatal("fixture should have hub bitmaps")
	}
	pats := []*pattern.Pattern{
		pattern.Triangle(), pattern.Rectangle(), pattern.Pentagon(),
		pattern.House(), pattern.Cycle6Tri(),
	}
	for _, tc := range transportCases {
		t.Run(tc.name, func(t *testing.T) {
			for gi, dg := range []*graph.Graph{g, og} {
				for _, nodes := range []int{1, 3} {
					tr := tc.open(t, dg, nodes)
					for _, p := range pats {
						cfg := planFor(t, g, p)
						want := cfg.Count(g, core.RunOptions{Workers: 1})
						for _, useIEP := range []bool{false, true} {
							for _, mode := range []core.EdgeParallelMode{core.EdgeParallelOff, core.EdgeParallelOn} {
								res, err := Run(cfg, dg, Options{
									Nodes: nodes, WorkersPerNode: 2,
									UseIEP: useIEP, EdgeParallel: mode,
									Transport: tr,
								})
								if err != nil {
									t.Fatal(err)
								}
								if res.Count != want {
									t.Errorf("%s optimized=%v iep=%v nodes=%d mode=%d: count = %d, want %d",
										p.Name(), gi == 1, useIEP, nodes, mode, res.Count, want)
								}
							}
						}
					}
				}
			}
		})
	}
}

func TestClusterDefaultsNormalize(t *testing.T) {
	g := graph.GNP(50, 0.3, 5)
	p := pattern.Triangle()
	cfg := planFor(t, g, p)
	// Zero-valued options must normalize rather than hang or panic.
	res, err := Run(cfg, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != cfg.Count(g, core.RunOptions{Workers: 1}) {
		t.Error("default options wrong count")
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

// TestClusterMatchesCompiledTiers pins the cluster data plane (interpreted
// Counters on every rank) against the local compiled and generated
// execution tiers: the same configuration must produce bit-identical counts
// whichever side of the backend split runs it.
func TestClusterMatchesCompiledTiers(t *testing.T) {
	g := graph.BarabasiAlbert(300, 5, 31)
	cases := []struct {
		pat    *pattern.Pattern
		useIEP bool
	}{
		{pat: pattern.House(), useIEP: false},
		{pat: pattern.House(), useIEP: true},
		{pat: pattern.Pentagon(), useIEP: true},
		{pat: pattern.Clique(4), useIEP: false}, // generated-tier pattern
		{pat: pattern.Clique(5), useIEP: false},
	}
	for _, tc := range cases {
		cfg := planFor(t, g, tc.pat)
		for _, tier := range []core.Tier{core.TierCompiled, core.TierAuto} {
			var local int64
			if tc.useIEP {
				local = cfg.CountIEP(g, core.RunOptions{Workers: 2, Tier: tier})
			} else {
				local = cfg.Count(g, core.RunOptions{Workers: 2, Tier: tier})
			}
			res, err := Run(cfg, g, Options{
				Nodes: 3, WorkersPerNode: 2, UseIEP: tc.useIEP,
				Transport: NewChanTransport(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != local {
				t.Errorf("%s iep=%v: cluster %d, local tier %s %d",
					tc.pat, tc.useIEP, res.Count, tier, local)
			}
		}
	}
}
