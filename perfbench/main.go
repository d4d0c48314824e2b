// Command perfbench is the repository's benchmark: one workload per run,
// its inputs generated from a seed, every count checked against a
// reference, and either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) printed as the last line of standard
// output. See README.md for the workloads and the metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload count-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// defaultSeed is the seed whose reference counts are recorded in refs.json.
const defaultSeed = 1

// Set-up is repeated until at least minSetups runs and setupFloorS seconds
// are spent (at most maxSetups runs); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 40
	setupFloorS = 0.5
)

// minPasses is the fewest passes a run makes, however long they take; a
// traced run needs one traced and one untraced pass.
const minPasses = 2

// run is the state one benchmark invocation shares across its stages.
type run struct {
	dir      string
	workload string
	seed     uint64
	seconds  float64
	workers  int
	tr       *tracer // nil when untraced

	// refs holds recorded reference counts in the refs.json format; nil
	// for a seed without them. They are parsed in the reference stage,
	// after resident_mb is measured.
	refs []byte
	// recorded holds refs' counts for this workload.
	recorded map[string]int64
	// want collects every reference count the run used, by pattern key.
	want map[string]int64

	mu        sync.Mutex
	attempted int      // guarded by mu
	failures  []string // guarded by mu
	detail    []any    // guarded by mu; per-pattern records for the trace file
}

// check records one checked operation: a count compared to its reference.
func (r *run) check(what string, got, want int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if got != want {
		r.failures = append(r.failures, fmt.Sprintf("%s: count %d, reference %d", what, got, want))
	}
}

// fail records one operation that returned an error instead of a count.
func (r *run) fail(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
}

// tracePath is where a traced run writes its spans.
func (r *run) tracePath() string {
	return filepath.Join(r.dir, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
}

// note appends a per-pattern record to the trace file's detail section.
func (r *run) note(rec any) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.detail = append(r.detail, rec)
}

// workload is one benchmark workload. execute calls input once, setup
// several times (timed; teardown between them), reference once, pass
// repeatedly for the timed window, and layers once in a traced run.
type workload interface {
	// input generates the seeded inputs and writes the input snapshot.
	input(r *run) error
	// setup builds the deployed view from the snapshot and warms the
	// workload (plans, server and cache, worker dial). Spans go under
	// parent.
	setup(r *run, parent int) error
	// teardown stops what setup started. It is safe to call twice.
	teardown()
	// reference resolves the reference count of every operation, outside
	// set-up and the timed window.
	reference(r *run) error
	// pass runs the workload's fixed operation list once and returns each
	// operation's latency in seconds. tr is nil for an untraced pass.
	pass(r *run, tr *tracer, parent int) []float64
	// layers measures the per-layer metrics a traced run reports, apart
	// from the graph layer and the trace overhead, which execute adds.
	layers(r *run, m metrics) error
}

// metrics maps a metric name to its value; units come from the metric
// tables.
type metrics map[string]float64

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the untraced run's metrics, the same for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"resident_mb", "MiB", "lower"},
	{"pass_s", "s", "lower"},
	{"op_p50_s", "s", "lower"},
	{"op_p90_s", "s", "lower"},
}

// perLayer lists the traced run's metrics, the same for every workload.
var perLayer = []metricDef{
	{"graph.load_s", "s", "lower"},
	{"graph.reorder_s", "s", "lower"},
	{"graph.hubs_s", "s", "lower"},
	{"plan.p50_s", "s", "lower"},
	{"plan.max_s", "s", "lower"},
	{"plan.candidates", "count", "lower"},
	{"plan.graphzero_ratio", "ratio", "higher"},
	{"plan.drift", "ratio", "lower"},
	{"compile.s", "s", "lower"},
	{"compile.tier.generated", "count", "higher"},
	{"compile.tier.compiled", "count", "higher"},
	{"compile.tier.interpret", "count", "lower"},
	{"exec.s", "s", "lower"},
	{"exec.candidates", "count", "lower"},
	{"exec.intersections", "count", "lower"},
	{"exec.kernel.merge", "count", "lower"},
	{"exec.kernel.gallop", "count", "lower"},
	{"exec.kernel.bitmap", "count", "higher"},
	{"exec.kernel.aux", "count", "higher"},
	{"exec.iep_counts", "count", "higher"},
	{"exec.prune_ratio", "ratio", "lower"},
	{"service.overhead_p50_s", "s", "lower"},
	{"service.queue_p50_s", "s", "lower"},
	{"service.exec_p50_s", "s", "lower"},
	{"service.cache_hit_rate", "ratio", "higher"},
	{"service.enumerate_bytes_per_s", "B/s", "higher"},
	{"service.rejected", "count", "lower"},
	{"cluster.tasks_per_job", "count", "lower"},
	{"cluster.steals_per_job", "count", "lower"},
	{"cluster.max_busy_share", "ratio", "lower"},
	{"cluster.task_gap_p50_s", "s", "lower"},
	{"cluster.local_ratio", "ratio", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// workloads maps each workload name to its constructor at benchmark size.
var workloads = map[string]func() workload{
	"count-hot":   func() workload { return newCountHot(countHotSize) },
	"plan-cold":   func() workload { return newPlanCold(planColdSize) },
	"serve-mixed": func() workload { return newServeMixed(serveMixedSize) },
	"cluster-tcp": func() workload { return newClusterTCP(clusterTCPSize) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload end to end and returns its result line.
func execute(r *run, w workload) (*result, error) {
	if r.want == nil {
		r.want = map[string]int64{}
	}
	if err := w.input(r); err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	var setups []float64
	for len(setups) < minSetups || (sum(setups) < setupFloorS && len(setups) < maxSetups) {
		w.teardown()
		runtime.GC() // every set-up starts from a collected heap
		sp := r.tr.begin("setup", 0)
		t0 := time.Now()
		err := w.setup(r, sp)
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(sp)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.teardown()
	resident := liveHeapMiB()

	if r.refs != nil {
		counts, err := loadRefs(r.refs)
		if err != nil {
			return nil, err
		}
		r.recorded = counts[r.workload]
	}
	sp := r.tr.begin("reference", 0)
	err := w.reference(r)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	// The timed window. A traced run alternates untraced and traced
	// passes, so the two halves see the same machine state and their
	// ratio is the tracing overhead. Every pass starts from a collected
	// heap: otherwise a collection owed to earlier passes' garbage lands
	// at a random point of a later one, stalling one of the workers a
	// parallel count waits for, and the pass-time tail measures where
	// collections fell rather than the pass. A pass that allocates more
	// than the collector's headroom still pays for its collections.
	var plain, traced, ops []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < r.seconds; i++ {
		var tr *tracer
		if r.tr != nil && i%2 == 1 {
			tr = r.tr
		}
		runtime.GC()
		sp := tr.begin("pass", 0)
		t0 := time.Now()
		lat := w.pass(r, tr, sp)
		d := time.Since(t0).Seconds()
		tr.end(sp)
		if tr == nil {
			plain = append(plain, d)
			ops = append(ops, lat...)
		} else {
			traced = append(traced, d)
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	if r.tr == nil {
		err := res.set(endToEnd, metrics{
			"setup_s":     median(setups),
			"resident_mb": resident,
			"pass_s":      median(plain),
			"op_p50_s":    quantile(ops, 0.5),
			"op_p90_s":    quantile(ops, 0.9),
		})
		if err != nil {
			return nil, err
		}
	} else {
		m := metrics{
			"graph.load_s":    median(r.tr.durations("graph.load")),
			"graph.reorder_s": median(r.tr.durations("graph.reorder")),
			"graph.hubs_s":    median(r.tr.durations("graph.hubs")),
			"trace.overhead":  median(traced) / median(plain),
		}
		sp := r.tr.begin("layers", 0)
		err := w.layers(r, m)
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		if err := res.set(perLayer, m); err != nil {
			return nil, err
		}
		if err := r.tr.write(r.tracePath(), r.detail); err != nil {
			return nil, err
		}
	}
	r.mu.Lock()
	res.Attempted, res.Failed = r.attempted, len(r.failures)
	r.mu.Unlock()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// set copies every metric of defs from m into the result line, failing
// when one was left unmeasured.
func (res *result) set(defs []metricDef, m metrics) error {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// liveHeapMiB is the live Go heap after a forced collection.
func liveHeapMiB() float64 {
	// Two cycles: objects parked in sync.Pools survive the first one.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runLimit bounds a whole run; a run still going then has hung, and exits
// without a result line.
const runLimit = 170 * time.Second

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain parses the command line, runs the workload and prints the
// result line. It returns the process exit code: 0 only for a run whose
// every count matched its reference.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: count-hot, plan-cold, serve-mixed or cluster-tcp")
		seed    = fs.Uint64("seed", defaultSeed, "input seed")
		seconds = fs.Float64("seconds", 10, "length of the timed window")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = fs.String("dir", ".bench_build", "directory for snapshots and trace files")
		record  = fs.String("record-refs", "", "compute the default seed's reference counts of every workload and write them to this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := recordRefs(*dir, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	r := &run{
		dir:      *dir,
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		workers:  runtime.GOMAXPROCS(0),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if *seed == defaultSeed {
		r.refs = refsJSON
	}
	return runAndReport(r, mk(), stdout, stderr)
}

// runAndReport executes the run and prints its result line. It returns 0
// only when every count matched its reference.
func runAndReport(r *run, w workload, stdout, stderr io.Writer) int {
	res, err := execute(r, w)
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.tr != nil {
		fmt.Fprintln(stderr, "trace written to", r.tracePath())
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
