// Command perfbench is the repository benchmark. It runs one workload
// end to end through the system's public APIs, checks every output, and
// prints the result as one JSON object on the last line of standard
// output:
//
//	perfbench --workload lan-kvs --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run installs timing wrappers around the transport, application and
// WAL and reports the per-layer metrics, an attribution table and the
// tracing overhead instead. See BENCHMARK.json at the repository root for
// the workloads and what each metric is predicted to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lazarus/internal/metrics"
	"lazarus/internal/transport"
)

// quiescence is how long a run waits, load stopped, before it counts
// lagging replicas.
const quiescence = time.Second

// outDir holds what runs leave behind: span files and the last untraced
// result per workload (the tracing-overhead reference).
const outDir = ".bench_build/perfbench"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// run is one episode of a benchmark run: one deployment set up and
// measured through every phase of the workload.
type run struct {
	cfg  config
	seed int64         // the episode's seed, derived from --seed
	span time.Duration // the episode's share of --seconds
	tr   *tracer
	reg  *metrics.Registry
	apps *appSet
	base metrics.Snapshot // registry at the start of measurement

	model      *kvModel
	setupS     []float64
	open       *phase
	closed     *phase
	background []*phase

	extraAttempted, extraFailed int // read-back operations

	remediateS, swapS []float64 // per swap
	refreshS          []float64
	// swapWindows are the MonitorRound spans on remediate: requests that
	// overlap one are reported as swap.client_p99_ms, not in the
	// end-to-end latency.
	swapWindows [][2]time.Time
	stageMS     map[string][]float64 // per swap stage, benchmark-timed
	// walOutsideMS is the WAL append time per round outside the swap
	// stages, which the stage times already count (remediate, traced).
	walOutsideMS float64
	swapRetries  int
	violations   []string
	lagging      int

	netBase, netEnd transport.Stats
	collect         func(*run) // fills layer metrics specific to the workload
	layer           map[string]float64
	notes           []string
}

func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// notePhase records the protocol churn of the phase that just ended.
func (r *run) notePhase(name string) {
	snap := r.reg.Snapshot()
	vc, to := snap.Counters["bft.view_changes"], snap.Counters["bft.progress_timeouts"]
	r.note("%-12s view changes %4d, progress timeouts %4d (cumulative)", name+":", vc-r.base.Counters["bft.view_changes"], to-r.base.Counters["bft.progress_timeouts"])
}

// fresh gives the episode empty instruments.
func (r *run) fresh() {
	r.reg = metrics.NewRegistry()
	if r.cfg.trace {
		r.tr = newTracer()
	}
	r.apps = &appSet{tr: r.tr}
}

// measureFrom marks the end of set-up: layer metrics count from here.
func (r *run) measureFrom() {
	r.base = r.reg.Snapshot()
	if r.tr != nil {
		r.tr.mu.Lock()
		r.tr.spans, r.tr.dropped = nil, 0
		r.tr.layers = make(map[string]*layerTime)
		r.tr.mu.Unlock()
	}
}

// workloadSpec is one named workload: how many episodes a run splits into
// and what one episode does.
type workloadSpec struct {
	episodes int
	run      func(context.Context, *run) error
}

// Cluster workloads set up cheaply, so a run measures four independent
// deployments and pools their samples: set-up is timed four times, and
// no single deployment's luck decides the result. The remediate set-up
// (corpus and initial clustering) is too costly to repeat.
var workloads = map[string]workloadSpec{
	"lan-kvs":   {4, func(ctx context.Context, r *run) error { return r.runCluster(ctx, lanKVS) }},
	"wan-put":   {4, func(ctx context.Context, r *run) error { return r.runCluster(ctx, wanPut) }},
	"remediate": {1, func(ctx context.Context, r *run) error { return r.runRemediate(ctx) }},
}

// lanKVS: 4 replicas over loopback TCP, YCSB 50/50 zipfian with 1 kB
// values over a preloaded store. The pool stays within two clients: this
// is the workload that opens sockets, and four replicas already share
// the machine's cores.
var lanKVS = clusterSpec{
	tcp: true, openPool: 2, closedPool: 2, rate: 200,
	valSize: 1024, preload: 1000, keySpace: 1000, readShare: 0.5, zipf: true,
	timeout: 20 * time.Second, openShare: 0.45, closedShare: 0.25, swapEvery: time.Second / 2,
}

// wanPut: 4 replicas over the in-memory transport under the netem wan
// profile, adaptive timeouts, small write-only PUTs, no preload.
var wanPut = clusterSpec{
	netem: "wan", adaptive: true, openPool: 16, closedPool: 8, rate: 30,
	valSize: 64, keySpace: 128, readShare: 0,
	timeout: 60 * time.Second, openShare: 0.55, closedShare: 0.2, swapEvery: 3 * time.Second,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lan-kvs, wan-put or remediate")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Every phase is bounded by its own duration and timeouts; this is a
	// last-resort bound well inside the three-minute budget of a run.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var eps []*run
	for ep := 0; ep < wl.episodes; ep++ {
		r := &run{
			cfg:     cfg,
			seed:    cfg.seed*16 + int64(ep),
			span:    time.Duration(cfg.seconds) * time.Second / time.Duration(wl.episodes),
			stageMS: make(map[string][]float64),
			layer:   make(map[string]float64),
		}
		r.fresh()
		// Every episode starts from a collected heap, so the garbage of
		// the episodes before it does not tax it.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.note("start: heap %.1f MB, %d goroutines", float64(ms.HeapAlloc)/(1<<20), runtime.NumGoroutine())
		if err := wl.run(ctx, r); err != nil {
			return fmt.Errorf("%s episode %d: %w", cfg.workload, ep, err)
		}
		if r.model != nil {
			r.violations = append(r.violations, r.model.failures()...)
		}
		r.violations = append(r.violations, checkAppHistories(r.apps.list())...)
		r.apps.release()
		eps = append(eps, r)
	}
	return report(os.Stdout, cfg, eps)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func lastPath(workload string) string {
	return filepath.Join(outDir, "last-untraced-"+workload+".json")
}

// writeJSON writes v to path.
func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rngFor derives an independent stream for one purpose from the seed.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}
