// Command perfbench is the scheduler's end-to-end benchmark. One run
// replays one named workload for a fixed wall-clock budget, checks the
// program's outputs against properties computed here (not stored copies
// of earlier output), and prints one JSON line with the metrics:
//
//	perfbench --workload bbsched-theta --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run of the same workload.
// README.md lists the workloads, the metrics and the layer each one
// belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: attempted and failed count operations (one
// simulated job, or one farm grid cell).
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed   uint64
	budget time.Duration
	traced bool
}

// runner measures one workload.
type runner func(cfg config) (*report, error)

// workload is a runner and the processors its process gets. A simulation
// runs on one goroutine and gets one processor: garbage collection then
// shares the simulation's core instead of racing other tenants of the
// host for a second one, which on a shared two-core host made the same
// run both faster and steadier (bbsched-theta, one seed, twice each: 57.9
// and 58.1 jobs/s on one processor, 51.2 and 40.4 on two). The farm's two
// workers get the host's processors.
type workload struct {
	run   runner
	procs int // 0 keeps the default
}

var workloads = map[string]workload{
	"bbsched-theta":    {bbschedTheta.run, 1},
	"weighted-lp-cori": {weightedLPCori.run, 1},
	"stream-theta":     {streamTheta.run, 1},
	"farm-sweep":       {farmSweep.run, 0},
}

func main() {
	name := flag.String("workload", "", "workload to run: bbsched-theta, weighted-lp-cori, stream-theta or farm-sweep")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "wall-clock seconds of measured work")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	rep, err := w.run(config{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// another reports whether a run that started at start, and whose last
// round took last, starts another round: it stops at the round boundary
// nearest the budget, so that a run measures the budget on average
// whatever the length of its rounds.
func another(start time.Time, last, budget time.Duration) bool {
	return time.Since(start)+last/2 < budget
}

// metricSpec names a reported metric, its unit and which way is better.
type metricSpec struct{ name, unit, better string }

// endToEnd and perLayer list every reported metric in the order
// BENCHMARK.json lists them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"decision_p50_us", "us", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"grid_makespan_s", "s", "lower"},
}

var perLayer = []metricSpec{
	{"core.select_calls", "count", "lower"},
	{"core.select_us_mean", "us", "lower"},
	{"core.select_us_p99", "us", "lower"},
	{"core.window_jobs_mean", "jobs", "higher"},
	{"core.picks_per_select", "jobs", "higher"},
	{"solver.solves", "count", "lower"},
	{"solver.solve_us_mean", "us", "lower"},
	{"solver.dim_mean", "jobs", "higher"},
	{"solver.front_size_mean", "count", "higher"},
	{"moo.evals_per_solve", "count", "lower"},
	{"moo.memo_hit_ratio", "ratio", "higher"},
	{"lp.cold_iters_per_solve", "count", "lower"},
	{"lp.warm_accept_ratio", "ratio", "higher"},
	{"queue.depth_mean", "jobs", "lower"},
	{"queue.depth_max", "jobs", "lower"},
	{"queue.window_us_mean", "us", "lower"},
	{"backfill.starts", "count", "higher"},
	{"backfill.plan_us_mean", "us", "lower"},
	{"sim.steps", "count", "lower"},
	{"sim.passes", "count", "lower"},
	{"sim.starts", "count", "higher"},
	{"sim.step_self_us", "us", "lower"},
	{"sim.decision_p99_us", "us", "lower"},
	{"cluster.alloc_ns_mean", "ns", "lower"},
	{"cluster.release_ns_mean", "ns", "lower"},
	{"trace.next_ns_mean", "ns", "lower"},
	{"trace.build_ms", "ms", "lower"},
	{"metrics.result_ms", "ms", "lower"},
	{"runtime.allocs_per_step", "count", "lower"},
	{"runtime.alloc_bytes_per_job", "B", "lower"},
	{"runtime.gc_cpu_pct", "%", "lower"},
	{"checkpoint.encode_ms", "ms", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"checkpoint.restore_ms", "ms", "lower"},
	{"farm.rpcs", "count", "lower"},
	{"farm.rpc_ms_mean", "ms", "lower"},
	{"farm.bytes_up", "B", "lower"},
	{"farm.checkpoint_uploads", "count", "lower"},
	{"farm.steals", "count", "lower"},
	{"farm.steal_wins", "count", "higher"},
	{"farm.worker_busy_pct", "%", "higher"},
	{"farm.lease_idle_s", "s", "lower"},
	{"profile.sim_pct", "%", "lower"},
	{"profile.queue_pct", "%", "lower"},
	{"profile.backfill_pct", "%", "lower"},
	{"profile.cluster_pct", "%", "lower"},
	{"profile.moo_pct", "%", "lower"},
	{"profile.lp_pct", "%", "lower"},
	{"profile.metrics_pct", "%", "lower"},
	{"profile.trace_pct", "%", "lower"},
	{"profile.runtime_pct", "%", "lower"},
	{"quality.node_util_pct", "%", "higher"},
	{"quality.bb_util_pct", "%", "higher"},
	{"quality.avg_wait_s", "s", "lower"},
	{"quality.avg_slowdown", "ratio", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// values are measured metrics by name.
type values map[string]float64

// metricsOf returns every metric of list with its unit, taking each value
// from v; a metric v lacks reads 0 (a layer the workload bypasses). A
// value whose name is not in list is a programming error.
func metricsOf(list []metricSpec, v values) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	if len(out) != len(list) || len(v) > len(list) {
		panic("perfbench: metric list and values disagree")
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			panic("perfbench: unlisted metric " + name)
		}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(sum float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
