package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// setupSamples is the least number of set-ups a run times; setup_s is
// their median.
const setupSamples = 9

// heapParts is the number of parts the heap pass runs.
const heapParts = 4

// maxInputs bounds the inputs one run may draw (see inputSeed).
const maxInputs = 1 << 16

// instance is one set-up part of a round: its inputs, the simulator over
// them and, when checked, the output checker it reports to.
type instance struct {
	s       *sim.Simulator
	chk     *checker
	buildNs time.Duration // trace build
	setup   time.Duration // trace build plus simulator construction
}

// seams are the optional wrappers of a part: a method to use instead of
// the registry's, a job-source wrapper and extra simulator options.
type seams struct {
	method sched.Method
	source func(trace.JobSource) trace.JobSource
	opts   []sim.Option
}

// inputSeed is the seed of input i (fewer than maxInputs) of a run seeded
// with seed, so that no two runs share an input.
func inputSeed(seed uint64, i int) uint64 { return seed<<16 | uint64(i) }

// setUp builds the trace and simulator of input i, and with checked an
// output checker, whose construction is left out of the timed set-up.
func (c *simCase) setUp(seed uint64, i int, checked bool, sm seams) (*instance, error) {
	if i >= maxInputs {
		return nil, fmt.Errorf("input %d: a run draws at most %d inputs", i, maxInputs)
	}
	ps := inputSeed(seed, i)
	t := clock()
	w, src := c.build(c.jobs, ps)
	built := clock() - t
	if src != nil && sm.source != nil {
		src = sm.source(src)
	}
	opts := c.options(ps, src)
	var chk *checker
	if checked {
		chk = c.checkerFor(w)
		opts = append(opts, sim.WithObserver(chk))
	}
	t = clock()
	m := sm.method
	if m == nil {
		var err error
		if m, err = c.newMethod(); err != nil {
			return nil, err
		}
	}
	s, err := sim.NewSimulator(w, m, append(opts, sm.opts...)...)
	if err != nil {
		return nil, err
	}
	return &instance{s: s, chk: chk, buildNs: built, setup: built + clock() - t}, nil
}

// checkerFor returns an output checker for a part over w.
func (c *simCase) checkerFor(w trace.Workload) *checker {
	if c.stream {
		return newChecker(w.System, c.jobs, 0, math.MaxInt64, false)
	}
	return checkerOf(w)
}

// finished is one part's run to the end.
type finished struct {
	res    *sim.Result
	steps  int64
	result time.Duration // the Result call
}

// finish steps s to the end and returns its Result. after, when non-nil,
// runs after every step with the step's number, its time by clock and
// whether it ran a scheduling pass.
func finish(s *sim.Simulator, after func(n int64, d time.Duration, pass bool) error) (finished, error) {
	var f finished
	for {
		inv := s.Invocations()
		t := clock()
		more, err := s.Step()
		d := clock() - t
		if err != nil {
			return f, err
		}
		if !more {
			break
		}
		f.steps++
		if after != nil {
			if err := after(f.steps, d, s.Invocations() != inv); err != nil {
				return f, err
			}
		}
	}
	t := clock()
	res, err := s.Result()
	f.res, f.result = res, clock()-t
	return f, err
}

// timing accumulates the timed rounds of a run, timed with clock.
type timing struct {
	rounds  int
	jobs    int64
	steps   int64
	run     time.Duration   // stepping plus Result, summed over rounds
	result  time.Duration   // the Result calls alone
	build   []float64       // trace build per part, ms
	setups  []float64       // set-up per round, s
	makes   []float64       // one round's run, s
	passLat []float64       // per scheduling pass, µs
	results [][]*sim.Result // by round and part
	rt      runtimeCounters // counted over the stepping alone
}

// rounds runs whole rounds until the budget is spent. Round r sets up
// every part p with setUp(r, p), runs it through drive's stepping and
// hands its Result to check.
func (c *simCase) rounds(budget time.Duration,
	setUp func(r, p int) (*instance, error),
	drive func(r, p int, in *instance) (finished, error),
	check func(r, p int, in *instance, res *sim.Result)) (*timing, error) {
	tm := &timing{}
	start := time.Now()
	var last time.Duration
	for tm.rounds == 0 || another(start, last, budget) {
		roundStart := time.Now()
		var setup, run time.Duration
		var jobs int64
		results := make([]*sim.Result, c.parts)
		for p := range c.parts {
			in, err := setUp(tm.rounds, p)
			if err != nil {
				return nil, err
			}
			r0 := readRuntime()
			t := clock()
			f, err := drive(tm.rounds, p, in)
			if err != nil {
				return nil, err
			}
			run += clock() - t
			tm.rt = tm.rt.add(readRuntime().sub(r0))
			check(tm.rounds, p, in, f.res)
			results[p] = f.res
			setup += in.setup
			jobs += int64(f.res.TotalJobs)
			tm.steps += f.steps
			tm.result += f.result
			tm.build = append(tm.build, float64(in.buildNs)/1e6)
		}
		tm.rounds++
		tm.jobs += jobs
		tm.run += run
		tm.makes = append(tm.makes, run.Seconds())
		tm.setups = append(tm.setups, setup.Seconds())
		tm.results = append(tm.results, results)
		last = time.Since(roundStart)
	}
	return tm, nil
}

// checkedRounds runs untraced rounds until the budget is spent, each on
// fresh inputs (round r runs inputs r·parts to r·parts+parts-1), checks
// every part's output as it runs and times every scheduling pass. Every
// round thus adds inputs to the run, which averages the cost of the
// seed's inputs as well as the timing.
func (c *simCase) checkedRounds(seed uint64, budget time.Duration, bad *problems) (*timing, error) {
	var lat []float64
	tm, err := c.rounds(budget,
		func(r, p int) (*instance, error) { return c.setUp(seed, r*c.parts+p, true, seams{}) },
		func(_, _ int, in *instance) (finished, error) {
			return finish(in.s, func(_ int64, d time.Duration, pass bool) error {
				if pass {
					lat = append(lat, micros(d))
				}
				return nil
			})
		},
		func(r, p int, in *instance, res *sim.Result) {
			if err := in.chk.finish(res); err != nil {
				bad.addf("round %d part %d output check: %v", r, p, err)
			}
		})
	if err != nil {
		return nil, err
	}
	tm.passLat = lat
	return tm, nil
}

// heapPass runs the first heapParts inputs of round 0 again, untimed,
// with the solver's fronts checked, and returns the median over them of
// the peak live heap above the baseline taken once the input is built,
// in MB. The live heap is sampled after forced collections about 64 times
// a part; the checker allocates all it needs before the baseline. Each
// part must reproduce its Result in round 0 of tm.
func (c *simCase) heapPass(seed uint64, tm *timing, bad *problems) (float64, error) {
	var peaks []float64
	for p := range min(heapParts, c.parts) {
		ps := inputSeed(seed, p)
		w, src := c.build(c.jobs, ps)
		chk := c.checkerFor(w)
		l := newLayers()
		m, err := c.newMethod()
		if err != nil {
			return 0, err
		}
		if c.backend != nil {
			m.(sched.SolverConfigurable).SetSolver(&solverProbe{inner: c.backend(), l: l})
		}
		base := liveHeap()
		s, err := sim.NewSimulator(w, m, append(c.options(ps, src), sim.WithObserver(chk))...)
		if err != nil {
			return 0, err
		}
		peak := base
		every := max(int64(c.jobs)/32, 1) // about two steps a job
		f, err := finish(s, func(n int64, _ time.Duration, _ bool) error {
			if n%every == 0 {
				peak = max(peak, liveHeap())
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		peak = max(peak, liveHeap())
		runtime.KeepAlive(w)
		peaks = append(peaks, float64(peak-base)/(1<<20))
		if err := chk.finish(f.res); err != nil {
			bad.addf("heap pass part %d output check: %v", p, err)
		}
		if err := l.bad.err(); err != nil {
			bad.addf("heap pass part %d solver check: %v", p, err)
		}
		if err := sameResult(tm.results[0][p], f.res); err != nil {
			bad.addf("heap pass part %d against round 0: %v", p, err)
		}
	}
	return median(peaks), nil
}

// liveHeap returns the live heap after two collections, the second of
// which also empties the sync.Pool caches the first one kept.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// topUpSetups times extra set-ups of whole rounds, on the inputs of the
// rounds after tm's, until there are setupSamples.
func (c *simCase) topUpSetups(seed uint64, tm *timing) error {
	for r := tm.rounds; len(tm.setups) < setupSamples; r++ {
		var setup time.Duration
		for p := range c.parts {
			in, err := c.setUp(seed, r*c.parts+p, false, seams{})
			if err != nil {
				return err
			}
			in.s.Close()
			setup += in.setup
			tm.build = append(tm.build, float64(in.buildNs)/1e6)
		}
		tm.setups = append(tm.setups, setup.Seconds())
	}
	return nil
}

func (c *simCase) run(cfg config) (*report, error) {
	if cfg.traced {
		return c.runTraced(cfg)
	}
	bad := &problems{}
	tm, err := c.checkedRounds(cfg.seed, cfg.budget, bad)
	if err != nil {
		return nil, err
	}
	heap, err := c.heapPass(cfg.seed, tm, bad)
	if err != nil {
		return nil, err
	}
	if err := c.topUpSetups(cfg.seed, tm); err != nil {
		return nil, err
	}
	if !bad.ok() {
		fmt.Fprintln(os.Stderr, c.name+":", bad.err())
	}
	makespan := median(tm.makes)
	m := values{
		"setup_s":         median(tm.setups),
		"jobs_per_s":      float64(tm.jobs) / float64(tm.rounds) / makespan,
		"decision_p50_us": quantile(tm.passLat, 0.50),
		"peak_heap_mb":    heap,
		"grid_makespan_s": makespan,
	}
	return &report{Correct: bad.ok(), Attempted: tm.jobs, Metrics: metricsOf(endToEnd, m)}, nil
}

// quality sets the §4.2 schedule-quality metrics, averaged over results.
func quality(m values, rs []*sim.Result) {
	var node, bb, wait, sd float64
	for _, r := range rs {
		node += r.NodeUsage
		bb += r.BBUsage
		wait += r.AvgWaitSec
		sd += r.AvgSlowdown
	}
	n := float64(len(rs))
	m["quality.node_util_pct"] = 100 * node / n
	m["quality.bb_util_pct"] = 100 * bb / n
	m["quality.avg_wait_s"] = wait / n
	m["quality.avg_slowdown"] = sd / n
}

// runtimeCounters are the allocation and GC CPU counters.
type runtimeCounters struct{ allocs, bytes, gcCPU, cpu float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs: float64(s[0].Value.Uint64()),
		bytes:  float64(s[1].Value.Uint64()),
		gcCPU:  s[2].Value.Float64(),
		cpu:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs + b.allocs, a.bytes + b.bytes, a.gcCPU + b.gcCPU, a.cpu + b.cpu}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

// setRuntime sets the runtime.* metrics from the counters d counted over
// untraced work of the given steps and jobs.
func setRuntime(m values, d runtimeCounters, steps, jobs int64) {
	m["runtime.allocs_per_step"] = d.allocs / float64(steps)
	m["runtime.alloc_bytes_per_job"] = d.bytes / float64(jobs)
	m["runtime.gc_cpu_pct"] = 100 * ratio(d.gcCPU, d.cpu)
}

// ckptCost is one checkpoint round trip's cost.
type ckptCost struct{ encodeMs, bytes, restoreMs float64 }

func (ck ckptCost) set(m values) {
	m["checkpoint.encode_ms"] = ck.encodeMs
	m["checkpoint.bytes"] = ck.bytes
	m["checkpoint.restore_ms"] = ck.restoreMs
}

// runTraced measures the workload in checked, untraced rounds for half
// the budget, then traced and profiled for the other half, and reports
// the per-layer metrics. Traced round r replays the inputs of untraced
// round r (modulo their number) and must return the same Results; the
// first also checkpoints part 0 at mid-run, restores the snapshot into a
// fresh simulator and runs that to the end as well. The runtime.*
// metrics count the untraced rounds' stepping alone, which leaves out
// the trace builds and the checkers' set-up. The whole run times with
// the wall clock, as the profiler makes the CPU clock coarse.
func (c *simCase) runTraced(cfg config) (*report, error) {
	defer func(prev func() time.Duration) { clock = prev }(clock)
	clock = wallTime
	bad := &problems{}
	plainTm, err := c.checkedRounds(cfg.seed, cfg.budget/2, bad)
	if err != nil {
		return nil, err
	}
	refs := plainTm.results
	input := func(r, p int) int { return (r%len(refs))*c.parts + p }

	l := newLayers()
	setUp := func(r, p int) (*instance, error) {
		m, err := c.newMethod()
		if err != nil {
			return nil, err
		}
		if c.backend != nil {
			m.(sched.SolverConfigurable).SetSolver(&solverProbe{inner: c.backend(), l: l, traced: true})
		}
		mir, err := newMirror(c.system(), l)
		if err != nil {
			return nil, err
		}
		return c.setUp(cfg.seed, input(r, p), false, seams{
			method: &methodProbe{inner: m, l: l},
			source: func(src trace.JobSource) trace.JobSource { return &sourceProbe{inner: src, l: l} },
			opts:   []sim.Option{sim.WithObserver(mir)},
		})
	}
	var ck ckptCost
	var stepSelf float64
	var aside time.Duration // checkpoint round trip, taken out of the run time
	drive := func(r, p int, in *instance) (finished, error) {
		return finish(in.s, func(n int64, d time.Duration, _ bool) error {
			stepSelf += float64(d - l.selectInStep)
			l.selectInStep = 0
			if r == 0 && p == 0 && n == int64(c.jobs) {
				t := clock()
				var err error
				ck, err = c.checkpointRoundTrip(cfg.seed, in, refs[0][0], bad)
				aside += clock() - t
				return err
			}
			return nil
		})
	}
	check := func(r, p int, _ *instance, res *sim.Result) {
		if err := sameResult(refs[r%len(refs)][p], res); err != nil {
			bad.addf("traced round %d part %d: %v", r, p, err)
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tm, err := c.rounds(cfg.budget/2, setUp, drive, check)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	tm.run -= aside
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := l.bad.err(); err != nil {
		bad.addf("traced run: %v", err)
	}
	if !bad.ok() {
		fmt.Fprintln(os.Stderr, c.name+":", bad.err())
	}

	m := l.values()
	m["sim.steps"] = float64(tm.steps)
	m["sim.step_self_us"] = mean(stepSelf, tm.steps) / 1e3
	m["sim.decision_p99_us"] = quantile(plainTm.passLat, 0.99)
	m["trace.build_ms"] = median(append(plainTm.build, tm.build...))
	m["metrics.result_ms"] = float64(tm.result) / 1e6 / float64(tm.rounds*c.parts)
	setRuntime(m, plainTm.rt, plainTm.steps, plainTm.jobs)
	ck.set(m)
	var all []*sim.Result
	for _, rs := range refs {
		all = append(all, rs...)
	}
	quality(m, all)
	setShares(m, shares)
	plainRate := float64(plainTm.jobs) / plainTm.run.Seconds()
	tracedRate := float64(tm.jobs) / tm.run.Seconds()
	m["bench.trace_overhead_pct"] = 100 * (plainRate/tracedRate - 1)
	return &report{Correct: bad.ok(), Attempted: plainTm.jobs + tm.jobs, Metrics: metricsOf(perLayer, m)}, nil
}

// checkpointRoundTrip snapshots in mid-run, restores the snapshot into a
// fresh simulator over a fresh method and inputs, and checks that the
// restored run finishes with ref.
func (c *simCase) checkpointRoundTrip(seed uint64, in *instance, ref *sim.Result, bad *problems) (ckptCost, error) {
	var ck ckptCost
	var buf bytes.Buffer
	t := clock()
	if err := in.s.Checkpoint(&buf); err != nil {
		return ck, fmt.Errorf("checkpoint: %w", err)
	}
	ck.encodeMs, ck.bytes = float64(clock()-t)/1e6, float64(buf.Len())
	ps := inputSeed(seed, 0)
	w, src := c.build(c.jobs, ps)
	m, err := c.newMethod()
	if err != nil {
		return ck, err
	}
	t = clock()
	s, err := sim.Restore(w, m, &buf, c.options(ps, src)...)
	if err != nil {
		return ck, fmt.Errorf("restore: %w", err)
	}
	ck.restoreMs = float64(clock()-t) / 1e6
	f, err := finish(s, nil)
	if err != nil {
		return ck, err
	}
	if err := sameResult(ref, f.res); err != nil {
		bad.addf("restored run: %v", err)
	}
	return ck, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
