package main

// The farm-sweep workload: an in-process coordinator and two HTTP
// workers on loopback sweep the paper's §4 methods × two seeds over short
// Theta-S4 and Cori-S2 traces, with periodic checkpoint uploads and tail
// speculation on, and no result cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"bbsched/internal/farm"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

const (
	// farmTraces is the number of Theta-S4 and of Cori-S2 traces a grid
	// sweeps.
	farmTraces  = 3
	farmWorkers = 2
	// farmDecisionTraces is the number of traces of each system in the
	// decision grid.
	farmDecisionTraces = 24
	// farmCheckpointEvents is the workers' checkpoint cadence in event
	// instants.
	farmCheckpointEvents = 10
)

// farmCase sweeps cells of jobs-job traces whose GA methods run the
// given number of generations.
type farmCase struct{ jobs, generations int }

// farmSweep runs the GA for 100 generations instead of the paper's 500
// so that one grid takes about a second.
var farmSweep = &farmCase{jobs: 30, generations: 100}

// grid returns the sweep for seed.
func (f *farmCase) grid(seed uint64) farm.Grid {
	var methods []farm.MethodSpec
	for _, m := range registry.Methods() {
		if m.Section4 {
			methods = append(methods, f.method(m.Name))
		}
	}
	return f.gridOf(seed, 0, farmTraces, methods)
}

// decisionGrid is BBSched alone over farmDecisionTraces further traces of
// each system, drawn after the grid's own. Its passes, with those of the
// grid's BBSched cells, give the farm's decision times: the grid alone
// holds six BBSched runs, too few for a median that does not move with
// the seed's inputs.
func (f *farmCase) decisionGrid(seed uint64) farm.Grid {
	return f.gridOf(seed, farmTraces, farmDecisionTraces, []farm.MethodSpec{f.method(bbschedTheta.method)})
}

// method returns the named method with the farm's GA configuration.
func (f *farmCase) method(name string) farm.MethodSpec {
	return farm.MethodSpec{Name: name, GA: moo.GAConfig{Generations: f.generations, Population: 20, MutationProb: 0.0005}}
}

// gridOf returns the sweep of methods over n Theta-S4 and n Cori-S2
// traces, on inputs first to first+n-1 of seed.
func (f *farmCase) gridOf(seed uint64, first, n int, methods []farm.MethodSpec) farm.Grid {
	var ws []farm.WorkloadSpec
	for p := first; p < first+n; p++ {
		ps := inputSeed(seed, p)
		ws = append(ws,
			farm.WorkloadSpec{Gen: trace.GenConfig{System: thetaSystem(), Jobs: f.jobs, Seed: ps, TargetLoad: saturated}, Variant: "S4", VariantSeed: ps},
			farm.WorkloadSpec{Gen: trace.GenConfig{System: coriSystem(), Jobs: f.jobs, Seed: ps, TargetLoad: saturated}, Variant: "S2", VariantSeed: ps})
	}
	return farm.Grid{
		Workloads:        ws,
		Methods:          methods,
		Seeds:            []uint64{seed},
		CheckpointEvents: farmCheckpointEvents,
	}
}

// sweep is one set-up grid: coordinator, loopback server and workers.
type sweep struct {
	coord   *farm.Coordinator
	srv     *http.Server
	served  chan error
	workers []*farm.Worker
	probes  []*rpcProbe
	setup   time.Duration
}

// setUp builds the coordinator, starts its server on a loopback port and
// builds the workers, with their calls probed when probed is set. hook,
// when non-nil, also runs after every step.
func (f *farmCase) setUp(g farm.Grid, workers int, probed bool, hook func(cell, steps int)) (*sweep, error) {
	t := time.Now()
	coord, err := farm.NewCoordinator(g)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	sw := &sweep{coord: coord, srv: &http.Server{Handler: coord.Handler()}, served: make(chan error, 1)}
	go func() { sw.served <- sw.srv.Serve(ln) }()
	for i := range workers {
		p := &rpcProbe{inner: http.DefaultTransport.(*http.Transport).Clone()}
		sw.probes = append(sw.probes, p)
		var rt http.RoundTripper = p.inner
		if probed {
			rt = p
		}
		w := &farm.Worker{
			Coordinator: "http://" + ln.Addr().String(),
			ID:          fmt.Sprintf("w%d", i),
			Client:      &http.Client{Transport: rt},
		}
		if hook != nil {
			w.StepHook = func(cell, steps int) error {
				hook(cell, steps)
				return nil
			}
		}
		sw.workers = append(sw.workers, w)
	}
	sw.setup = time.Since(t)
	return sw, nil
}

// run sweeps the grid and returns its runs in grid order and the
// makespan. The server and workers are stopped before it returns.
func (sw *sweep) run() ([]sim.SweepRun, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, len(sw.workers))
	t := time.Now()
	for i, w := range sw.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 2*time.Minute)
	runs, err := sw.coord.Wait(wctx)
	makespan := time.Since(t)
	wcancel()
	cancel()
	wg.Wait()
	sw.stop()
	if err != nil {
		return nil, 0, err
	}
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			return nil, 0, fmt.Errorf("worker: %w", e)
		}
	}
	return runs, makespan, nil
}

// stop shuts the server down and waits for it.
func (sw *sweep) stop() {
	sw.srv.Close()
	<-sw.served
	for _, p := range sw.probes {
		p.inner.CloseIdleConnections()
	}
	sw.coord.Close()
}

// rpcProbe is one worker's http.RoundTripper: it counts and times the
// worker's calls to the coordinator and, from the lease replies, splits
// the worker's time into busy (from a granted lease to the next lease
// request) and idle (from an empty lease reply to the next request).
type rpcProbe struct {
	inner   *http.Transport
	rpcs    int64
	rpcNs   float64
	bytesUp int64
	uploads int64
	busy    time.Duration
	idle    time.Duration
	since   time.Time
	granted bool
}

// RoundTrip implements http.RoundTripper.
func (p *rpcProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	t := time.Now()
	lease := req.URL.Path == "/lease"
	if lease && !p.since.IsZero() {
		if p.granted {
			p.busy += t.Sub(p.since)
		} else {
			p.idle += t.Sub(p.since)
		}
		p.since = time.Time{}
	}
	resp, err := p.inner.RoundTrip(req)
	p.rpcs++
	p.rpcNs += float64(time.Since(t))
	p.bytesUp += max(req.ContentLength, 0)
	if req.URL.Path == "/checkpoint" {
		p.uploads++
	}
	if err != nil || !lease || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lr farm.LeaseResponse
	if json.Unmarshal(body, &lr) == nil && !lr.Done {
		p.granted, p.since = lr.Cell >= 0, time.Now()
	}
	return resp, nil
}

// references are the in-process runs, through NewSimulator under the
// output checker, of every cell of the grid, whose farm results must
// equal them, and of the decision grid. They also give the CPU time, in
// µs, of every step of a BBSched run that ran a scheduling pass: the §4.4
// overhead of the paper's method. (The workers' own steps interleave with
// lease, upload and result calls that cannot be told apart from outside,
// and a percentile over all eight methods lands between their modes.)
// The runs are spread over the timed run, a few after every grid, and the
// two grids' cells alternate: the host's speed swings over seconds, and
// decision times taken in a few bursts moved by a third from run to run
// on the same inputs.
type references struct {
	cells   []refCell
	next    int // the next cell to run
	results []*sim.Result
	steps   int64 // over the grid's cells
	lat     []float64
	bad     *problems
}

// refCell is a cell to run in process and whether it is the grid's.
type refCell struct {
	farm.Cell
	grid bool
}

// refsPerGrid is the number of reference runs made after each grid.
const refsPerGrid = 8

func (f *farmCase) references(seed uint64, g farm.Grid, bad *problems) *references {
	a, b := g.Cells(), f.decisionGrid(seed).Cells()
	r := &references{bad: bad}
	for ia, ib := 0, 0; ia < len(a) || ib < len(b); {
		if ib == len(b) || (ia < len(a) && ia*len(b) <= ib*len(a)) {
			r.cells = append(r.cells, refCell{a[ia], true})
			ia++
		} else {
			r.cells = append(r.cells, refCell{b[ib], false})
			ib++
		}
	}
	return r
}

// run makes up to n more of the runs. They run on one processor, as the
// simulation workloads do, so that the process CPU clock counts only
// their own work and collections.
func (r *references) run(n int) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for ; n > 0 && r.next < len(r.cells); n-- {
		cell := r.cells[r.next]
		s, chk, err := cellSim(cell.Cell, true)
		if err != nil {
			return err
		}
		bbsched := cell.Method.Name == bbschedTheta.method
		fin, err := finish(s, func(_ int64, d time.Duration, pass bool) error {
			if pass && bbsched {
				r.lat = append(r.lat, micros(d))
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := chk.finish(fin.res); err != nil {
			r.bad.addf("cell %s/%s/%d output check: %v", fin.res.Workload, fin.res.Method, cell.Seed, err)
		}
		if cell.grid {
			r.results = append(r.results, fin.res)
			r.steps += fin.steps
		}
		r.next++
	}
	return nil
}

// finish makes the runs not yet made.
func (r *references) finish() error { return r.run(len(r.cells)) }

// cellSim builds the in-process simulator of a grid cell, with an output
// checker when checked.
func cellSim(cell farm.Cell, checked bool) (*sim.Simulator, *checker, error) {
	w, err := cell.Workload.Build()
	if err != nil {
		return nil, nil, err
	}
	m, err := cell.Method.Build(w.System.Cluster, cell.Solver)
	if err != nil {
		return nil, nil, err
	}
	opts, err := cell.Opts.Options()
	if err != nil {
		return nil, nil, err
	}
	opts = append(opts, sim.WithSeed(cell.Seed))
	var chk *checker
	if checked {
		chk = checkerOf(w)
		opts = append(opts, sim.WithObserver(chk))
	}
	s, err := sim.NewSimulator(w, m, opts...)
	return s, chk, err
}

// checkRuns compares a sweep's runs with the references.
func checkRuns(runs []sim.SweepRun, refs []*sim.Result, bad *problems) {
	if len(runs) != len(refs) {
		bad.addf("sweep returned %d cells, the grid has %d", len(runs), len(refs))
		return
	}
	for i, r := range runs {
		if r.Result == nil {
			bad.addf("cell %d (%s/%s/%d) did not complete", i, r.Workload, r.Method, r.Seed)
			continue
		}
		if err := sameResult(refs[i], r.Result); err != nil {
			bad.addf("cell %d (%s/%s/%d): %v", i, r.Workload, r.Method, r.Seed, err)
		}
	}
}

// farmTiming accumulates the timed grids of a run.
type farmTiming struct {
	grids      int
	cells      int64
	jobs       int64
	setups     []float64
	makespans  []float64
	total      time.Duration
	runs       [][]sim.SweepRun
	rpcs       int64
	rpcNs      float64
	bytesUp    int64
	uploads    int64
	busy, idle time.Duration
	steals     int
	stealWins  int
}

// timedGrids sweeps whole grids until the budget is spent, and calls
// between, when non-nil, after each.
func (f *farmCase) timedGrids(g farm.Grid, budget time.Duration, probed bool, between func() error) (*farmTiming, error) {
	ft := &farmTiming{}
	start := time.Now()
	var last time.Duration
	for ft.grids == 0 || another(start, last, budget) {
		gridStart := time.Now()
		sw, err := f.setUp(g, farmWorkers, probed, nil)
		if err != nil {
			return nil, err
		}
		runs, makespan, err := sw.run()
		if err != nil {
			return nil, err
		}
		ft.grids++
		ft.setups = append(ft.setups, sw.setup.Seconds())
		ft.makespans = append(ft.makespans, makespan.Seconds())
		ft.total += makespan
		ft.runs = append(ft.runs, runs)
		for _, r := range runs {
			ft.cells++
			if r.Result != nil {
				ft.jobs += int64(r.Result.TotalJobs)
			}
		}
		for _, p := range sw.probes {
			ft.rpcs += p.rpcs
			ft.rpcNs += p.rpcNs
			ft.bytesUp += p.bytesUp
			ft.uploads += p.uploads
			ft.busy += p.busy
			ft.idle += p.idle
		}
		st := sw.coord.Stats()
		ft.steals += st.Steals
		ft.stealWins += st.StealWins
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		last = time.Since(gridStart)
	}
	return ft, nil
}

// peakHeap sweeps one untimed grid with a single worker, so that the
// heap is sampled at the same points on every run: every 16 steps of a
// cell. It returns the peak live heap above the pre-sweep baseline, in MB.
func (f *farmCase) peakHeap(g farm.Grid) (float64, error) {
	base := liveHeap()
	peak := base
	sw, err := f.setUp(g, 1, false, func(_, steps int) {
		if steps%16 == 0 {
			peak = max(peak, liveHeap())
		}
	})
	if err != nil {
		return 0, err
	}
	if _, _, err := sw.run(); err != nil {
		return 0, err
	}
	return float64(peak-base) / (1 << 20), nil
}

func (f *farmCase) run(cfg config) (*report, error) {
	g := f.grid(cfg.seed)
	bad := &problems{}
	if cfg.traced {
		return f.runTraced(cfg, g, bad)
	}
	refs := f.references(cfg.seed, g, bad)
	ft, err := f.timedGrids(g, cfg.budget, false, func() error { return refs.run(refsPerGrid) })
	if err != nil {
		return nil, err
	}
	if err := refs.finish(); err != nil {
		return nil, err
	}
	heap, err := f.peakHeap(g)
	if err != nil {
		return nil, err
	}
	for len(ft.setups) < setupSamples {
		sw, err := f.setUp(g, farmWorkers, false, nil)
		if err != nil {
			return nil, err
		}
		sw.stop()
		ft.setups = append(ft.setups, sw.setup.Seconds())
	}
	for _, runs := range ft.runs {
		checkRuns(runs, refs.results, bad)
	}
	if !bad.ok() {
		fmt.Fprintln(os.Stderr, "farm-sweep:", bad.err())
	}
	m := values{
		"setup_s":         median(ft.setups),
		"jobs_per_s":      float64(ft.jobs) / float64(ft.grids) / median(ft.makespans),
		"decision_p50_us": quantile(refs.lat, 0.50),
		"peak_heap_mb":    heap,
		"grid_makespan_s": median(ft.makespans),
	}
	return &report{Correct: bad.ok(), Attempted: ft.cells, Metrics: metricsOf(endToEnd, m)}, nil
}

// runTraced sweeps untimed-probe grids for half the budget and probed,
// profiled grids for the other half, then checkpoints the first cell in
// process at mid-run and restores it.
func (f *farmCase) runTraced(cfg config, g farm.Grid, bad *problems) (*report, error) {
	rf := f.references(cfg.seed, g, bad)
	if err := rf.finish(); err != nil {
		return nil, err
	}
	refs, steps, lat := rf.results, rf.steps, rf.lat
	runtime.GC()
	r0 := readRuntime()
	plainFt, err := f.timedGrids(g, cfg.budget/2, false, nil)
	if err != nil {
		return nil, err
	}
	r1 := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ft, err := f.timedGrids(g, cfg.budget/2, true, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, runs := range append(plainFt.runs, ft.runs...) {
		checkRuns(runs, refs, bad)
	}
	ck, err := cellCheckpoint(g.Cells()[0], refs[0], bad)
	if err != nil {
		return nil, err
	}
	if !bad.ok() {
		fmt.Fprintln(os.Stderr, "farm-sweep:", bad.err())
	}
	grids := float64(ft.grids)
	m := values{
		"farm.rpcs":               float64(ft.rpcs) / grids,
		"farm.rpc_ms_mean":        mean(ft.rpcNs, ft.rpcs) / 1e6,
		"farm.bytes_up":           float64(ft.bytesUp) / grids,
		"farm.checkpoint_uploads": float64(ft.uploads) / grids,
		"farm.steals":             float64(ft.steals) / grids,
		"farm.steal_wins":         float64(ft.stealWins) / grids,
		"farm.worker_busy_pct":    100 * ratio(ft.busy.Seconds(), farmWorkers*ft.total.Seconds()),
		"farm.lease_idle_s":       ft.idle.Seconds() / grids,
	}
	m["sim.decision_p99_us"] = quantile(lat, 0.99)
	setRuntime(m, r1.sub(r0), steps*int64(plainFt.grids), plainFt.jobs)
	ck.set(m)
	quality(m, refs)
	setShares(m, shares)
	plainRate := float64(plainFt.jobs) / plainFt.total.Seconds()
	probedRate := float64(ft.jobs) / ft.total.Seconds()
	m["bench.trace_overhead_pct"] = 100 * (plainRate/probedRate - 1)
	return &report{Correct: bad.ok(), Attempted: plainFt.cells + ft.cells, Metrics: metricsOf(perLayer, m)}, nil
}

// cellCheckpoint runs a cell in process, checkpoints it at mid-run,
// restores the snapshot into a fresh simulator and checks that both
// finish with ref.
func cellCheckpoint(cell farm.Cell, ref *sim.Result, bad *problems) (ckptCost, error) {
	var ck ckptCost
	s, _, err := cellSim(cell, false)
	if err != nil {
		return ck, err
	}
	for range ref.SchedInvocations / 2 {
		if _, err := s.Step(); err != nil {
			return ck, err
		}
	}
	var buf bytes.Buffer
	t := time.Now()
	if err := s.Checkpoint(&buf); err != nil {
		return ck, err
	}
	ck.encodeMs, ck.bytes = float64(time.Since(t))/1e6, float64(buf.Len())
	w, err := cell.Workload.Build()
	if err != nil {
		return ck, err
	}
	m, err := cell.Method.Build(w.System.Cluster, cell.Solver)
	if err != nil {
		return ck, err
	}
	opts, err := cell.Opts.Options()
	if err != nil {
		return ck, err
	}
	t = time.Now()
	restored, err := sim.Restore(w, m, &buf, append(opts, sim.WithSeed(cell.Seed))...)
	if err != nil {
		return ck, err
	}
	ck.restoreMs = float64(time.Since(t)) / 1e6
	for _, s := range []*sim.Simulator{s, restored} {
		res, err := s.Run(context.Background())
		if err != nil {
			return ck, err
		}
		if err := sameResult(ref, res); err != nil {
			bad.addf("checkpointed cell: %v", err)
		}
	}
	return ck, nil
}
