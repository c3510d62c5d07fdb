package main

// Tracing seams. Every layer is measured from outside the program,
// through interfaces it already exposes: the selection method and its
// solver (installed with SetSolver), the job source, a sim.Observer, and
// mirror queue, cluster and backfill objects kept in step with the event
// stream.

import (
	"time"

	"bbsched/internal/backfill"
	"bbsched/internal/cluster"
	"bbsched/internal/job"
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/queue"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// layers accumulates the per-layer counters of a traced run.
type layers struct {
	// method (core)
	selects      int64
	selectNs     []float64
	windowJobs   int64
	picks        int64
	picked       map[int]bool // job IDs the method picked in the current pass
	selectInStep time.Duration

	// solver, GA memo, LP shadow solves
	solves, dimSum, frontSum int64
	solveNs                  float64
	evalMisses, evalHits     uint64
	lpCold, lpColdIters      int64
	lpWarm, lpWarmAccepted   int64
	lpPrev                   *lp.Iterate

	// job source
	nexts  int64
	nextNs float64

	// mirror queue, cluster and backfill, and the event stream
	allocs, releases   int64
	allocNs, releaseNs float64
	starts, bfStarts   int64
	passes             int64
	depthSum, depthMax int64
	windowNs, planNs   float64
	windows            int64

	bad problems
}

func newLayers() *layers { return &layers{picked: make(map[int]bool)} }

// methodProbe wraps a selection method, timing each Select and counting
// the window it saw and the jobs it picked.
type methodProbe struct {
	inner sched.Method
	l     *layers
}

// Name implements sched.Method.
func (m *methodProbe) Name() string { return m.inner.Name() }

// Select implements sched.Method.
func (m *methodProbe) Select(ctx *sched.Context) ([]int, error) {
	t := clock()
	idx, err := m.inner.Select(ctx)
	d := clock() - t
	l := m.l
	l.selects++
	l.selectNs = append(l.selectNs, float64(d))
	l.selectInStep += d
	l.windowJobs += int64(len(ctx.Window))
	l.picks += int64(len(idx))
	for _, i := range idx {
		if i >= 0 && i < len(ctx.Window) {
			l.picked[ctx.Window[i].ID] = true
		}
	}
	return idx, err
}

// solverProbe wraps a window solver. It checks that every front it
// returns is mutually non-dominated and, traced, times the solve, reads
// the memoizing evaluator's cache counters and, for linear backends,
// runs shadow cold and warm LP relaxation solves on the window's linear
// form to count iterations.
type solverProbe struct {
	inner  solver.Solver
	l      *layers
	traced bool
}

// Name implements solver.Solver.
func (s *solverProbe) Name() string { return s.inner.Name() }

// Capabilities implements solver.Solver.
func (s *solverProbe) Capabilities() solver.Capabilities { return s.inner.Capabilities() }

// Solve implements solver.Solver.
func (s *solverProbe) Solve(p moo.Problem, opts solver.Options) ([]moo.Solution, error) {
	t := clock()
	front, err := s.inner.Solve(p, opts)
	d := clock() - t
	l := s.l
	if err == nil {
		if i, k, bad := dominated(front); bad {
			l.bad.addf("solver %s returned a front whose member %d %v dominates member %d %v",
				s.inner.Name(), i, front[i].Objectives, k, front[k].Objectives)
		}
	}
	if !s.traced {
		return front, err
	}
	l.solves++
	l.solveNs += float64(d)
	l.dimSum += int64(p.Dim())
	l.frontSum += int64(len(front))
	if ev, ok := p.(*moo.Evaluator); ok {
		st := ev.Stats()
		l.evalMisses += st.Misses
		l.evalHits += st.Hits
	}
	if s.inner.Capabilities().NeedsLinear {
		if form, ok := solver.Linearize(p); ok {
			_, cold := lp.SolveRelaxation(form, lp.DefaultConfig())
			l.lpCold++
			l.lpColdIters += int64(cold.Iters)
			_, warm, it := lp.SolveRelaxationWarm(form, lp.DefaultConfig(), l.lpPrev)
			if l.lpPrev != nil {
				l.lpWarm++
				if !warm.WarmRejected {
					l.lpWarmAccepted++
				}
			}
			l.lpPrev = &it
		}
	}
	return front, err
}

// sourceProbe wraps a job source, timing each Next.
type sourceProbe struct {
	inner trace.JobSource
	l     *layers
}

// Next implements trace.JobSource.
func (s *sourceProbe) Next() (*job.Job, error) {
	t := time.Now()
	j, err := s.inner.Next()
	s.l.nextNs += float64(time.Since(t))
	s.l.nexts++
	return j, err
}

// mirror is a sim.Observer that keeps its own queue, cluster and release
// timeline in step with the event stream, times the cluster calls the
// events imply, and after every scheduling pass times the queue window
// extraction and EASY plan the next pass starts from. A mirror whose
// machine disagrees with the program's is a check failure. It models no
// burst-buffer stage-out, which no workload has: a stage-out would show
// as a disagreement.
type mirror struct {
	sim.NopObserver
	l        *layers
	q        *queue.Queue
	cl       *cluster.Cluster
	tl       backfill.Timeline
	planner  backfill.Planner
	snap     cluster.Snapshot
	ready    []*job.Job
	done     map[int]bool
	depsDone func(int) bool
}

func newMirror(sys trace.SystemModel, l *layers) (*mirror, error) {
	pol, err := queue.ByName(string(sys.Policy))
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(sys.Cluster)
	if err != nil {
		return nil, err
	}
	if p := sys.PersistentBBGB; p > 0 {
		if err := cl.ReserveBB(-1, p); err != nil {
			return nil, err
		}
	}
	m := &mirror{l: l, q: queue.New(pol), cl: cl, done: make(map[int]bool)}
	m.depsDone = func(id int) bool { return m.done[id] }
	return m, nil
}

func (m *mirror) agree(ev sim.Event, what string) {
	if m.cl.UsedNodes() != ev.UsedNodes || m.cl.UsedBB() != ev.UsedBBGB || m.q.Len() != ev.Queued {
		m.l.bad.addf("t=%d after %s of job %d: mirror holds %d nodes / %d GB / %d queued, program %d / %d / %d",
			ev.T, what, ev.Job.ID, m.cl.UsedNodes(), m.cl.UsedBB(), m.q.Len(), ev.UsedNodes, ev.UsedBBGB, ev.Queued)
	}
}

// OnJobSubmit implements sim.Observer.
func (m *mirror) OnJobSubmit(ev sim.Event) {
	if err := m.q.Add(ev.Job); err != nil {
		m.l.bad.addf("mirror queue: %v", err)
	}
	m.agree(ev, "submit")
}

// OnJobStart implements sim.Observer.
func (m *mirror) OnJobStart(ev sim.Event) {
	j := ev.Job
	m.l.starts++
	if !m.l.picked[j.ID] {
		m.l.bfStarts++
	}
	if err := m.q.Remove(j.ID); err != nil {
		m.l.bad.addf("mirror queue: %v", err)
	}
	t := time.Now()
	a, err := m.cl.Allocate(j)
	m.l.allocNs += float64(time.Since(t))
	m.l.allocs++
	if err != nil {
		m.l.bad.addf("mirror cluster: job %d: %v", j.ID, err)
		return
	}
	m.tl.Insert(backfill.Running{ReleaseTime: ev.T + j.WalltimeEst, JobID: j.ID, NodesByClass: a.NodesByClass, BB: j.Demand.BB(), Extra: a.Extra})
	m.agree(ev, "start")
}

// OnJobEnd implements sim.Observer.
func (m *mirror) OnJobEnd(ev sim.Event) {
	j := ev.Job
	m.done[j.ID] = true
	m.tl.Remove(j.StartTime+j.WalltimeEst, j.ID)
	t := time.Now()
	err := m.cl.Release(j.ID)
	m.l.releaseNs += float64(time.Since(t))
	m.l.releases++
	if err != nil {
		m.l.bad.addf("mirror cluster: %v", err)
	}
	m.agree(ev, "end")
}

// OnSchedule implements sim.Observer.
func (m *mirror) OnSchedule(info sim.ScheduleInfo) {
	l := m.l
	l.passes++
	d := int64(info.QueueDepth)
	l.depthSum += d
	l.depthMax = max(l.depthMax, d)
	clear(l.picked)
	if m.q.Len() == 0 || m.cl.FreeNodes() == 0 {
		return
	}
	t := time.Now()
	m.ready = m.q.WindowInto(m.ready[:0], info.T, m.q.Len(), m.depsDone)
	t2 := time.Now()
	m.cl.SnapshotInto(&m.snap)
	m.planner.Plan(m.snap, &m.tl, m.ready, info.T)
	l.windowNs += float64(t2.Sub(t))
	l.planNs += float64(time.Since(t2))
	l.windows++
}

// values returns the per-layer metrics the probes and the mirror
// measured.
func (l *layers) values() values {
	sel := append([]float64(nil), l.selectNs...)
	var selSum float64
	for _, d := range sel {
		selSum += d
	}
	return values{
		"core.select_calls":       float64(l.selects),
		"core.select_us_mean":     mean(selSum, l.selects) / 1e3,
		"core.select_us_p99":      quantile(sel, 0.99) / 1e3,
		"core.window_jobs_mean":   mean(float64(l.windowJobs), l.selects),
		"core.picks_per_select":   mean(float64(l.picks), l.selects),
		"solver.solves":           float64(l.solves),
		"solver.solve_us_mean":    mean(l.solveNs, l.solves) / 1e3,
		"solver.dim_mean":         mean(float64(l.dimSum), l.solves),
		"solver.front_size_mean":  mean(float64(l.frontSum), l.solves),
		"moo.evals_per_solve":     mean(float64(l.evalMisses), l.solves),
		"moo.memo_hit_ratio":      ratio(float64(l.evalHits), float64(l.evalHits+l.evalMisses)),
		"lp.cold_iters_per_solve": mean(float64(l.lpColdIters), l.lpCold),
		"lp.warm_accept_ratio":    ratio(float64(l.lpWarmAccepted), float64(l.lpWarm)),
		"queue.depth_mean":        mean(float64(l.depthSum), l.passes),
		"queue.depth_max":         float64(l.depthMax),
		"queue.window_us_mean":    mean(l.windowNs, l.windows) / 1e3,
		"backfill.starts":         float64(l.bfStarts),
		"backfill.plan_us_mean":   mean(l.planNs, l.windows) / 1e3,
		"sim.passes":              float64(l.passes),
		"sim.starts":              float64(l.starts),
		"cluster.alloc_ns_mean":   mean(l.allocNs, l.allocs),
		"cluster.release_ns_mean": mean(l.releaseNs, l.releases),
		"trace.next_ns_mean":      mean(l.nextNs, l.nexts),
	}
}
