package main

// Output checks. Each is a property the scheduler's output must have,
// computed here from the event stream and the inputs; none compares
// against a stored copy of earlier output.

import (
	"fmt"
	"math"

	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/sim"
	"bbsched/internal/trace"
)

// relTol is the agreement required between a metric the program reports
// and the benchmark's recomputation: the two sum in different orders, so
// bit equality is the wrong test.
const relTol = 1e-9

// slowdownFloor is the bounded-slowdown denominator floor in seconds
// (§4.2; the simulator's default).
const slowdownFloor = 60

// problems gathers check failures, keeping the first few messages.
type problems struct {
	n    int
	msgs []string
}

func (p *problems) addf(format string, args ...any) {
	p.n++
	if len(p.msgs) < 5 {
		p.msgs = append(p.msgs, fmt.Sprintf(format, args...))
	}
}

func (p *problems) ok() bool { return p.n == 0 }

func (p *problems) err() error {
	if p.n == 0 {
		return nil
	}
	return fmt.Errorf("%d check failures, first: %v", p.n, p.msgs)
}

// jobRecord is what the checker saw of one job.
type jobRecord struct {
	submit, runtime, stageOut int64
	start, end                int64
	nodes                     int
	bb                        int64
	deps                      []int // aliases the job's own list
	submitted, started        bool
	ended, released           bool
}

// checker is a sim.Observer that verifies every job event against the
// job's own submission and the machine's capacity, sums the running
// jobs' demand itself, and integrates node usage for the recomputed §4.2
// metrics.
type checker struct {
	sim.NopObserver
	nodes      int
	bbCap      int64
	persistent int64
	// measured interval [from, to]: per-job metrics cover jobs submitted
	// inside it; node usage is integrated over it.
	from, to int64
	windowed bool

	jobs      []jobRecord // by job ID
	submitted int
	usedNodes int
	usedBB    int64
	lastT     int64
	nodeSec   float64
	bad       problems
}

// newChecker returns a checker for a run of jobs jobs (dense IDs from 0)
// on sys whose per-job metrics cover jobs submitted in [from, to];
// windowed says the usage integral is clipped to that interval too
// (otherwise it spans the whole run). All its memory is taken here, so
// that it adds nothing to a heap measured during the run.
func newChecker(sys trace.SystemModel, jobs int, from, to int64, windowed bool) *checker {
	return &checker{
		nodes:      sys.Cluster.Nodes,
		bbCap:      sys.Cluster.BurstBufferGB,
		persistent: sys.PersistentBBGB,
		usedBB:     sys.PersistentBBGB,
		from:       from, to: to, windowed: windowed,
		jobs: make([]jobRecord, jobs),
	}
}

// record returns the record of the event's job, or nil for an ID
// outside the trace.
func (c *checker) record(ev sim.Event) *jobRecord {
	if id := ev.Job.ID; id >= 0 && id < len(c.jobs) {
		return &c.jobs[id]
	}
	c.bad.addf("event for job %d of a %d-job trace", ev.Job.ID, len(c.jobs))
	return nil
}

// measureWindow returns the measured interval of a materialized trace:
// the simulator's default trim of a tenth of the submission horizon at
// each end.
func measureWindow(jobs []*job.Job) (from, to int64) {
	var horizon int64
	for _, j := range jobs {
		horizon = max(horizon, j.SubmitTime)
	}
	return int64(float64(horizon) * 0.1), horizon - int64(float64(horizon)*0.1)
}

// checkerOf returns the checker of a run over the materialized trace w
// with the simulator's default measured interval.
func checkerOf(w trace.Workload) *checker {
	from, to := measureWindow(w.Jobs)
	return newChecker(w.System, len(w.Jobs), from, to, to > from)
}

// advance integrates node usage up to t.
func (c *checker) advance(t int64) {
	if t < c.lastT {
		c.bad.addf("event at %d after event at %d", t, c.lastT)
		return
	}
	lo, hi := c.lastT, t
	if c.windowed {
		lo, hi = max(lo, c.from), min(hi, c.to)
	}
	if hi > lo {
		c.nodeSec += float64(c.usedNodes) * float64(hi-lo)
	}
	c.lastT = t
}

func (c *checker) usage(ev sim.Event, what string) {
	if ev.UsedNodes != c.usedNodes || ev.UsedBBGB != c.usedBB {
		c.bad.addf("t=%d after %s of job %d: program reports %d nodes / %d GB used, running jobs hold %d / %d",
			ev.T, what, ev.Job.ID, ev.UsedNodes, ev.UsedBBGB, c.usedNodes, c.usedBB)
	}
	if c.usedNodes > c.nodes || c.usedBB > c.bbCap || c.usedNodes < 0 || c.usedBB < c.persistent {
		c.bad.addf("t=%d after %s of job %d: %d nodes / %d GB in use on a %d-node, %d GB machine",
			ev.T, what, ev.Job.ID, c.usedNodes, c.usedBB, c.nodes, c.bbCap)
	}
}

// OnJobSubmit implements sim.Observer.
func (c *checker) OnJobSubmit(ev sim.Event) {
	j := ev.Job
	r := c.record(ev)
	if r == nil || r.submitted {
		c.bad.addf("job %d submitted twice", j.ID)
		return
	}
	if ev.T != j.SubmitTime {
		c.bad.addf("job %d submitted at %d, its submit time is %d", j.ID, ev.T, j.SubmitTime)
	}
	c.advance(ev.T)
	*r = jobRecord{
		submit: j.SubmitTime, runtime: j.Runtime, stageOut: j.StageOutSec,
		nodes: j.Demand.NodeCount(), bb: j.Demand.BB(),
		deps: j.Deps, submitted: true,
	}
	c.submitted++
	c.usage(ev, "submit")
}

// OnJobStart implements sim.Observer.
func (c *checker) OnJobStart(ev sim.Event) {
	r := c.record(ev)
	if r == nil || !r.submitted || r.started {
		c.bad.addf("job %d started twice or before submission", ev.Job.ID)
		return
	}
	if ev.T < r.submit {
		c.bad.addf("job %d started at %d before its submit time %d", ev.Job.ID, ev.T, r.submit)
	}
	for _, d := range r.deps {
		if d < 0 || d >= len(c.jobs) || !c.jobs[d].ended || c.jobs[d].end > ev.T {
			c.bad.addf("job %d started at %d before its dependency %d finished", ev.Job.ID, ev.T, d)
		}
	}
	c.advance(ev.T)
	r.started, r.start = true, ev.T
	c.usedNodes += r.nodes
	c.usedBB += r.bb
	c.usage(ev, "start")
}

// OnJobEnd implements sim.Observer.
func (c *checker) OnJobEnd(ev sim.Event) {
	r := c.record(ev)
	if r == nil || !r.started || r.ended {
		c.bad.addf("job %d ended twice or without starting", ev.Job.ID)
		return
	}
	if ev.T != r.start+r.runtime {
		c.bad.addf("job %d ran %d s, its runtime is %d s", ev.Job.ID, ev.T-r.start, r.runtime)
	}
	c.advance(ev.T)
	r.ended, r.end = true, ev.T
	c.usedNodes -= r.nodes
	if r.stageOut == 0 || r.bb == 0 {
		c.usedBB -= r.bb
		r.released = true
	}
	c.usage(ev, "end")
}

// OnBBRelease implements sim.Observer.
func (c *checker) OnBBRelease(ev sim.Event) {
	r := c.record(ev)
	if r == nil || !r.ended || r.released {
		c.bad.addf("job %d burst buffer released twice or before the job ended", ev.Job.ID)
		return
	}
	if ev.T != r.end+r.stageOut {
		c.bad.addf("job %d burst buffer drained for %d s, its stage-out is %d s", ev.Job.ID, ev.T-r.end, r.stageOut)
	}
	c.advance(ev.T)
	r.released = true
	c.usedBB -= r.bb
	c.usage(ev, "burst-buffer release")
}

// finish checks the end state and recomputes the §4.2 metrics of res
// from the recorded events: every job ran to completion exactly once, and
// AvgWaitSec, AvgSlowdown and NodeUsage agree within relTol.
func (c *checker) finish(res *sim.Result) error {
	c.advance(res.MakespanSec)
	if c.submitted != res.TotalJobs || c.submitted != len(c.jobs) {
		c.bad.addf("saw %d jobs submitted of a %d-job trace, the program reports %d", c.submitted, len(c.jobs), res.TotalJobs)
	}
	var waitSum, sdSum float64
	measured := 0
	for id, r := range c.jobs {
		if !r.submitted {
			continue
		}
		if !r.ended || !r.released {
			c.bad.addf("job %d never finished", id)
			continue
		}
		if r.submit < c.from || r.submit > c.to {
			continue
		}
		measured++
		wait := float64(r.start - r.submit)
		waitSum += wait
		sdSum += (wait + float64(r.runtime)) / float64(max(r.runtime, slowdownFloor))
	}
	if measured != res.MeasuredJobs || measured != res.CompletedJobs {
		c.bad.addf("%d jobs in the measured interval, the program measured %d (%d completed)", measured, res.MeasuredJobs, res.CompletedJobs)
	}
	span := float64(res.MakespanSec)
	if c.windowed {
		span = float64(c.to - c.from)
	}
	if measured > 0 {
		agree(&c.bad, "AvgWaitSec", res.AvgWaitSec, waitSum/float64(measured))
		agree(&c.bad, "AvgSlowdown", res.AvgSlowdown, sdSum/float64(measured))
	}
	if span > 0 {
		agree(&c.bad, "NodeUsage", res.NodeUsage, c.nodeSec/(float64(c.nodes)*span))
	}
	return c.bad.err()
}

func agree(p *problems, name string, got, want float64) {
	if math.Abs(got-want) > relTol*math.Max(math.Abs(want), 1e-300) {
		p.addf("%s: program reports %v, recomputed %v", name, got, want)
	}
}

// sameResult reports whether two Results are equal in every field except
// the wall-clock decision times, and if not, why.
func sameResult(a, b *sim.Result) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing result")
	}
	x, y := *a, *b
	x.AvgDecisionTime, x.MaxDecisionTime = 0, 0
	y.AvgDecisionTime, y.MaxDecisionTime = 0, 0
	if fmt.Sprintf("%+v", x) != fmt.Sprintf("%+v", y) {
		return fmt.Errorf("results differ:\n  %+v\n  %+v", x, y)
	}
	return nil
}

// dominated returns the first pair (i, k) of front members where i
// dominates k: at least as good in every maximized objective and better
// in one. ok is false when the front is mutually non-dominated.
func dominated(front []moo.Solution) (i, k int, ok bool) {
	for i := range front {
		for k := range front {
			if i != k && dominates(front[i].Objectives, front[k].Objectives) {
				return i, k, true
			}
		}
	}
	return 0, 0, false
}

func dominates(a, b []float64) bool {
	better := false
	for n := range a {
		if a[n] < b[n] {
			return false
		}
		if a[n] > b[n] {
			better = true
		}
	}
	return better
}
