package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bbsched/internal/job"
	"bbsched/internal/moo"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// tinyMachine is a 10-node, 100 GB machine.
func tinyMachine() trace.SystemModel {
	sys := thetaSystem()
	sys.Cluster.Nodes, sys.Cluster.BurstBufferGB = 10, 100
	return sys
}

func ev(t int64, j *job.Job, nodes int, bb int64) sim.Event {
	return sim.Event{T: t, Job: j, UsedNodes: nodes, UsedBBGB: bb}
}

func mustFail(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("check passed a broken output or failed for another reason: got %v, want %q", err, want)
	}
}

func TestCheckerRejectsStartBeforeSubmit(t *testing.T) {
	c := newChecker(tinyMachine(), 2, 0, 1000, true)
	j := job.MustNew(0, 100, 50, 60, job.NewDemand(2, 0, 0))
	c.OnJobSubmit(ev(100, j, 0, 0))
	c.OnJobStart(ev(90, j, 2, 0))
	mustFail(t, c.bad.err(), "before its submit time")
}

func TestCheckerRejectsUsageAboveCapacity(t *testing.T) {
	c := newChecker(tinyMachine(), 2, 0, 1000, true)
	a := job.MustNew(0, 0, 50, 60, job.NewDemand(8, 0, 0))
	b := job.MustNew(1, 0, 50, 60, job.NewDemand(4, 0, 0))
	c.OnJobSubmit(ev(0, a, 0, 0))
	c.OnJobSubmit(ev(0, b, 0, 0))
	c.OnJobStart(ev(0, a, 8, 0))
	if err := c.bad.err(); err != nil {
		t.Fatalf("a valid start was rejected: %v", err)
	}
	c.OnJobStart(ev(0, b, 12, 0))
	mustFail(t, c.bad.err(), "in use on a 10-node")
}

func TestCheckerRejectsUsageTheProgramMisreports(t *testing.T) {
	c := newChecker(tinyMachine(), 2, 0, 1000, true)
	j := job.MustNew(0, 0, 50, 60, job.NewDemand(3, 20, 0))
	c.OnJobSubmit(ev(0, j, 0, 0))
	c.OnJobStart(ev(0, j, 3, 10))
	mustFail(t, c.bad.err(), "running jobs hold 3 / 20")
}

func TestCheckerRejectsWrongRuntimeAndEarlyDependency(t *testing.T) {
	c := newChecker(tinyMachine(), 2, 0, 1000, true)
	a := job.MustNew(0, 0, 50, 60, job.NewDemand(1, 0, 0))
	b := job.MustNew(1, 0, 50, 60, job.NewDemand(1, 0, 0))
	b.Deps = []int{0}
	c.OnJobSubmit(ev(0, a, 0, 0))
	c.OnJobSubmit(ev(0, b, 0, 0))
	c.OnJobStart(ev(0, a, 1, 0))
	c.OnJobStart(ev(10, b, 2, 0))
	mustFail(t, c.bad.err(), "before its dependency 0 finished")
	c.OnJobEnd(ev(40, a, 1, 0))
	mustFail(t, c.bad.err(), "ran 40 s, its runtime is 50 s")
}

// TestCheckerAcceptsARealRunAndRejectsAlteredMetrics runs a small trace
// through the simulator under the checker, then alters each recomputed
// metric of the Result in turn.
func TestCheckerAcceptsARealRunAndRejectsAlteredMetrics(t *testing.T) {
	w := variant(thetaSystem(), 60, saturated, "S4", 3)
	c := checkerOf(w)
	m, err := bbschedTheta.newMethod()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewSimulator(w, m, sim.WithSeed(3), sim.WithObserver(c))
	if err != nil {
		t.Fatal(err)
	}
	f, err := finish(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.finish(f.res); err != nil {
		t.Fatalf("a correct run failed the checks: %v", err)
	}
	for _, alter := range []struct {
		name string
		f    func(r *sim.Result)
	}{
		{"AvgWaitSec", func(r *sim.Result) { r.AvgWaitSec *= 1 + 1e-6 }},
		{"AvgSlowdown", func(r *sim.Result) { r.AvgSlowdown += 1e-6 }},
		{"NodeUsage", func(r *sim.Result) { r.NodeUsage *= 0.999 }},
		{"measured", func(r *sim.Result) { r.MeasuredJobs-- }},
	} {
		c.bad = problems{}
		r := *f.res
		alter.f(&r)
		mustFail(t, c.finish(&r), alter.name)
	}
}

func TestDominatedFrontMemberIsRejected(t *testing.T) {
	front := []moo.Solution{
		{Objectives: []float64{3, 1}},
		{Objectives: []float64{1, 3}},
		{Objectives: []float64{1, 1}},
	}
	if i, k, bad := dominated(front); !bad || k != 2 || (i != 0 && i != 1) {
		t.Fatalf("dominated(%v) = %d, %d, %v; want member 2 dominated", front, i, k, bad)
	}
	if _, _, bad := dominated(front[:2]); bad {
		t.Fatal("a mutually non-dominated front was rejected")
	}
	l := newLayers()
	p := &solverProbe{inner: fixedFront(front), l: l}
	if _, err := p.Solve(nil, solver.Options{}); err != nil {
		t.Fatal(err)
	}
	mustFail(t, l.bad.err(), "dominates member 2")
}

// fixedFront is a solver that returns the same front for any problem.
type fixedFront []moo.Solution

func (f fixedFront) Name() string                      { return "fixed" }
func (f fixedFront) Capabilities() solver.Capabilities { return solver.Capabilities{ParetoFront: true} }
func (f fixedFront) Solve(moo.Problem, solver.Options) ([]moo.Solution, error) {
	return f, nil
}

func TestFarmCellThatDiffersIsRejected(t *testing.T) {
	refs := []*sim.Result{{Workload: "w", Method: "m", TotalJobs: 3, MakespanSec: 100}}
	same := *refs[0]
	same.AvgDecisionTime = time.Second // wall-clock fields are not compared
	bad := &problems{}
	checkRuns([]sim.SweepRun{{Result: &same}}, refs, bad)
	if err := bad.err(); err != nil {
		t.Fatalf("an equal cell was rejected: %v", err)
	}
	differs := *refs[0]
	differs.MakespanSec++
	checkRuns([]sim.SweepRun{{Result: &differs}}, refs, bad)
	mustFail(t, bad.err(), "results differ")
	bad = &problems{}
	checkRuns([]sim.SweepRun{{Canceled: true}}, refs, bad)
	mustFail(t, bad.err(), "did not complete")
}

// tiny returns a copy of c small enough for a unit test.
func tiny(c *simCase, jobs int) *simCase {
	cc := *c
	cc.parts, cc.jobs = 2, jobs
	return &cc
}

func checkReport(t *testing.T, rep *report, err error, traced bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Fatalf("report: correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	if len(rep.Metrics) != len(list) {
		t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(list))
	}
	for _, m := range list {
		got, ok := rep.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s: %+v, want unit %s", m.name, got, m.unit)
		}
		if !traced && got.Value <= 0 {
			t.Errorf("end-to-end metric %s reads %v", m.name, got.Value)
		}
	}
}

func TestWorkloadsRunEndToEnd(t *testing.T) {
	cases := map[string]runner{
		"bbsched-theta":    tiny(bbschedTheta, 12).run,
		"weighted-lp-cori": tiny(weightedLPCori, 300).run,
		"stream-theta":     tiny(streamTheta, 2000).run,
		"farm-sweep":       (&farmCase{jobs: 10, generations: 5}).run,
	}
	if len(cases) != len(workloads) {
		t.Fatalf("%d workloads, %d tested", len(workloads), len(cases))
	}
	for name, run := range cases {
		for _, traced := range []bool{false, true} {
			rep, err := run(config{seed: 7, budget: time.Millisecond, traced: traced})
			t.Run(name, func(t *testing.T) { checkReport(t, rep, err, traced) })
		}
	}
}

func TestProfileSharesReadsAProfile(t *testing.T) {
	if _, err := profileShares(nil); err == nil {
		t.Fatal("an empty profile was read")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for range 1000 {
			x = math.Sqrt(x + 1)
		}
	}
	pprof.StopCPUProfile()
	shares, err := profileShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if len(shares) == 0 || math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares %v sum to %v (x=%v)", shares, total, x)
	}
	for fn, want := range map[string]string{
		"bbsched/internal/moo.(*Evaluator).lookup": "bbsched/internal/moo",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/maps.(*Map).Get":         "runtime",
		"main.main":                                "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTheMetrics checks that BENCHMARK.json at the
// repository root lists exactly the workloads and metrics this command
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the module:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	for _, l := range []struct {
		json []struct{ Name, Unit, Better string }
		list []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(l.json) != len(l.list) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command reports %d", len(l.json), len(l.list))
		}
		for i, m := range l.list {
			if got := l.json[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the command reports %+v", i, got, m)
			}
		}
	}
}
