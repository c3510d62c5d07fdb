package main

import (
	"bbsched/internal/lp"
	"bbsched/internal/moo"
	"bbsched/internal/registry"
	"bbsched/internal/sched"
	"bbsched/internal/sim"
	"bbsched/internal/solver"
	"bbsched/internal/trace"
)

// simCase is a workload of one simulation per round: a generated trace
// replayed under one method with EASY backfilling at the paper's window
// (w=20, starvation bound 50).
type simCase struct {
	name string
	// parts independent traces of jobs jobs each make up one round.
	parts, jobs int
	stream      bool
	system      func() trace.SystemModel
	// build returns the round's trace of jobs jobs (materialized cases),
	// or the job-less shell and a fresh source (stream cases).
	build  func(jobs int, seed uint64) (trace.Workload, trace.JobSource)
	method string
	// backend returns the solver the traced run installs with SetSolver;
	// nil for methods without one.
	backend func() solver.Solver
}

// newMethod builds the case's method as the program's registry builds it.
func (c *simCase) newMethod() (sched.Method, error) {
	return registry.New(c.method, moo.DefaultGAConfig(), false)
}

// options returns the simulator options of a round over src (nil for
// materialized cases).
func (c *simCase) options(seed uint64, src trace.JobSource) []sim.Option {
	opts := []sim.Option{sim.WithSeed(seed)}
	if src != nil {
		opts = append(opts, sim.WithSource(src), sim.WithStreamingMetrics(), sim.WithMeasurement(0, 0))
	}
	return opts
}

// variant generates a trace on sys at the offered load and derives the
// named §4 variant, with the base and the variant drawn from seed.
func variant(sys trace.SystemModel, jobs int, load float64, name string, seed uint64) trace.Workload {
	base := trace.Generate(trace.GenConfig{System: sys, Jobs: jobs, Seed: seed, TargetLoad: load})
	w, err := trace.ApplyVariant(base, name, seed)
	if err != nil {
		panic(err) // the variant names below are fixed and valid
	}
	return w
}

// saturated is the offered load of the materialized traces: four times
// what the machine can run, so the queue is never empty, the window is
// always full and per-round averages vary little from seed to seed.
const saturated = 4

// backlog is an offered load so far above capacity that the whole trace
// arrives almost at once: the queue starts thousands of jobs deep and
// drains at a rate set by the machine, not by the arrival process.
const backlog = 100

// thetaSystem is Theta scaled down 32×: 137 nodes, WFP ordering,
// capability-sized jobs.
func thetaSystem() trace.SystemModel { return trace.Scale(trace.Theta(), 32) }

// coriSystem is Cori scaled down 32× with a third of its burst buffer
// persistently reserved, as on the real machine (§4.1).
func coriSystem() trace.SystemModel {
	return trace.WithPersistentBB(trace.Scale(trace.Cori(), 32), 1.0/3)
}

// bbschedTheta is the paper's method on the paper's burst-buffer-heavy
// Theta variant, with a short trace so the queue stays shallow: the GA
// window solve dominates.
var bbschedTheta = &simCase{
	name:   "bbsched-theta",
	parts:  5,
	jobs:   40,
	system: thetaSystem,
	build: func(jobs int, seed uint64) (trace.Workload, trace.JobSource) {
		return variant(thetaSystem(), jobs, saturated, "S4", seed), nil
	},
	method:  "BBSched",
	backend: func() solver.Solver { return solver.NewGA(moo.DefaultGAConfig()) },
}

// weightedLPCori is the LP relaxation on Cori's S2 variant over a trace
// long enough that the queue holds thousands of jobs: LP solves, queue
// window extraction and backfill planning share the time.
var weightedLPCori = &simCase{
	name:   "weighted-lp-cori",
	parts:  32,
	jobs:   1250,
	system: coriSystem,
	build: func(jobs int, seed uint64) (trace.Workload, trace.JobSource) {
		return variant(coriSystem(), jobs, backlog, "S2", seed), nil
	},
	method:  "Weighted_LP",
	backend: func() solver.Solver { return lp.New(lp.DefaultConfig()) },
}

// streamLoad is the offered load of the stream: under capacity, so the
// queue stays shallow and memory bounded however long the stream.
const streamLoad = 0.85

// streamTheta is Baseline over a generated Theta stream just under
// capacity, through the bounded-memory ingestion and metrics path.
var streamTheta = &simCase{
	name:   "stream-theta",
	parts:  4,
	jobs:   25000,
	stream: true,
	system: thetaSystem,
	build: func(jobs int, seed uint64) (trace.Workload, trace.JobSource) {
		sys := thetaSystem()
		src := trace.GenSource(trace.GenConfig{System: sys, Jobs: jobs, Seed: seed, TargetLoad: streamLoad})
		return trace.Workload{Name: "Theta-stream", System: sys}, src
	},
	method: "Baseline",
}
