package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// clock is the clock the simulation workloads time their work with:
// cpuTime, except in traced runs (see runTraced), which use wallTime.
var clock = cpuTime

// epoch is wallTime's zero.
var epoch = time.Now()

// wallTime returns the monotonic wall time since the process started.
func wallTime() time.Duration { return time.Since(epoch) }

// cpuTime returns the CPU time the process has used, summed over its
// threads. The simulation workloads time their work with it instead of
// the wall clock: they run on one processor (GOMAXPROCS=1) and neither
// wait on I/O nor sleep, so on an idle host the two clocks agree, while
// on a shared host the CPU clock leaves out the time the kernel or the
// hypervisor gave to other tenants. Two CPU-bound processes started
// beside a bbsched-theta run on a two-core host moved its wall-clock
// decision median by 20 % and its CPU-time one by 2 %. One reading
// costs about 0.4 µs, against 0.1 µs for time.Now. While a CPU profile
// is being taken, Linux advances this clock only at scheduler ticks (the
// profiler arms a process-wide CPU timer), so traced runs do not use it.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
