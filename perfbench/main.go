package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	callers  int
	workdir  string
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	rep               *report
	attempted, failed int
	firstErr          error // first failed operation
	gateFailed        int   // correctness-gate mismatches
	gateErr           error // first mismatch
}

var workloads = map[string]func(config) (*outcome, error){
	"serve-warm": runServing,
	"serve-cold": runServing,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags, runs one workload and prints its report. It
// returns exit code 1 when the run could not produce a result, and 2 when
// it produced one that failed its correctness checks.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-warm or serve-cold")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.IntVar(&cfg.callers, "callers", runtime.NumCPU(), "closed-loop callers of the serving workloads (at most nproc)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench/work", "directory for the output of serve-cold's traced campaign section")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	runWorkload, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return 1, fmt.Errorf("unknown -workload %q (want serve-warm or serve-cold)", cfg.workload)
	case cfg.seconds < 1:
		return 1, fmt.Errorf("-seconds %d must be at least 1", cfg.seconds)
	case *trace != 0 && *trace != 1:
		return 1, fmt.Errorf("-trace %d must be 0 or 1", *trace)
	case cfg.callers < 1 || cfg.callers > runtime.NumCPU():
		// More callers than CPUs would measure the scheduler's time
		// slicing of the callers, not the fleet.
		return 1, fmt.Errorf("refusing %d callers on %d CPUs: callers must be between 1 and nproc", cfg.callers, runtime.NumCPU())
	}
	cfg.trace = *trace == 1
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	fmt.Fprintf(stdout, "env go=%s nproc=%d gomaxprocs=%d callers=%d cpu=%q\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.callers, cpuModel())

	out, err := runWorkload(cfg)
	if err != nil {
		return 1, err
	}
	if err := out.rep.check(); err != nil {
		if out.firstErr != nil { // e.g. failed campaign cells leave layers untimed
			err = fmt.Errorf("%w (first failed operation: %v)", err, out.firstErr)
		}
		return 1, err
	}
	correct := out.failed == 0 && out.gateFailed == 0
	if out.firstErr != nil {
		out.rep.note("first failure: %v", out.firstErr)
	}
	if out.gateErr != nil {
		out.rep.note("correctness gate: %d mismatches, first: %v", out.gateFailed, out.gateErr)
	}
	if err := out.rep.write(stdout, correct, out.attempted, out.failed); err != nil {
		return 1, err
	}
	if !correct {
		return 2, fmt.Errorf("%d of %d operations failed, %d correctness-gate mismatches", out.failed, out.attempted, out.gateFailed)
	}
	return 0, nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set size (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procSample is a snapshot of the process counters behind proc.*.
type procSample struct {
	cpu            time.Duration
	mallocs, bytes uint64
	// gcCPU and busyCPU are the runtime's estimates of CPU time spent in
	// the garbage collector and in all non-idle work.
	gcCPU, busyCPU float64
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

func (a procSample) minus(b procSample) procSample {
	return procSample{cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcCPU: a.gcCPU - b.gcCPU, busyCPU: a.busyCPU - b.busyCPU}
}

func (a procSample) plus(b procSample) procSample {
	return procSample{cpu: a.cpu + b.cpu, mallocs: a.mallocs + b.mallocs, bytes: a.bytes + b.bytes,
		gcCPU: a.gcCPU + b.gcCPU, busyCPU: a.busyCPU + b.busyCPU}
}

// setProc records the process metrics of a counter difference d over
// ops operations.
func setProc(rep *report, d procSample, ops int) {
	n := float64(max(ops, 1))
	rep.set("proc.cpu_us_per_op", float64(d.cpu)/1e3/n, -1)
	rep.set("proc.allocs_per_op", float64(d.mallocs)/n, -1)
	rep.set("proc.bytes_per_op", float64(d.bytes)/n, -1)
	gc := 0.0
	if d.busyCPU > 0 {
		gc = d.gcCPU / d.busyCPU
	}
	rep.set("proc.gc_cpu_frac", gc, -1)
}
