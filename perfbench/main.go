// Command perfbench is the repository's benchmark: it generates every
// input from a seed, runs one workload end to end, checks the outputs and
// prints the end-to-end metrics (--trace 0) or, from a separate traced
// run, the per-layer metrics (--trace 1). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload insitu-sz --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// dir holds the run's files (streams, stores, the span file).
	dir string
}

type workload func(ctx context.Context, c runCfg, r *report) error

var workloads = map[string]workload{
	"insitu-sz":    insituRun("sz"),
	"insitu-zfp":   insituRun("zfp"),
	"serve-write":  serveWrite,
	"archive-read": archiveRead,
	"ranks-sz":     ranksSZ,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench", "work"), "directory for the run's files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	c := runCfg{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, dir: dir}

	r := newReport()
	m, _ := json.Marshal(describeMachine())
	r.note("perfbench workload=%s seed=%d seconds=%g trace=%d", *name, *seed, *seconds, *trace)
	r.note("machine %s", m)
	if err := w(context.Background(), c, r); err != nil {
		fatal(err)
	}
	if err := r.print(os.Stdout, c.traced); err != nil {
		fatal(err)
	}
	// The work files are large; the span file is the only one kept.
	if err := cleanDir(dir); err != nil {
		fatal(err)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// cleanDir removes everything in dir except span files.
func cleanDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".spans.jsonl") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rssPeakMB is the process's peak resident set (VmHWM) in MB since start
// or since the last resetPeakRSS.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// resetPeakRSS sets VmHWM back to the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rtSample reads the runtime's cumulative allocation and CPU accounting.
type rtSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{val(0), val(1), val(2)}
}

// meter accumulates process CPU, runtime accounting and the peak resident
// set over the measured parts of a run.
type meter struct {
	cpu float64
	rt  rtSample
	// rssPeak is the highest VmHWM of the measured intervals; setupPeak
	// the one before the first, which set-up and input generation set.
	rssPeak, setupPeak float64
	intervals          int
	// rssReset is false when VmHWM could not be reset, so rssPeak also
	// covers set-up.
	rssReset bool
	// open holds the readings of the interval in progress.
	openCPU float64
	openRT  rtSample
}

// start opens a measured interval. Off the clock, it collects the garbage
// of what ran before (set-up, checks, input generation), returns it to the
// OS and resets VmHWM, so the interval's peak is its own.
func (m *meter) start() {
	if m.intervals == 0 {
		m.setupPeak = rssPeakMB()
	}
	m.intervals++
	debug.FreeOSMemory()
	m.rssReset = resetPeakRSS() == nil
	m.openCPU, m.openRT = cpuSeconds(), readRuntime()
}

func (m *meter) stop() {
	m.cpu += cpuSeconds() - m.openCPU
	now := readRuntime()
	m.rt.allocBytes += now.allocBytes - m.openRT.allocBytes
	m.rt.gcCPU += now.gcCPU - m.openRT.gcCPU
	m.rt.totalCPU += now.totalCPU - m.openRT.totalCPU
	m.rssPeak = max(m.rssPeak, rssPeakMB())
}

// book sets the CPU and peak-memory end-to-end metrics and the runtime
// layer metrics for mb megabytes of field data processed.
func (m *meter) book(r *report, mb float64) {
	r.e2e["cpu_ms_per_mb"] = 1e3 * m.cpu / mb
	r.e2e["rss_peak_mb"] = m.rssPeak
	if m.rssReset {
		r.note("rss: peak %.1f MB over %d measured intervals; set-up peak %.1f MB", m.rssPeak, m.intervals, m.setupPeak)
	} else {
		r.note("rss: peak %.1f MB includes set-up: VmHWM could not be reset", m.rssPeak)
	}
	r.layer["runtime.alloc_mb_per_mb"] = m.rt.allocBytes / 1e6 / mb
	if m.rt.totalCPU > 0 {
		r.layer["runtime.gc_cpu_share"] = m.rt.gcCPU / m.rt.totalCPU
	}
}

// setupMedian runs a repeatable set-up step n times and returns its median
// available duration; the caller's closure keeps the last run's result.
func setupMedian(n int, fn func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		w := startWatch()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, w.avail().Seconds())
	}
	return median(xs), nil
}

// stopwatch measures wall time and the part of it this machine's CPUs were
// its own: on a shared host the hypervisor runs other guests on them
// (steal time), which stretches wall time without any work being done.
// Throughput and set-up times are taken over the available time, wall
// time less the stolen CPU time spread over the machine's CPUs.
type stopwatch struct {
	start time.Time
	steal float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), stealSeconds()} }

func (s stopwatch) wall() time.Duration { return time.Since(s.start) }

func (s stopwatch) avail() time.Duration {
	wall := time.Since(s.start)
	stolen := (stealSeconds() - s.steal) / float64(runtime.NumCPU())
	return max(0, wall-time.Duration(stolen*float64(time.Second)))
}

// clockTicks is USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// stealSeconds is the CPU time stolen from this machine so far, summed
// over its CPUs (0 where /proc/stat is unavailable).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

const mb = 1e6

// fieldMB is the uncompressed fp32 size of cells values in MB.
func fieldMB(cells int64) float64 { return float64(4*cells) / mb }

// setupRepeats is how many times each run repeats its repeatable set-up
// to report a median.
const setupRepeats = 3
