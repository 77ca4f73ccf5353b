package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (checked by TestMetricTablesMatchBenchmarkJSON).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mb_s", "MB/s"},
	{"ratio", "ratio"},
	{"cpu_ms_per_mb", "ms/MB"},
	{"rss_peak_mb", "MB"},
}

// timing expands a per-call timing into its median and its tail (the
// highest percentile with at least minBeyond samples beyond it).
func timing(name, unit string) []metricDef {
	return []metricDef{{name + ".p50", unit}, {name + ".tail", unit}}
}

func defs(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// probeBuckets are the zfp probes-per-partition histogram buckets.
var probeBuckets = []string{"le3", "4", "5", "6", "7", "8", "9", "ge10"}

func probeBucket(n int) string {
	switch {
	case n <= 3:
		return "le3"
	case n >= 10:
		return "ge10"
	default:
		return strconv.Itoa(n)
	}
}

// perLayer are the traced run's metrics, named after the modules.
var perLayer = defs(
	timing("pipeline.step_s", "s"),
	[]metricDef{
		{"pipeline.refits", "count"}, {"pipeline.corrections", "count"},
		{"pipeline.refit_share", "fraction"}, {"pipeline.correction_share", "fraction"},
	},
	timing("core.features_s", "s"), timing("core.calibrate_s", "s"), timing("core.plan_s", "s"),
	timing("core.compress_s", "s"), timing("core.write_s", "s"), timing("core.merge_s", "s"),
	[]metricDef{
		{"core.write_mb", "MB"}, {"core.merge_mb", "MB"},
		{"core.plan_share", "fraction"}, {"core.features_share", "fraction"},
	},
	timing("sz.compress_s", "s"),
	[]metricDef{{"sz.compress_s.step", "s"}, {"sz.predict_s.step", "s"}},
	timing("huffman.encode_s", "s"),
	[]metricDef{{"huffman.encode_s.step", "s"}, {"huffman.share", "fraction"}},
	timing("zfp.index_s", "s"), timing("zfp.truncate_s", "s"),
	[]metricDef{
		{"zfp.index_s.step", "s"}, {"zfp.truncate_s.step", "s"}, {"zfp.probe_s.step", "s"},
		{"zfp.probe_share", "fraction"}, {"zfp.probes", "count"}, {"zfp.no_guarantee", "count"},
	},
	probeHistDefs(),
	timing("server.handler_s", "s"),
	[]metricDef{
		{"server.fields_per_batch", "count"}, {"server.queued_max", "count"},
		{"server.rejected", "count"}, {"server.failed", "count"},
	},
	timing("client.call_s", "s"), timing("client.roundtrip_s", "s"), timing("client.wire_s", "s"),
	timing("client.encode_s", "s"), timing("client.decode_s", "s"),
	[]metricDef{{"client.retries", "count"}},
	timing("archiveserve.hit_s", "s"), timing("archiveserve.miss_s", "s"), timing("archiveserve.revalidate_s", "s"),
	[]metricDef{
		{"archiveserve.hit_share", "fraction"}, {"archiveserve.miss_share", "fraction"},
		{"archiveserve.not_modified_share", "fraction"}, {"archiveserve.hit_ratio", "fraction"},
		{"archiveserve.splices", "count"}, {"archiveserve.evictions", "count"},
		{"archiveserve.singleflight_merged", "count"},
	},
	timing("loadgen.latency_ms", "ms"), timing("loadgen.lag_ms", "ms"),
	timing("mpi.collective_s", "s"), timing("mpi.barrier_s", "s"),
	[]metricDef{
		{"mpi.collectives", "count"}, {"mpi.bytes", "MB"}, {"mpi.retries", "count"}, {"mpi.epoch", "count"},
		{"runtime.alloc_mb_per_mb", "MB/MB"}, {"runtime.gc_cpu_share", "fraction"},
		{"nyx.generate_s", "s"}, {"spectrum.pk_rel_err", "fraction"},
		{"trace.overhead_share", "fraction"}, {"trace.layer_coverage", "fraction"},
		{"trace.replayed_frames", "count"}, {"trace.spans", "count"},
	},
)

func probeHistDefs() []metricDef {
	out := make([]metricDef, len(probeBuckets))
	for i, b := range probeBuckets {
		out[i] = metricDef{"zfp.probes_share." + b, "fraction"}
	}
	return out
}

// report collects one run's results.
type report struct {
	ops      tally
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// unmeasuredWhy gives the reason for each per-layer metric the traced
	// run could not measure; it reports 0.
	unmeasuredWhy map[string]string
	notes         []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, unmeasuredWhy: map[string]string{}}
}

// unmeasured marks a per-layer metric as not measured, with the reason.
func (r *report) unmeasured(name, why string) {
	delete(r.layer, name)
	r.unmeasuredWhy[name] = why
}

// fail records a correctness violation; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timing sets a per-layer timing's median and tail from its samples.
func (r *report) timing(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	d := summarize(xs)
	r.layer[name+".p50"] = d.P50
	r.layer[name+".tail"] = d.Tail
	r.note("layer %s: n=%d tail=p%s%s", name, d.N, pct(d.TailQ), unsupported(d))
}

func pct(q float64) string { return strconv.FormatFloat(q*100, 'f', -1, 64) }

func unsupported(d dist) string {
	if d.Supported {
		return ""
	}
	return " (fewer than 20 samples: no percentile has 10 beyond it, tail is the median)"
}

// latencies books the timed run's operation latencies (in seconds, in the
// order they were taken): their median and windowed tail, printed with the
// sample count and kept as loadgen.latency_ms.
func (r *report) latencies(xs []float64, what string) {
	tail, q := windowedTail(xs)
	p50 := 1e3 * median(xs)
	r.layer["loadgen.latency_ms.p50"] = p50
	r.layer["loadgen.latency_ms.tail"] = 1e3 * tail
	if q <= 0.5 {
		r.note("latency: %d %s samples, p50 %.4g ms; no percentile above the median has %d samples beyond it",
			len(xs), what, p50, minBeyond)
		return
	}
	r.note("latency: %d %s samples, p50 %.4g ms, p%s %.4g ms (median over %d consecutive windows)",
		len(xs), what, p50, pct(q), 1e3*tail, tailWindows)
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.ops.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable lines and, last, the result object. It
// fails when a metric the tables promise is missing or not finite.
func (r *report) print(w io.Writer, traced bool) error {
	list, vals := endToEnd, r.e2e
	if traced {
		list, vals = perLayer, r.layer
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# ops attempted=%d failed=%d fail_share=%.6g\n", r.ops.attempted, r.ops.failed, r.ops.failShare())
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CORRECTNESS FAILURE: %s\n", p)
	}
	var zero []string
	res := jsonResult{Correct: r.correct(), Attempted: r.ops.attempted, Failed: r.ops.failed,
		Metrics: map[string]jsonMetric{}}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			switch why, known := r.unmeasuredWhy[m.Name]; {
			case !traced:
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			case known:
				fmt.Fprintf(w, "# unmeasured %s: %s\n", m.Name, why)
			default:
				zero = append(zero, m.Name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
		fmt.Fprintf(w, "# metric %s = %.6g %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	if len(zero) > 0 {
		fmt.Fprintf(w, "# zero, layer not on this workload's path: %s\n", strings.Join(zero, " "))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// machine describes where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", L2: "unknown", L3: "unknown", Commit: os.Getenv("PERFBENCH_COMMIT")}
	if m.Commit == "" {
		m.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Cache sizes per level, from the first CPU's cache descriptors; L3
	// is shared, L2 is per core.
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "2":
			m.L2 = strings.TrimSpace(string(size))
		case "3":
			m.L3 = strings.TrimSpace(string(size))
		}
	}
	return m
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
