package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/huffman"
	"repro/internal/sz"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		q         float64
		supported bool
	}{
		{10000, 0.999, true}, // 10 beyond p99.9
		{9999, 0.99, true},   // p99.9 has 9 beyond
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.75, true},
		{40, 0.75, true},
		{39, 0.5, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.q || ok != tc.supported {
			t.Errorf("n=%d: got p%v supported=%v, want p%v supported=%v", tc.n, q*100, ok, tc.q*100, tc.supported)
		}
		if ok && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, q*100, beyond(tc.n, q))
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.TailQ != 0.99 || d.Tail != 990 || !d.Supported {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", d)
	}
	if got := nearestRank([]float64{1, 2, 3}, 0.99); got != 3 {
		t.Fatalf("p99 of 3 samples = %v, want the maximum", got)
	}
}

func TestWindowedTailTakesTheMedianWindow(t *testing.T) {
	// Five windows of 1000 samples, 1..1000 each: a window's p99 is 990.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i%1000) + 1
	}
	for i := 0; i < 11; i++ {
		xs[1000+i] = 5000 // the second window's p99 becomes 5000
		xs[4000+i] = 1e6  // a stall in the last window
	}
	if got, q := windowedTail(xs); got != 990 || q != 0.99 {
		t.Fatalf("windowed tail = %v at p%v, want the median window's 990 at p99", got, q*100)
	}
	for i := 0; i < 11; i++ {
		xs[2000+i] = 5000 // now three of five windows are slow
	}
	if got, _ := windowedTail(xs); got != 5000 {
		t.Fatalf("windowed tail = %v, want 5000 once most windows are slow", got)
	}
	// 70 samples support p75 at most: 17 beyond it.
	small := make([]float64, 70)
	for i := range small {
		small[i] = float64(i%14) + 1
	}
	if got, q := windowedTail(small); got != 11 || q != 0.75 {
		t.Fatalf("windowed tail of 5×14 samples = %v at p%v, want 11 at p75", got, q*100)
	}
	// Fewer than 20 samples beyond the median: the tail is the median.
	if got, q := windowedTail([]float64{5, 1, 4, 2, 3, 9}); got != 3 || q != 0.5 {
		t.Fatalf("windowed tail of 6 samples = %v at p%v, want the median 3", got, q*100)
	}
}

func spanAt(id, parent int64, start, end int64) span {
	return span{ID: id, Parent: parent, Name: "x", Start: start, End: end}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := spanAt(1, 0, 0, 100)
	kids := []span{
		spanAt(2, 1, 10, 40),
		spanAt(3, 1, 30, 60),  // overlaps the first: [10, 60) counts once
		spanAt(4, 1, 20, 25),  // inside the first
		spanAt(5, 1, 90, 120), // runs past the parent: only [90, 100) counts
	}
	if got := selfTime(parent, kids); got != 40 {
		t.Fatalf("self time = %v, want 40ns (100 − [10,60) − [90,100))", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %v, want 100ns", got)
	}
	if got := covered(0, 100, []span{spanAt(2, 1, 0, 100), spanAt(3, 1, 0, 100)}); got != 100 {
		t.Fatalf("two identical children cover %d, want 100", got)
	}
}

func TestWireTimeIsRoundTripMinusHandler(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.call", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.roundtrip", Start: 5, End: 95},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 20, End: 80},
	}
	got := wireTimes(spans)
	if len(got) != 1 || math.Abs(got[0]-30e-9) > 1e-15 {
		t.Fatalf("wire times = %v, want [30ns]", got)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	lat, lag := dueLatency(ms(0), ms(5), ms(20))
	if lat != 20*time.Millisecond || lag != 5*time.Millisecond {
		t.Fatalf("latency %v lag %v, want 20ms and 5ms", lat, lag)
	}
	// A generator that stalled until 50 ms sends three requests due at 0,
	// 10 and 20 ms at once; each is served 1 ms later. The stall counts
	// against every one of them.
	for i, due := range []int{0, 10, 20} {
		lat, lag := dueLatency(ms(due), ms(50), ms(51))
		if want := time.Duration(51-due) * time.Millisecond; lat != want {
			t.Errorf("request %d: latency %v, want %v", i, lat, want)
		}
		if want := time.Duration(50-due) * time.Millisecond; lag != want {
			t.Errorf("request %d: lag %v, want %v", i, lag, want)
		}
	}
	// Sent early: no negative lag.
	if _, lag := dueLatency(ms(10), ms(9), ms(12)); lag != 0 {
		t.Fatalf("early send lag = %v, want 0", lag)
	}
}

func TestArrivalsSpreadAFixedCountOverTheWindow(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 10000, 10*time.Second)
	if len(a) != 10000 {
		t.Fatalf("%d arrivals, want 10000", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[0] < 0 || a[len(a)-1] >= 10*time.Second {
		t.Fatal("arrivals not ordered inside the window")
	}
	// Uniform over the window: each second holds about a tenth.
	perSecond := make([]int, 10)
	for _, d := range a {
		perSecond[int(d/time.Second)]++
	}
	for s, n := range perSecond {
		if n < 850 || n > 1150 {
			t.Errorf("second %d holds %d arrivals, want about 1000", s, n)
		}
	}
	b := arrivals(rand.New(rand.NewSource(7)), 10000, 10*time.Second)
	if a[100] != b[100] || a[9999] != b[9999] {
		t.Fatal("the same seed gave another schedule")
	}
}

func TestFailAndSLOMissShares(t *testing.T) {
	var tl tally
	limit := 50 * time.Millisecond
	tl.record(true, 10*time.Millisecond, limit) // meets the limit
	tl.record(true, 60*time.Millisecond, limit) // misses it
	tl.record(false, time.Millisecond, limit)   // fails: also a miss, however fast
	tl.record(true, 60*time.Millisecond, 0)     // no limit set
	if tl.attempted != 4 || tl.failed != 1 || tl.sloMiss != 2 {
		t.Fatalf("tally = %+v", tl)
	}
	if tl.failShare() != 0.25 || tl.sloMissShare() != 0.5 {
		t.Fatalf("fail share %v, slo miss share %v", tl.failShare(), tl.sloMissShare())
	}
	var other tally
	other.record(false, 0, limit)
	tl.add(other)
	if tl.failShare() != 0.4 {
		t.Fatalf("fail share after add = %v, want 2/5", tl.failShare())
	}
	var empty tally
	if empty.failShare() != 0 || empty.sloMissShare() != 0 {
		t.Fatal("empty tally shares must be 0")
	}
}

func TestProbeBuckets(t *testing.T) {
	for n, want := range map[int]string{0: "le3", 3: "le3", 4: "4", 9: "9", 10: "ge10", 40: "ge10"} {
		if got := probeBucket(n); got != want {
			t.Errorf("probeBucket(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestSZCodeStreamOnlyReadsItsOwnLayout(t *testing.T) {
	data := make([]float32, 8*8*8)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 7))
	}
	c, err := sz.CompressSlice(data, 8, 8, 8, sz.Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	b := c.Bytes()
	code, ok := szCodeStream(b)
	if !ok {
		t.Fatal("a current sz brick must be of the known layout")
	}
	if _, err := huffman.Decompress(code); err != nil {
		t.Fatalf("the located code stream does not decode: %v", err)
	}
	other := append([]byte(nil), b...)
	other[4]++
	if _, ok := szCodeStream(other); ok {
		t.Error("a brick of another version must not be read")
	}
	if _, ok := szCodeStream(b[:sz.HeaderBytes-1]); ok {
		t.Error("a truncated brick must not be read")
	}
}

func TestResultLineHasTheContractKeys(t *testing.T) {
	r := newReport()
	r.ops.record(true, 0, 0)
	for _, m := range endToEnd {
		r.e2e[m.Name] = 1.5
	}
	var buf bytes.Buffer
	if err := r.print(&buf, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys = %v", sortedKeys(res))
	}
	delete(r.e2e, "mb_s")
	if err := r.print(&buf, false); err == nil {
		t.Fatal("a missing end-to-end metric must fail the run")
	}
	r.fail("a violation")
	if r.correct() {
		t.Fatal("a recorded violation must make the run incorrect")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(sortedKeys(workloads), " ") {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, sortedKeys(workloads))
	}
}
