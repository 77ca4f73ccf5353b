package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// tailCandidates are the percentiles a timing may report as its tail, from
// the highest down. A percentile is supported when at least minBeyond
// samples lie above it.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

const minBeyond = 10

// nearestRank returns the nearest-rank q-quantile of an ascending slice.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// beyond is the number of samples above the nearest-rank q-quantile of n.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest candidate percentile with at least
// minBeyond samples beyond it, and false when even the median lacks them
// (fewer than 20 samples).
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailCandidates {
		if beyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0.5, false
}

// dist summarizes one timing: the median and the highest supported
// percentile, with the sample count.
type dist struct {
	N         int
	P50, Tail float64
	// TailQ is the percentile Tail sits at; Supported is false when no
	// percentile has minBeyond samples beyond it and Tail is the median.
	TailQ     float64
	Supported bool
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q, ok := tailQuantile(len(s))
	return dist{N: len(s), P50: nearestRank(s, 0.5), Tail: nearestRank(s, q), TailQ: q, Supported: ok}
}

// tailWindows is how many consecutive windows a run's latencies are split
// into for the end-to-end tail.
const tailWindows = 5

// tailCap is the highest percentile the end-to-end tail reports.
const tailCap = 0.99

// windowedTail returns the run's tail latency and its percentile: the
// highest percentile up to p99 with at least minBeyond of the run's samples
// beyond it, taken in each of tailWindows consecutive windows (samples in
// the order they were taken) and reduced to the windows' median, so one
// stall moves one window only. When no percentile above the median is
// supported (fewer than 20 samples beyond it), the tail is the median.
func windowedTail(samples []float64) (float64, float64) {
	q, _ := tailQuantile(len(samples))
	q = min(q, tailCap)
	if q <= 0.5 || len(samples) < tailWindows {
		return median(samples), 0.5
	}
	tails := make([]float64, tailWindows)
	for w := range tails {
		win := sortedCopy(samples[w*len(samples)/tailWindows : (w+1)*len(samples)/tailWindows])
		tails[w] = nearestRank(win, q)
	}
	return median(tails), q
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 0.5)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tally counts operations against the number attempted. A failed or
// refused operation also counts as missing the latency limit.
type tally struct {
	attempted, failed, sloMiss int64
}

// record books one operation; limit ≤ 0 disables the latency limit.
func (t *tally) record(ok bool, latency, limit time.Duration) {
	t.attempted++
	if !ok {
		t.failed++
		t.sloMiss++
		return
	}
	if limit > 0 && latency > limit {
		t.sloMiss++
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.sloMiss += o.sloMiss
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func (t tally) failShare() float64    { return share(t.failed, t.attempted) }
func (t tally) sloMissShare() float64 { return share(t.sloMiss, t.attempted) }

// arrivals returns the send offsets of an open-loop schedule of n
// requests over dur: n sorted uniform offsets, which is a Poisson process
// conditioned on its count. Fixing the count keeps the offered load, and
// so the work a run does, the same for every seed.
func arrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dueLatency measures an open-loop request from the time it was due, so a
// stall that delays later sends counts against them, and reports how late
// the generator sent it.
func dueLatency(due, sent, done time.Time) (latency, lag time.Duration) {
	lag = sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return done.Sub(due), lag
}
