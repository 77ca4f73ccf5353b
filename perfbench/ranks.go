package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptive"
	"repro/internal/mpi"
)

// ranks-sz runs a 2-rank world over the TCP transport on loopback: each
// rank compresses its share of every step of the same seeded stream, and
// the shards are merged after each run. The slowest rank sets each step's
// time through the commit barrier.
const (
	ranksN     = 64
	ranksPart  = 16
	ranksSteps = 6
	ranksWorld = 2
	// ranksRelEB sets each field's absolute budget from its first step,
	// like the streaming driver's default relative budget.
	ranksRelEB = 0.1
)

// ranksInput is the seeded stream and the configuration every rank shares.
type ranksInput struct {
	steps []map[string]*adaptive.Field
	cfg   adaptive.RankConfig
	parts int
	mb    float64 // fp32 MB per run
}

func ranksInputs(seed uint64) (*ranksInput, error) {
	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: ranksN, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	stream, err := adaptive.NewSynthStreamFrom(snap.Fields, adaptive.SynthStreamParams{Steps: ranksSteps})
	if err != nil {
		return nil, err
	}
	in := &ranksInput{parts: (ranksN / ranksPart) * (ranksN / ranksPart) * (ranksN / ranksPart)}
	for {
		step, err := stream.Next()
		if err != nil {
			break
		}
		in.steps = append(in.steps, step)
		for _, f := range step {
			in.mb += fieldMB(int64(f.Len()))
		}
	}
	// Budgets are absolute and identical on every rank: no rank may
	// derive its own.
	ebs := map[string]float64{}
	for name, f := range in.steps[0] {
		var s float64
		for _, v := range f.Data {
			s += math.Abs(float64(v))
		}
		ebs[name] = ranksRelEB * s / float64(f.Len())
	}
	in.cfg = adaptive.RankConfig{Engine: adaptive.EngineConfig{PartitionDim: ranksPart, Codec: "sz"}, AvgEBs: ebs}
	return in, nil
}

// netWorld is a running coordinator with its ranks' transports.
type netWorld struct {
	coord *adaptive.Coordinator
	ranks []*adaptive.NetTransport
}

func startWorld() (*netWorld, error) {
	coord, err := adaptive.ListenCoordinator("127.0.0.1:0", ranksWorld, adaptive.NetConfig{})
	if err != nil {
		return nil, err
	}
	w := &netWorld{coord: coord, ranks: make([]*adaptive.NetTransport, ranksWorld)}
	errs := make([]error, ranksWorld)
	var wg sync.WaitGroup
	for r := range w.ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.ranks[r], errs[r] = adaptive.JoinWorld(coord.Addr(), r, ranksWorld, adaptive.NetConfig{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *netWorld) close() {
	for _, t := range w.ranks {
		if t != nil {
			t.Close()
		}
	}
	w.coord.Close()
}

// ranksRun is one run of every step on every rank plus the merge.
type ranksRun struct {
	steps  []float64 // seconds per step, commit to commit
	wall   time.Duration
	avail  time.Duration
	merge  time.Duration
	merged []byte
	stats  []*adaptive.RankRunStats
}

// run runs every rank over the input (through wrap's transport when
// set) and merges the shards.
func (w *netWorld) run(ctx context.Context, in *ranksInput, wrap func(int, adaptive.Transport) adaptive.Transport) (*ranksRun, error) {
	out := &ranksRun{stats: make([]*adaptive.RankRunStats, ranksWorld)}
	shards := make([]bytes.Buffer, ranksWorld)
	commits := make([][]time.Time, ranksWorld)
	errs := make([]error, ranksWorld)
	watch := startWatch()
	start := watch.start
	var wg sync.WaitGroup
	for r, t := range w.ranks {
		var tp adaptive.Transport = t
		if wrap != nil {
			tp = wrap(r, t)
		}
		cfg := in.cfg
		cfg.OnCommit = func(int, int) { commits[r] = append(commits[r], time.Now()) }
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.stats[r], errs[r] = adaptive.RunRank(ctx, tp, adaptive.FromSnapshots(in.steps), &shards[r], cfg)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		if len(commits[r]) != len(in.steps) {
			return nil, fmt.Errorf("rank %d committed %d of %d steps", r, len(commits[r]), len(in.steps))
		}
	}
	// A step ends when its last rank commits.
	prev := start
	for k := range in.steps {
		end := commits[0][k]
		for r := 1; r < ranksWorld; r++ {
			if commits[r][k].After(end) {
				end = commits[r][k]
			}
		}
		out.steps = append(out.steps, end.Sub(prev).Seconds())
		prev = end
	}
	t0 := time.Now()
	var merged bytes.Buffer
	inputs := make([]adaptive.ShardInput, ranksWorld)
	for r := range shards {
		inputs[r] = adaptive.ShardInput{R: bytes.NewReader(shards[r].Bytes()), Size: int64(shards[r].Len())}
	}
	if _, err := adaptive.MergeShards(&merged, inputs, in.parts); err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	out.merge = time.Since(t0)
	out.wall, out.avail = watch.wall(), watch.avail()
	out.merged = merged.Bytes()
	return out, nil
}

// reference is the 1-rank run of the same input, merged.
func (in *ranksInput) reference(ctx context.Context) ([]byte, error) {
	var shard bytes.Buffer
	err := adaptive.RunWorld(1, func(t adaptive.Transport) error {
		_, err := adaptive.RunRank(ctx, t, adaptive.FromSnapshots(in.steps), &shard, in.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var merged bytes.Buffer
	_, err = adaptive.MergeShards(&merged,
		[]adaptive.ShardInput{{R: bytes.NewReader(shard.Bytes()), Size: int64(shard.Len())}}, in.parts)
	return merged.Bytes(), err
}

// ranksRounds runs the world repeatedly for dur and checks every merge
// against the reference.
type ranksRounds struct {
	steps            []float64
	wall, avail      time.Duration
	runs, mismatches int
	retries, epoch   int
	merge            []float64
	mergeMB          []float64
}

func (w *netWorld) rounds(ctx context.Context, in *ranksInput, ref []byte, dur time.Duration,
	wrap func(int, adaptive.Transport) adaptive.Transport) (*ranksRounds, error) {
	out := &ranksRounds{}
	for out.wall < dur {
		run, err := w.run(ctx, in, wrap)
		if err != nil {
			return nil, err
		}
		out.runs++
		out.wall += run.wall
		out.avail += run.avail
		out.steps = append(out.steps, run.steps...)
		out.merge = append(out.merge, run.merge.Seconds())
		out.mergeMB = append(out.mergeMB, float64(len(run.merged))/mb)
		if !bytes.Equal(run.merged, ref) {
			out.mismatches++
		}
		for _, st := range run.stats {
			out.retries += st.Retries
			out.epoch = max(out.epoch, st.FinalEpoch)
		}
	}
	return out, nil
}

func ranksSZ(ctx context.Context, c runCfg, r *report) error {
	w0 := startWatch()
	in, err := ranksInputs(c.seed)
	if err != nil {
		return err
	}
	genS := w0.avail().Seconds()
	r.layer["nyx.generate_s"] = genS
	w1 := startWatch()
	ref, err := in.reference(ctx)
	if err != nil {
		return fmt.Errorf("1-rank reference: %w", err)
	}
	refS := w1.avail().Seconds()

	// Repeatable set-up: start the world and warm it with one run.
	var w *netWorld
	setupS, err := setupMedian(setupRepeats, func() error {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = startWorld(); err != nil {
			return err
		}
		_, err = w.run(ctx, in, nil)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	r.e2e["setup_s"] = genS + refS + setupS
	r.note("setup: generate %.3fs + 1-rank reference %.3fs + median of %d world starts with a warm-up run %.3fs",
		genS, refS, setupRepeats, setupS)

	var m meter
	m.start()
	rr, err := w.rounds(ctx, in, ref, c.seconds, nil)
	m.stop()
	if err != nil {
		return err
	}
	r.ops.attempted += int64(rr.runs * (len(in.steps)*ranksWorld + 1))
	r.ops.failed += int64(rr.retries + rr.mismatches)
	if rr.mismatches > 0 {
		r.fail("%d of %d merged archives differ from the 1-rank reference", rr.mismatches, rr.runs)
	}
	if rr.retries > 0 || rr.epoch > 0 {
		r.fail("%d rank steps retried, final epoch %d: no rank may fail here", rr.retries, rr.epoch)
	}
	totalMB := in.mb * float64(rr.runs)
	r.e2e["mb_s"] = totalMB / rr.avail.Seconds()
	r.note("steal: %.3f of the runs' wall time; mb_s over wall time would be %.4g",
		1-rr.avail.Seconds()/rr.wall.Seconds(), totalMB/rr.wall.Seconds())
	r.latencies(rr.steps, "step")
	r.e2e["ratio"] = in.mb * mb / float64(len(ref))
	m.book(r, totalMB)
	r.note("world: %d ranks over TCP, %d runs of %d steps (%d³, six fields) with a merge each",
		ranksWorld, rr.runs, len(in.steps), ranksN)

	pk, err := checkRanksReference(ctx, r, in, ref)
	if err != nil {
		return err
	}
	r.layer["spectrum.pk_rel_err"] = pk
	r.note("quality: pk_rel_err = %.6g on the last step's baryon density", pk)
	if !c.traced {
		return nil
	}
	return traceRanks(ctx, c, r, w, in, ref)
}

// checkRanksReference decodes every step of the reference stream — every
// merged archive is byte-identical to it — and checks each partition
// against the bound its frame records. It returns the last step's
// baryon-density power-spectrum error.
func checkRanksReference(ctx context.Context, r *report, in *ranksInput, ref []byte) (float64, error) {
	sr, err := adaptive.OpenStream(bytes.NewReader(ref), int64(len(ref)))
	if err != nil {
		return 0, fmt.Errorf("reference stream: %w", err)
	}
	var pk float64
	for s, step := range in.steps {
		fields, err := sr.ReadStep(s)
		if err != nil {
			return 0, fmt.Errorf("reference step %d: %w", s, err)
		}
		for _, name := range sortedKeys(step) {
			cf := fields[name]
			if cf == nil {
				r.fail("reference step %d lacks field %s", s, name)
				continue
			}
			bc, err := checkBounds(ctx, cf, step[name], cf.PartitionEBs())
			if err != nil || bc.violations > 0 {
				r.fail("reference step %d field %s: err=%v, %d partitions over their bound", s, name, err, bc.violations)
				continue
			}
			if s == len(in.steps)-1 && name == adaptive.FieldBaryonDensity {
				if pk, err = pkRelErr(step[name], bc.dec); err != nil {
					return 0, err
				}
			}
		}
	}
	return pk, nil
}

// traceRanks repeats the runs with every rank's transport wrapped to
// record its collectives.
func traceRanks(ctx context.Context, c runCfg, r *report, w *netWorld, in *ranksInput, ref []byte) error {
	tr := newTracer()
	wrapped := make([]*tracedComm, ranksWorld)
	before := make([]int64, ranksWorld)
	for i, t := range w.ranks {
		wrapped[i] = &tracedComm{Transport: t, tr: tr}
		before[i], _ = t.Stats()
	}
	rr, err := w.rounds(ctx, in, ref, c.seconds, func(i int, _ adaptive.Transport) adaptive.Transport { return wrapped[i] })
	if err != nil {
		return err
	}
	if rr.mismatches > 0 {
		r.fail("traced run: %d merged archives differ from the reference", rr.mismatches)
	}
	var calls, bytesMoved int64
	for i, t := range w.ranks {
		n, _ := t.Stats()
		if got := wrapped[i].calls.Load(); got != n-before[i] {
			r.fail("rank %d: the wrapper saw %d collectives, the transport counted %d", i, got, n-before[i])
		}
		calls += wrapped[i].calls.Load()
		bytesMoved += wrapped[i].bytes.Load()
	}
	spans := tr.all()
	r.timing("pipeline.step_s", rr.steps)
	r.timing("mpi.collective_s", durations(named(spans, "mpi.collective")))
	r.timing("mpi.barrier_s", durations(named(spans, "mpi.barrier")))
	r.timing("core.merge_s", rr.merge)
	r.layer["core.merge_mb"] = median(rr.mergeMB)
	r.layer["mpi.collectives"] = float64(calls)
	r.layer["mpi.bytes"] = float64(bytesMoved) / mb
	r.layer["mpi.retries"] = float64(rr.retries)
	r.layer["mpi.epoch"] = float64(rr.epoch)
	r.layer["trace.spans"] = float64(len(spans))
	untraced := r.layer["loadgen.latency_ms.p50"] / 1e3
	r.layer["trace.overhead_share"] = (median(rr.steps) - untraced) / untraced
	r.note("trace: %d traced runs; mpi.collectives equals the transports' own counts; overhead compares the traced and untraced median step", rr.runs)
	return writeSpans(filepath.Join(c.dir, "ranks.spans.jsonl"), spans)
}

// tracedComm records each collective as a span (op = rank) and counts
// the collectives and the payload bytes they carry in and out.
type tracedComm struct {
	adaptive.Transport
	tr    *tracer
	calls atomic.Int64
	bytes atomic.Int64
}

func (t *tracedComm) span(name string, in int, fn func() int) {
	start := time.Now()
	out := fn()
	t.tr.add(t.tr.id(), 0, name, int64(t.Rank()), start, time.Now())
	t.calls.Add(1)
	t.bytes.Add(int64(8 * (in + out)))
}

func (t *tracedComm) Barrier() (err error) {
	t.span("mpi.barrier", 0, func() int { err = t.Transport.Barrier(); return 0 })
	return err
}

func (t *tracedComm) Allreduce(v float64, op mpi.Op) (res float64, err error) {
	t.span("mpi.collective", 1, func() int { res, err = t.Transport.Allreduce(v, op); return 1 })
	return res, err
}

func (t *tracedComm) AllreduceSlice(v []float64, op mpi.Op) (res []float64, err error) {
	t.span("mpi.collective", len(v), func() int { res, err = t.Transport.AllreduceSlice(v, op); return len(res) })
	return res, err
}

func (t *tracedComm) Allgather(v float64) (res []float64, err error) {
	t.span("mpi.collective", 1, func() int { res, err = t.Transport.Allgather(v); return len(res) })
	return res, err
}

func (t *tracedComm) AllgatherSlice(v []float64) (res []float64, err error) {
	t.span("mpi.collective", len(v), func() int { res, err = t.Transport.AllgatherSlice(v); return len(res) })
	return res, err
}

func (t *tracedComm) Bcast(v float64, root int) (res float64, err error) {
	t.span("mpi.collective", 1, func() int { res, err = t.Transport.Bcast(v, root); return 1 })
	return res, err
}
