package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/huffman"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// The in situ workloads stream a drifting 128³ six-field run through the
// facade's streaming driver: 512 partitions per field at partition dim 16,
// the paper's brick layout at CI scale.
const (
	insituN    = 128
	insituPart = 16
	// minReplaySteps is the fewest steps the traced run replays: step 0
	// (every field's first calibration) and at least two drift steps.
	minReplaySteps = 3
	// layerTolerance is how far the time the engine-level spans cover in
	// the replayed steps may differ from those steps' StepCompressed wall
	// time, as a share of it, before the layer-sum check fails. The check
	// is on the sum over the replayed steps: on the 2-core reference
	// machine two back-to-back runs of the same step differ by up to 30 %.
	layerTolerance = 0.25
)

// insituStep is what the timed run keeps of one step for the checks and
// the traced replay.
type insituStep struct {
	stats adaptive.StepStats
	// cals are the calibrations the step planned with.
	cals map[string]*adaptive.Calibration
}

func (s *insituStep) field(name string) adaptive.FieldStats {
	for _, fs := range s.stats.Fields {
		if fs.Name == name {
			return fs
		}
	}
	return adaptive.FieldStats{}
}

func insituRun(codecName string) workload {
	return func(ctx context.Context, c runCfg, r *report) error {
		return runInsitu(ctx, c, r, codecName)
	}
}

// insituSource yields the drifting steps: one single-field stream per
// field over the shared base snapshot, each with its own jitter seed, so
// the six fields of a step are generated in parallel.
type insituSource struct {
	names   []string
	streams []*adaptive.SynthStream
}

func newInsituSource(base map[string]*adaptive.Field, seed uint64) (*insituSource, error) {
	src := &insituSource{names: sortedKeys(base)}
	for i, name := range src.names {
		st, err := adaptive.NewSynthStreamFrom(base, adaptive.SynthStreamParams{
			Steps:  1 << 30, // ended by the clock, not the stream
			Fields: []string{name},
			Seed:   (seed+1)*uint64(len(src.names)) + uint64(i) + 1,
		})
		if err != nil {
			return nil, err
		}
		src.streams = append(src.streams, st)
	}
	return src, nil
}

// Next returns the next step; the first is the base itself.
func (s *insituSource) Next() (map[string]*adaptive.Field, error) {
	fields := make([]*adaptive.Field, len(s.names))
	errs := make([]error, len(s.names))
	parallel.ForEach(len(s.names), 0, func(i int) {
		var step map[string]*adaptive.Field
		step, errs[i] = s.streams[i].Next()
		fields[i] = step[s.names[i]]
	})
	out := make(map[string]*adaptive.Field, len(s.names))
	for i, name := range s.names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[name] = fields[i]
	}
	return out, nil
}

func runInsitu(ctx context.Context, c runCfg, r *report, codecName string) error {
	w0 := startWatch()
	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: insituN, Seed: c.seed + 1})
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	genS := w0.avail().Seconds()
	base := snap.Fields
	r.layer["nyx.generate_s"] = genS

	// Repeatable set-up: a fresh System runs step 0 — every field's first
	// calibration and the scratch-pool warm-up — into a fresh stream file.
	// The stream writer checkpoints its footer after every step so each
	// stored step can be read back while the run goes on.
	path := filepath.Join(c.dir, "insitu.acs")
	var (
		sys  *adaptive.System
		file *os.File
		sw   *adaptive.StreamWriter
		st0  *adaptive.StepStats
	)
	setupS, err := setupMedian(setupRepeats, func() error {
		if file != nil {
			file.Close()
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w, err := adaptive.NewCheckpointedStreamWriter(f, adaptive.CheckpointOptions{Interval: 1})
		if err != nil {
			f.Close()
			return err
		}
		s, err := adaptive.New(adaptive.WithCodec(codecName), adaptive.WithPartitionDim(insituPart), adaptive.WithStreamWriter(w))
		if err != nil {
			f.Close()
			return err
		}
		st, err := s.Step(ctx, base)
		if err != nil {
			f.Close()
			return fmt.Errorf("step 0: %w", err)
		}
		sys, file, sw, st0 = s, f, w, st
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer file.Close()
	r.e2e["setup_s"] = genS + setupS
	r.note("setup: generate %.3fs + median of %d step-0 runs %.3fs", genS, setupRepeats, setupS)

	calsOf := func(names map[string]*adaptive.Field) map[string]*adaptive.Calibration {
		out := map[string]*adaptive.Calibration{}
		for name := range names {
			out[name] = sys.Calibration(name)
		}
		return out
	}
	steps := []insituStep{{stats: *st0, cals: calsOf(base)}}
	chk := &insituChecker{sys: sys, file: file, codec: codecName}
	r.ops.attempted += int64(len(base))
	chk.check(ctx, r, 0, base, &steps[0], false)

	stream, err := newInsituSource(base, c.seed)
	if err != nil {
		return err
	}
	if _, err := stream.Next(); err != nil { // step 0 is the base
		return err
	}
	next, err := stream.Next()
	if err != nil {
		return err
	}
	var (
		m        meter
		measured time.Duration
		avail    time.Duration
		walls    []float64
		cells    int64
		bytesOut int64
	)
	for {
		cur := next
		m.start()
		w := startWatch()
		st, err := sys.Step(ctx, cur)
		wall := w.wall()
		avail += w.avail()
		m.stop()
		measured += wall
		more := measured < c.seconds
		r.ops.attempted += int64(len(cur))
		if err != nil {
			// The facade fails a step whole; every field of it counts.
			r.ops.failed += int64(len(cur))
			r.fail("step %d: %v", len(steps), err)
		} else {
			steps = append(steps, insituStep{stats: *st, cals: calsOf(cur)})
			walls = append(walls, wall.Seconds())
			cells += st.Cells
			bytesOut += st.Bytes
		}
		// Off the clock: check the stored step while the next one is
		// generated.
		var wg sync.WaitGroup
		var genErr error
		if more {
			wg.Add(1)
			go func() {
				defer wg.Done()
				next, genErr = stream.Next()
			}()
		}
		if err == nil {
			chk.check(ctx, r, len(steps)-1, cur, &steps[len(steps)-1], !more)
		}
		wg.Wait()
		if genErr != nil {
			return genErr
		}
		if !more {
			break
		}
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("close stream: %w", err)
	}
	fi, err := file.Stat()
	if err != nil {
		return err
	}
	if sr, err := adaptive.OpenStream(file, fi.Size()); err != nil {
		r.fail("final stream does not open: %v", err)
	} else if sr.Steps() != len(steps) {
		r.fail("final stream has %d steps, %d were written", sr.Steps(), len(steps))
	}
	if len(walls) == 0 {
		return fmt.Errorf("no step completed")
	}

	totalMB := fieldMB(cells)
	r.e2e["mb_s"] = totalMB / avail.Seconds()
	r.note("steal: %.3f of the measured steps' wall time; mb_s over wall time would be %.4g",
		1-avail.Seconds()/measured.Seconds(), totalMB/measured.Seconds())
	r.latencies(walls, "step")
	r.e2e["ratio"] = float64(4*cells) / float64(bytesOut)
	r.layer["spectrum.pk_rel_err"] = chk.pk
	m.book(r, totalMB)
	r.note("steps: %d measured, %.1f MB each", len(walls), totalMB/float64(len(walls)))
	r.note("quality: pk_rel_err = %.6g on the last step's baryon density", chk.pk)

	var fieldSteps, refits, corrections int
	for _, s := range steps[1:] {
		fieldSteps += len(s.stats.Fields)
		refits += s.stats.Recalibrations
		corrections += s.stats.ModelCorrections
	}
	r.layer["pipeline.refit_share"] = share(int64(refits), int64(fieldSteps))
	r.layer["pipeline.correction_share"] = share(int64(corrections), int64(fieldSteps))
	r.note("input property: %d of %d measured field-steps refit (%.3f), %d corrected (%.3f)",
		refits, fieldSteps, share(int64(refits), int64(fieldSteps)), corrections, share(int64(corrections), int64(fieldSteps)))
	r.note("checks: %d partitions decoded and checked, %d zfp no-guarantee partitions", chk.partitions, chk.noGuarantee)
	r.layer["zfp.no_guarantee"] = float64(chk.noGuarantee)

	if !c.traced {
		return nil
	}
	return replayInsitu(ctx, c, r, codecName, base, steps, path)
}

// insituChecker decodes stored steps back and checks them.
type insituChecker struct {
	sys         *adaptive.System
	file        *os.File
	codec       string
	partitions  int
	noGuarantee int
	pk          float64
}

// check reads step i back from the stream file (OpenStream → ReadStep →
// Decompress) and checks every partition of every field against its
// bound: the stored bound for sz, the re-planned bound for zfp (its
// frames do not record one). On the last step it also measures the
// baryon-density power-spectrum error.
func (k *insituChecker) check(ctx context.Context, r *report, i int, orig map[string]*adaptive.Field, st *insituStep, last bool) {
	failField := func(name string, format string, args ...any) {
		r.ops.failed++
		r.fail("step %d field %s: %s", i, name, fmt.Sprintf(format, args...))
	}
	fi, err := k.file.Stat()
	if err != nil {
		r.fail("step %d: stat stream: %v", i, err)
		return
	}
	sr, err := adaptive.OpenStream(k.file, fi.Size())
	var fields map[string]*adaptive.CompressedField
	if err == nil {
		fields, err = sr.ReadStep(i)
	}
	if err != nil {
		r.ops.failed += int64(len(orig))
		r.fail("step %d: read back: %v", i, err)
		return
	}
	for _, name := range sortedKeys(orig) {
		f, cf := orig[name], fields[name]
		if cf == nil {
			failField(name, "missing from the stored step")
			continue
		}
		ebs := cf.PartitionEBs()
		if k.codec == "zfp" {
			feat, err := k.sys.Features(ctx, f)
			if err != nil {
				failField(name, "features: %v", err)
				continue
			}
			plan, err := k.sys.PlanFromFeatures(feat, st.cals[name], adaptive.PlanOptions{AvgEB: st.field(name).AvgEB})
			if err != nil {
				failField(name, "re-plan: %v", err)
				continue
			}
			ebs = plan.EBs
		}
		bc, err := checkBounds(ctx, cf, f, ebs)
		if err != nil {
			failField(name, "%v", err)
			continue
		}
		k.partitions += len(ebs)
		k.noGuarantee += bc.noGuarantee
		if bc.violations > 0 {
			failField(name, "%d partitions exceed their error bound", bc.violations)
		}
		if last && name == adaptive.FieldBaryonDensity {
			if k.pk, err = pkRelErr(f, bc.dec); err != nil {
				r.fail("step %d: power spectrum: %v", i, err)
			}
		}
	}
}

// replayInsitu is the traced run. For each step of the timed run, from
// step 0, it runs the driver's StepCompressed on the same inputs, then
// replays the step's engine calls (with the timed run's calibrations and
// budgets) and each partition's codec calls, recording one span per call.
// Every replayed frame must be byte-identical to the stored one, so the
// spans time the same work the timed run did.
func replayInsitu(ctx context.Context, c runCfg, r *report, codecName string, base map[string]*adaptive.Field,
	steps []insituStep, path string) error {
	drv, err := pipeline.New(core.Config{PartitionDim: insituPart, Codec: codec.ID(codecName)}, pipeline.Options{})
	if err != nil {
		return err
	}
	eng := drv.Engine()
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return err
	}
	stored, err := core.OpenStream(file, fi.Size())
	if err != nil {
		return err
	}
	stream, err := newInsituSource(base, c.seed)
	if err != nil {
		return err
	}

	tr := newTracer()
	rp := &codecReplay{codec: codecName, tr: tr}
	cw := &countingWriter{}
	wsw, err := core.NewStreamWriter(cw)
	if err != nil {
		return err
	}
	var (
		replayed          time.Duration
		writeMB           []float64
		refits, corrected int
		frames            int
	)
	mismatch := func(i int, format string, args ...any) {
		r.fail("replay step %d: %s", i, fmt.Sprintf(format, args...))
	}
	for i := range steps {
		if i >= minReplaySteps && replayed >= c.seconds {
			break
		}
		snap, err := stream.Next()
		if err != nil {
			return err
		}
		want, err := storedArchives(stored, file, i)
		if err != nil {
			return err
		}
		op := int64(i)
		t1 := time.Now()

		// The driver's step on the same inputs: its frames and its refit
		// decisions must repeat the timed run's exactly. Both it and the
		// engine calls below start from a collected heap, so neither pays
		// for the other's garbage.
		var res *pipeline.StepResult
		runtime.GC()
		tr.time(0, "pipeline.step", op, func() { res, err = drv.StepCompressed(ctx, snap, pipeline.StepOptions{}) })
		if err != nil || len(res.Errs) > 0 {
			mismatch(i, "StepCompressed: %v %v", err, res.Errs)
			continue
		}
		refits += res.Stats.Recalibrations
		corrected += res.Stats.ModelCorrections
		for _, fs := range res.Stats.Fields {
			t := steps[i].field(fs.Name)
			if fs.Recalibrated != t.Recalibrated || fs.ModelCorrected != t.ModelCorrected || fs.AvgEB != t.AvgEB {
				mismatch(i, "field %s: refit/correction/budget differ from the timed run", fs.Name)
			}
		}
		for name, cf := range res.Fields {
			if !bytes.Equal(cf.Bytes(), want[name]) {
				mismatch(i, "field %s: StepCompressed bytes differ from the stored step", name)
			}
		}
		before := cw.n
		tr.time(0, "core.write", op, func() { err = wsw.WriteStep(res.Fields) })
		if err != nil {
			return fmt.Errorf("replay write: %w", err)
		}
		writeMB = append(writeMB, float64(cw.n-before)/mb)

		// The engine calls of the step, fields in parallel as the driver
		// runs them.
		names := sortedKeys(snap)
		plans := make([]*core.Plan, len(names))
		cfs := make([]*core.CompressedField, len(names))
		runtime.GC()
		engID, engStart := tr.id(), time.Now()
		var mu sync.Mutex
		parallel.ForEachCtx(ctx, len(names), 0, func(j int) {
			name := names[j]
			f, fs, cal := snap[name], steps[i].field(name), steps[i].cals[name]
			var feat []float64
			var err error
			tr.time(engID, "core.features", op, func() { feat, err = eng.Features(ctx, f) })
			if err == nil && fs.Recalibrated {
				var fresh *core.Calibration
				tr.time(engID, "core.calibrate", op, func() { fresh, err = eng.Calibrate(ctx, f, core.CalibrationOptions{}) })
				if err == nil && !reflect.DeepEqual(fresh, cal) {
					err = fmt.Errorf("calibration differs from the timed run's")
				}
			}
			if err == nil {
				tr.time(engID, "core.plan", op, func() {
					plans[j], err = eng.PlanFromFeatures(feat, cal, core.PlanOptions{AvgEB: fs.AvgEB})
				})
			}
			if err == nil {
				tr.time(engID, "core.compress", op, func() { cfs[j], err = eng.CompressAdaptive(ctx, f, plans[j]) })
			}
			if err == nil && !bytes.Equal(cfs[j].Bytes(), want[name]) {
				err = fmt.Errorf("replayed frames differ from the stored step")
			}
			if err != nil {
				mu.Lock()
				mismatch(i, "field %s: %v", name, err)
				mu.Unlock()
				cfs[j] = nil
			}
		})
		tr.add(engID, 0, "engine.step", op, engStart, time.Now())

		// Each partition's codec calls.
		for j, name := range names {
			if cfs[j] == nil {
				continue
			}
			n, err := rp.field(ctx, op, snap[name], plans[j], cfs[j])
			frames += n
			if err != nil {
				mismatch(i, "field %s codec replay: %v", name, err)
			}
		}
		replayed += time.Since(t1)
	}

	// Layer-sum check: over the replayed steps, the time the engine-level
	// spans (core.*) cover must match the steps' StepCompressed wall time.
	spans := tr.all()
	kids := childrenOf(spans)
	stepSpans, engSpans := named(spans, "pipeline.step"), named(spans, "engine.step")
	stepOf := map[int64]span{}
	for _, s := range stepSpans {
		stepOf[s.Op] = s
	}
	var ratios, coverages []float64
	var engTime, stepTime int64
	for _, s := range engSpans {
		cov := covered(s.Start, s.End, kids[s.ID])
		coverages = append(coverages, float64(cov)/float64(s.End-s.Start))
		if st, ok := stepOf[s.Op]; ok {
			engTime += cov
			stepTime += st.End - st.Start
			ratios = append(ratios, float64(cov)/float64(st.End-st.Start))
		}
	}
	layerSum := share(engTime, stepTime)
	if math.Abs(layerSum-1) > layerTolerance {
		r.fail("layer-sum check: engine spans cover %.3f of the replayed steps' StepCompressed time, need %.2f–%.2f",
			layerSum, 1-layerTolerance, 1+layerTolerance)
	}
	r.timing("pipeline.step_s", durations(stepSpans))
	r.layer["pipeline.refits"] = float64(refits)
	r.layer["pipeline.corrections"] = float64(corrected)
	for _, n := range []string{"features", "calibrate", "plan", "compress", "write"} {
		r.timing("core."+n+"_s", durations(named(spans, "core."+n)))
	}
	r.layer["core.write_mb"] = median(writeMB)
	engWork := 0.0
	for _, n := range []string{"features", "calibrate", "plan", "compress"} {
		engWork += sum(durations(named(spans, "core."+n)))
	}
	r.layer["core.plan_share"] = sum(durations(named(spans, "core.plan"))) / engWork
	r.layer["core.features_share"] = sum(durations(named(spans, "core.features"))) / engWork
	rp.book(r, spans)
	r.layer["trace.layer_coverage"] = layerSum
	untraced, traced := median(durations(stepSpans)), median(durations(engSpans))
	r.layer["trace.overhead_share"] = (traced - untraced) / untraced
	r.layer["trace.replayed_frames"] = float64(frames)
	r.layer["trace.spans"] = float64(len(spans))
	r.note("trace: %d steps replayed; layer sum (engine-span time / StepCompressed time) %.3f, tolerance ±%.2f; per step %s; the core.* spans cover at least %.4f of their engine.step span",
		len(stepSpans), layerSum, layerTolerance, fmtList(ratios), minOf(coverages))
	r.note("trace: overhead = traced engine step %.4fs vs untraced StepCompressed %.4fs", traced, untraced)
	return writeSpans(filepath.Join(c.dir, "insitu.spans.jsonl"), spans)
}

func fmtList(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(out, " ") + "]"
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// storedArchives reads each field's v2 archive bytes of step i straight
// from the stream file.
func storedArchives(sr *core.StreamReader, f io.ReaderAt, i int) (map[string][]byte, error) {
	layout, err := sr.StepLayout(i)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(layout))
	for _, fl := range layout {
		b := make([]byte, fl.ArchiveLength)
		if _, err := f.ReadAt(b, fl.ArchiveOffset); err != nil {
			return nil, err
		}
		out[fl.Name] = b
	}
	return out, nil
}

// codecReplay times each partition's codec calls.
type codecReplay struct {
	codec string
	tr    *tracer

	mu          sync.Mutex
	probes      map[string]int
	probeSum    int
	partitions  int
	noGuarantee int
	// unknownLayout counts sz bricks whose code stream the replay cannot
	// locate.
	unknownLayout atomic.Int64
}

// The replay reaches a partition's Huffman code stream through the sz
// brick layout (internal/sz/stream.go): the code stream follows the
// sz.HeaderBytes header, and its length sits at szCodeLenAt. This is the
// layout of brick version szLayoutVersion; a brick of another magic or
// version leaves huffman.encode_s unmeasured instead of failing the run.
const (
	szLayoutMagic   = "SZGO"
	szLayoutVersion = 1
	szCodeLenAt     = 40
)

// szCodeStream returns the brick's Huffman code stream, or false when the
// brick is not of the layout this benchmark reads.
func szCodeStream(b []byte) ([]byte, bool) {
	if len(b) < sz.HeaderBytes || string(b[:4]) != szLayoutMagic || b[4] != szLayoutVersion {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(b[szCodeLenAt:]))
	if n > len(b)-sz.HeaderBytes {
		return nil, false
	}
	return b[sz.HeaderBytes : sz.HeaderBytes+n], true
}

// field replays one field's partitions over GOMAXPROCS workers and returns
// how many frames it compared.
func (rp *codecReplay) field(ctx context.Context, op int64, f *adaptive.Field, plan *core.Plan, cf *core.CompressedField) (int, error) {
	p, err := grid.PartitionerForBrickDim(f.Nx, insituPart)
	if err != nil {
		return 0, err
	}
	parts := p.Partitions()
	var next atomic.Int64
	var firstErr error
	var mu sync.Mutex
	parallel.WorkersCtx(ctx, len(parts), 0, func(nextIdx func() (int, bool)) {
		w := &replayWorker{}
		for i, ok := nextIdx(); ok; i, ok = nextIdx() {
			next.Add(1)
			if err := rp.partition(ctx, op, w, f, parts[i], plan, i, cf.Parts[i]); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("partition %d: %w", i, err)
				}
				mu.Unlock()
			}
		}
	})
	return int(next.Load()), firstErr
}

// replayWorker is one worker's scratch.
type replayWorker struct {
	brick      []float32
	sz         sz.Scratch
	huffEnc    huffman.Scratch
	huffDec    huffman.Scratch
	zfp        zfp.Scratch
	codec      codec.Scratch
	zfpBackend codec.Codec
}

func (rp *codecReplay) partition(ctx context.Context, op int64, w *replayWorker, f *adaptive.Field, part grid.Partition,
	plan *core.Plan, i int, frame codec.Frame) error {
	if cap(w.brick) < part.Len() {
		w.brick = make([]float32, part.Len())
	}
	brick := w.brick[:part.Len()]
	grid.ExtractInto(brick, f, part)
	nx, ny, nz := part.Dims()
	want := frame.Bytes()
	var err error
	switch rp.codec {
	case "sz":
		var c *sz.Compressed
		rp.tr.time(0, "sz.compress", op, func() {
			c, err = sz.CompressSliceWith(brick, nx, ny, nz, sz.Options{ErrorBound: plan.EBs[i]}, &w.sz)
		})
		if err != nil {
			return err
		}
		got := c.Bytes()
		if !bytes.Equal(got, want) {
			return fmt.Errorf("sz.CompressSliceWith bytes differ from the engine's frame")
		}
		code, ok := szCodeStream(got)
		if !ok {
			rp.unknownLayout.Add(1)
			return nil
		}
		tokens, err := huffman.DecompressWith(code, &w.huffDec)
		if err != nil {
			return fmt.Errorf("decode the partition's token stream: %w", err)
		}
		var enc []byte
		rp.tr.time(0, "huffman.encode", op, func() { enc, err = huffman.CompressWith(tokens, &w.huffEnc) })
		if err != nil {
			return err
		}
		if !bytes.Equal(enc, code) {
			return fmt.Errorf("huffman re-encode differs from the stored code stream")
		}
	case "zfp":
		if w.zfpBackend == nil {
			if w.zfpBackend, err = codec.Lookup(codec.ZFP); err != nil {
				return err
			}
		}
		bf := &grid.Field3D{Nx: nx, Ny: ny, Nz: nz, Data: brick}
		var ix *zfp.Indexed
		rp.tr.time(0, "zfp.index", op, func() { ix, err = zfp.CompressIndexed(bf, zfp.Options{Rate: zfpMaxRate}, &w.zfp) })
		if err != nil {
			return err
		}
		var tel codec.Telemetry
		var fr codec.Frame
		rp.tr.time(0, "zfp.compress", op, func() {
			fr, err = codec.CompressCtx(ctx, w.zfpBackend, brick, nx, ny, nz,
				codec.Options{ErrorBound: plan.EBs[i], RateHint: plan.Rates[i], Telemetry: &tel}, &w.codec)
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(fr.Bytes(), want) {
			return fmt.Errorf("bounded zfp compress differs from the engine's frame")
		}
		var tc *zfp.Compressed
		rp.tr.time(0, "zfp.truncate", op, func() { tc, err = ix.TruncateToRate(tel.ChosenRate, &w.zfp) })
		if err != nil {
			return err
		}
		if !bytes.Equal(tc.Bytes(), want) {
			return fmt.Errorf("TruncateToRate(%g) differs from the engine's frame", tel.ChosenRate)
		}
		rp.mu.Lock()
		if rp.probes == nil {
			rp.probes = map[string]int{}
		}
		rp.probes[probeBucket(tel.Probes)]++
		rp.probeSum += tel.Probes
		rp.partitions++
		if fr.ErrorBound() == 0 {
			rp.noGuarantee++
		}
		rp.mu.Unlock()
	}
	return nil
}

// book derives the codec-layer metrics from the replay's spans.
func (rp *codecReplay) book(r *report, spans []span) {
	switch rp.codec {
	case "sz":
		szs, hs := named(spans, "sz.compress"), named(spans, "huffman.encode")
		r.timing("sz.compress_s", durations(szs))
		if n := rp.unknownLayout.Load(); n > 0 {
			for _, m := range []string{"huffman.encode_s.p50", "huffman.encode_s.tail", "huffman.encode_s.step",
				"sz.predict_s.step", "huffman.share"} {
				r.unmeasured(m, fmt.Sprintf("%d sz bricks are not of layout %q version %d, so their Huffman code stream cannot be reached",
					n, szLayoutMagic, szLayoutVersion))
			}
			r.layer["sz.compress_s.step"] = median(perOp(szs))
			return
		}
		r.timing("huffman.encode_s", durations(hs))
		szStep, hStep := perOp(szs), perOp(hs)
		predict := make([]float64, len(szStep))
		for i := range szStep {
			predict[i] = szStep[i] - hStep[i]
		}
		r.layer["sz.compress_s.step"] = median(szStep)
		r.layer["huffman.encode_s.step"] = median(hStep)
		r.layer["sz.predict_s.step"] = median(predict)
		r.layer["huffman.share"] = sum(hStep) / sum(szStep)
	case "zfp":
		ix, tc, all := named(spans, "zfp.index"), named(spans, "zfp.truncate"), named(spans, "zfp.compress")
		r.timing("zfp.index_s", durations(ix))
		r.timing("zfp.truncate_s", durations(tc))
		ixStep, tcStep, allStep := perOp(ix), perOp(tc), perOp(all)
		probe := make([]float64, len(allStep))
		for i := range allStep {
			probe[i] = allStep[i] - ixStep[i] - tcStep[i]
		}
		r.layer["zfp.index_s.step"] = median(ixStep)
		r.layer["zfp.truncate_s.step"] = median(tcStep)
		r.layer["zfp.probe_s.step"] = median(probe)
		r.layer["zfp.probe_share"] = sum(probe) / sum(allStep)
		hist := ""
		for _, b := range probeBuckets {
			sh := share(int64(rp.probes[b]), int64(rp.partitions))
			r.layer["zfp.probes_share."+b] = sh
			hist += fmt.Sprintf(" %s:%.3f", b, sh)
		}
		r.layer["zfp.probes"] = float64(rp.probeSum) / float64(rp.partitions)
		r.note("input property: zfp probes per partition histogram (%d partitions):%s; %d replayed frames carry no bound",
			rp.partitions, hist, rp.noGuarantee)
	}
}
