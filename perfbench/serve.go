package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/adaptive"
)

// serve-write drives an in-process compression service in a closed loop:
// each client posts a small field and waits for its archive, like a
// simulation rank that cannot go on before its data is safe.
const (
	serveN       = 32
	serveClients = 32
	serveTenants = 4
	serveKinds   = 4
	serveConns   = 2
	// serveSteps distinct drifting steps per field kind; clients cycle
	// through them, so the service sees drift and refits.
	serveSteps = 8
	// serveSampleEvery keeps every n-th reply per client for the checks.
	serveSampleEvery = 8
	// serveReplaySamples bounds the traced run's encode/decode replays.
	serveReplaySamples = 512
)

// serveInputs holds each tenant's own simulation: tenant t's clients post
// drifting steps of its field kinds.
type serveInputs struct {
	kinds []string
	steps [][][]*adaptive.Field // [tenant][step][kind]
}

// field is client i's n-th field.
func (in *serveInputs) field(i, n int) *adaptive.Field {
	return in.steps[i%serveTenants][(n+i)%serveSteps][kindOf(i)]
}

// serveEnv is one running service with its clients.
type serveEnv struct {
	srv     *adaptive.Server
	http    *httpEnv
	clients []*adaptive.Client
}

func startServe(in *serveInputs, tr *tracer) (*serveEnv, error) {
	sys, err := adaptive.New(adaptive.WithCodec("sz"), adaptive.WithPartitionDim(16))
	if err != nil {
		return nil, err
	}
	srv, err := sys.NewServer(adaptive.ServerConfig{})
	if err != nil {
		return nil, err
	}
	he, err := startHTTP(srv.Handler(), serveConns, tr, func(int, http.Header) string { return "server.handler" })
	if err != nil {
		srv.Close()
		return nil, err
	}
	env := &serveEnv{srv: srv, http: he}
	for i := 0; i < serveClients; i++ {
		cl, err := adaptive.NewClient(he.url, adaptive.WithTenant(fmt.Sprintf("tenant-%d", i%serveTenants)),
			adaptive.WithHTTPClient(he.conns[i%serveConns]))
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, cl)
	}
	return env, nil
}

func (e *serveEnv) close() error {
	err := e.http.close()
	e.srv.Close()
	return err
}

// kindOf is the field kind client i posts.
func kindOf(i int) int { return (i / serveTenants) % serveKinds }

// warm posts each client's first field once: every tenant-field pair's
// first calibration happens here, outside the measurement.
func (e *serveEnv) warm(ctx context.Context, in *serveInputs) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = cl.Compress(ctx, in.kinds[kindOf(i)], in.field(i, 0))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// serveSample is one kept reply.
type serveSample struct {
	kind    int
	orig    *adaptive.Field
	archive []byte
}

type serveRound struct {
	ops tally
	// latencies are in completion order.
	latencies []float64
	done      []time.Time
	wall      time.Duration
	cells     int64
	bytesOut  int64
	samples   []serveSample
}

// loop runs the closed loop for dur: each client posts its next field as
// soon as the previous reply arrives. Latency runs from the call's start
// to its reply, retries included.
func (e *serveEnv) loop(ctx context.Context, in *serveInputs, dur time.Duration, tr *tracer) *serveRound {
	rounds := make([]serveRound, len(e.clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := &rounds[i]
			k := kindOf(i)
			for n := 0; time.Now().Before(deadline); n++ {
				f := in.field(i, n)
				op := int64(i)<<32 | int64(n)
				var res *adaptive.CompressResult
				var err error
				t0 := time.Now()
				if tr != nil {
					id := tr.id()
					res, err = cl.Compress(withCall(ctx, op, id), in.kinds[k], f)
					tr.add(id, 0, "client.call", op, t0, time.Now())
				} else {
					res, err = cl.Compress(ctx, in.kinds[k], f)
				}
				lat := time.Since(t0)
				rd.ops.record(err == nil, lat, 0)
				if err != nil {
					continue
				}
				rd.latencies = append(rd.latencies, lat.Seconds())
				rd.done = append(rd.done, t0.Add(lat))
				rd.cells += int64(f.Len())
				rd.bytesOut += int64(len(res.Archive))
				if n%serveSampleEvery == 0 {
					rd.samples = append(rd.samples, serveSample{kind: k, orig: f, archive: res.Archive})
				}
			}
		}()
	}
	wg.Wait()
	out := &serveRound{wall: time.Since(start)}
	type sample struct {
		done time.Time
		lat  float64
	}
	var all []sample
	for i := range rounds {
		rd := &rounds[i]
		out.ops.add(rd.ops)
		for j, lat := range rd.latencies {
			all = append(all, sample{rd.done[j], lat})
		}
		out.cells += rd.cells
		out.bytesOut += rd.bytesOut
		out.samples = append(out.samples, rd.samples...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].done.Before(all[b].done) })
	for _, x := range all {
		out.latencies = append(out.latencies, x.lat)
	}
	return out
}

func serveWrite(ctx context.Context, c runCfg, r *report) error {
	w0 := startWatch()
	in := &serveInputs{kinds: adaptive.FieldNames()[:serveKinds]}
	for t := 0; t < serveTenants; t++ {
		snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: serveN, Seed: c.seed*serveTenants + uint64(t) + 1})
		if err != nil {
			return err
		}
		stream, err := adaptive.NewSynthStreamFrom(snap.Fields, adaptive.SynthStreamParams{Steps: serveSteps, Fields: in.kinds})
		if err != nil {
			return err
		}
		var steps [][]*adaptive.Field
		for s := 0; s < serveSteps; s++ {
			step, err := stream.Next()
			if err != nil {
				return err
			}
			row := make([]*adaptive.Field, serveKinds)
			for k, name := range in.kinds {
				row[k] = step[name]
			}
			steps = append(steps, row)
		}
		in.steps = append(in.steps, steps)
	}
	genS := w0.avail().Seconds()
	r.layer["nyx.generate_s"] = genS

	var env *serveEnv
	setupS, err := setupMedian(setupRepeats, func() error {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		var err error
		if env, err = startServe(in, nil); err != nil {
			return err
		}
		return env.warm(ctx, in)
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.e2e["setup_s"] = genS + setupS
	r.note("setup: generate %.3fs + median of %d service starts with warm-up %.3fs", genS, setupRepeats, setupS)

	var m meter
	m.start()
	w := startWatch()
	rd := env.loop(ctx, in, c.seconds, nil)
	avail := w.avail()
	m.stop()
	if err := env.close(); err != nil {
		return err
	}
	r.ops.add(rd.ops)
	if len(rd.latencies) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	totalMB := fieldMB(rd.cells)
	r.e2e["mb_s"] = totalMB / avail.Seconds()
	r.note("steal: %.3f of the loop's wall time; mb_s over wall time would be %.4g",
		1-avail.Seconds()/rd.wall.Seconds(), totalMB/rd.wall.Seconds())
	r.latencies(rd.latencies, "request")
	r.e2e["ratio"] = float64(4*rd.cells) / float64(rd.bytesOut)
	m.book(r, totalMB)
	r.note("closed loop: %d clients, %d tenants, %d h2c connections, %d³ fields; %d requests",
		serveClients, serveTenants, serveConns, serveN, rd.ops.attempted)

	pk, err := checkReplies(ctx, r, rd.samples)
	if err != nil {
		return err
	}
	r.layer["spectrum.pk_rel_err"] = pk
	if !c.traced {
		return nil
	}
	return traceServe(ctx, c, r, in)
}

// checkReplies decodes the kept replies and checks each partition against
// the bound its frame records; a violation fails that request. It returns
// the median power-spectrum error of the baryon-density replies.
func checkReplies(ctx context.Context, r *report, samples []serveSample) (float64, error) {
	var pks []float64
	for _, s := range samples {
		cf, err := adaptive.ParseArchive(s.archive)
		if err != nil {
			r.ops.failed++
			r.fail("reply does not parse: %v", err)
			continue
		}
		bc, err := checkBounds(ctx, cf, s.orig, cf.PartitionEBs())
		if err != nil || bc.violations > 0 {
			r.ops.failed++
			r.fail("reply check: err=%v, %d partitions over their bound", err, bc.violations)
			continue
		}
		if s.kind == 0 {
			pk, err := pkRelErr(s.orig, bc.dec)
			if err != nil {
				return 0, err
			}
			pks = append(pks, pk)
		}
	}
	r.note("checks: %d sampled replies decoded within their bounds; pk_rel_err is the median over %d baryon-density replies",
		len(samples), len(pks))
	if len(pks) == 0 {
		return 0, fmt.Errorf("no baryon-density reply was sampled")
	}
	return median(pks), nil
}

// traceServe repeats the closed loop on a fresh, warmed service with the
// handler middleware and the round-trip wrapper recording spans, then
// replays the client's encode and decode on sampled requests.
func traceServe(ctx context.Context, c runCfg, r *report, in *serveInputs) error {
	tr := newTracer()
	env, err := startServe(in, tr)
	if err != nil {
		return err
	}
	if err := env.warm(ctx, in); err != nil {
		env.close()
		return err
	}
	tr.reset()
	before := env.srv.Stats()
	var retries0 uint64
	for _, cl := range env.clients {
		retries0 += cl.Counters().Retries
	}
	stop := make(chan struct{})
	var queuedMax int
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				queuedMax = max(queuedMax, env.srv.Stats().Queued)
			}
		}
	}()
	rd := env.loop(ctx, in, c.seconds, tr)
	close(stop)
	pollWG.Wait()
	after := env.srv.Stats()
	var retries uint64
	for _, cl := range env.clients {
		retries += cl.Counters().Retries
	}
	if err := env.close(); err != nil {
		return err
	}

	for i, s := range rd.samples {
		if i == serveReplaySamples {
			break
		}
		op := int64(i)
		tr.time(0, "client.encode", op, func() { adaptive.MarshalFieldPayload(s.orig) })
		var err error
		tr.time(0, "client.decode", op, func() {
			var cf *adaptive.CompressedField
			if cf, err = adaptive.ParseArchive(s.archive); err == nil {
				_, err = cf.Decompress(ctx)
			}
		})
		if err != nil {
			r.fail("traced reply does not decode: %v", err)
		}
	}

	spans := tr.all()
	r.timing("server.handler_s", durations(named(spans, "server.handler")))
	r.timing("client.call_s", durations(named(spans, "client.call")))
	r.timing("client.roundtrip_s", durations(named(spans, "client.roundtrip")))
	r.timing("client.wire_s", wireTimes(spans))
	r.timing("client.encode_s", durations(named(spans, "client.encode")))
	r.timing("client.decode_s", durations(named(spans, "client.decode")))
	if b := after.Batches - before.Batches; b > 0 {
		r.layer["server.fields_per_batch"] = float64(after.Served-before.Served) / float64(b)
	}
	r.layer["server.queued_max"] = float64(queuedMax)
	r.layer["server.rejected"] = float64(after.Rejected - before.Rejected)
	r.layer["server.failed"] = float64(after.Failed - before.Failed)
	r.layer["client.retries"] = float64(retries - retries0)
	r.layer["trace.spans"] = float64(len(spans))
	if len(rd.latencies) > 0 {
		untraced := r.layer["loadgen.latency_ms.p50"] / 1e3
		r.layer["trace.overhead_share"] = (median(rd.latencies) - untraced) / untraced
	}
	r.note("trace: %d traced requests; overhead compares the traced and untraced closed loops' median latency", rd.ops.attempted)
	return writeSpans(filepath.Join(c.dir, "serve.spans.jsonl"), spans)
}
