package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptive"
)

// archive-read serves a stored ZFP archive to independent readers: analysts
// who each fetch one field of one step at their quality tier, revalidating
// what they already hold. The request mix is cmd/loadgen's read mode.
// An open loop at a fixed arrival rate runs for a quarter of the run; a
// closed-loop capacity phase with the same mix takes the rest and sets mb_s
// and cpu_ms_per_mb.
const (
	archN     = 64
	archSteps = 24
	archRate  = 16
	// archPart is the stored brick edge, the in situ layout's; the
	// writer's default of 2 would store 8-cell bricks.
	archPart   = 16
	archStream = "bench"
	// archReaders is the reader population, cmd/loadgen's default client
	// count; each reader keeps the ETags of what it fetched.
	archReaders = 256
	// archZipfS is cmd/loadgen's step-popularity exponent: the newest step
	// is the most popular.
	archZipfS = 1.3
	// archOpenRate is the open loop's requests per second, about half the
	// closed-loop capacity on the 2-core reference machine.
	archOpenRate = 1000
	// archSLO is the latency limit a request must meet.
	archSLO = 50 * time.Millisecond
	// archCacheShare sizes the server cache against the working set of
	// distinct representations, like archived -cache-mb.
	archCacheShare = 0.25
	// archMaxOutstanding bounds the open loop's requests in flight; a full
	// window stalls the generator, which then shows as lag and latency.
	archMaxOutstanding = 64
	// archCapacityReaders is the closed loop's concurrency: enough requests
	// in flight that slow wake-ups on a busy host do not idle the cores (4
	// gave a 10 % lower rate; 8 and 16 the same rate and CPUs busy). The
	// capacity phase has a fixed amount of work, archCapacityRate requests
	// for each of its seconds: about its capacity on the 2-core reference
	// machine. The phase runs in archCapacityBlocks blocks of about half a
	// second, each timed on its own.
	archCapacityReaders = 16
	archCapacityRate    = 2000
	archCapacityBlocks  = 15
	// archWarmReaders is the first reader of the warm-up's population.
	archWarmReaders = 1 << 20
	// archCheckEvery compares every n-th request's body with the reference.
	archCheckEvery   = 32
	archWarmParallel = 8
)

var archFields = []string{adaptive.FieldBaryonDensity, adaptive.FieldTemperature}

// archTierRates are the three reader tiers' rates: browse at 4
// bits/value, analysis at 8, and the stored full-rate bytes (0).
var archTierRates = []float64{4, 8, 0}

// tierOf gives reader u its tier. Eight readers in ten browse, cmd/loadgen's
// -browse-frac; the others analyse, half at rate 8 and half at the stored
// rate (loadgen's -analysis-rate default). Assigning tiers by reader index
// gives every seed the same population.
func tierOf(u int) int {
	switch m := u % 10; {
	case m < 8:
		return 0
	case m < 9:
		return 1
	default:
		return 2
	}
}

type archKey struct{ step, field, tier int }

// archStore is the set-up's stored archive and its references.
type archStore struct {
	dir string
	// refs are the SHA-256 digests of the expected bodies: the stored
	// field archive, or SpliceArchiveField of it at the tier's rate. Only
	// digests are kept, so the references do not add to the process's
	// resident set.
	refs       map[archKey][sha256.Size]byte
	workingSet int64
	lastBaryon *adaptive.Field
	// lastFull is the last step's stored baryon-density archive.
	lastFull []byte
	// genS is the input generation part of the build.
	genS float64
}

func buildArchStore(dir string, seed uint64) (*archStore, error) {
	t0 := time.Now()
	snap, err := adaptive.GenerateSnapshot(adaptive.SynthParams{N: archN, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	stream, err := adaptive.NewSynthStreamFrom(snap.Fields, adaptive.SynthStreamParams{Steps: archSteps, Fields: archFields})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, archStream+adaptive.ArchiveStreamSuffix)
	w, err := adaptive.NewArchiveWriter(path, adaptive.ArchiveWriterOptions{Rate: archRate, PartitionDim: archPart})
	if err != nil {
		return nil, err
	}
	st := &archStore{dir: dir, refs: map[archKey][sha256.Size]byte{}}
	gen := time.Since(t0)
	for s := 0; s < archSteps; s++ {
		t1 := time.Now()
		step, err := stream.Next()
		if err != nil {
			return nil, err
		}
		gen += time.Since(t1)
		specs := map[string]adaptive.ArchiveFieldSpec{}
		for _, name := range archFields {
			specs[name] = adaptive.ArchiveFieldSpec{Field: step[name]}
		}
		if err := w.WriteStep(specs); err != nil {
			return nil, fmt.Errorf("archive step %d: %w", s, err)
		}
		st.lastBaryon = step[adaptive.FieldBaryonDensity]
	}
	st.genS = gen.Seconds()
	if err := w.Close(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sr, err := adaptive.OpenStream(f, fi.Size())
	if err != nil {
		return nil, err
	}
	for s := 0; s < archSteps; s++ {
		layout, err := sr.StepLayout(s)
		if err != nil {
			return nil, err
		}
		for _, fl := range layout {
			fi := indexOf(archFields, fl.Name)
			full := make([]byte, fl.ArchiveLength)
			if _, err := f.ReadAt(full, fl.ArchiveOffset); err != nil {
				return nil, err
			}
			for t, rate := range archTierRates {
				body := full
				if rate > 0 {
					if body, err = adaptive.SpliceArchiveField(full, rate); err != nil {
						return nil, err
					}
				}
				st.refs[archKey{s, fi, t}] = sha256.Sum256(body)
				st.workingSet += int64(len(body))
			}
			if s == archSteps-1 && fl.Name == adaptive.FieldBaryonDensity {
				st.lastFull = full
			}
		}
	}
	return st, nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// archReq is one reader's request.
type archReq struct {
	reader int
	key    archKey
}

// archRequests draws n requests from the population of readers first …
// first+pop−1: a uniform reader, a Zipf step counted back from the
// newest, a uniform field, and the reader's tier.
func archRequests(rng *rand.Rand, n, first, pop int) []archReq {
	zipf := rand.NewZipf(rng, archZipfS, 1, archSteps-1)
	out := make([]archReq, n)
	for i := range out {
		u := rng.Intn(pop)
		step := archSteps - 1 - int(zipf.Uint64())
		out[i] = archReq{first + u, archKey{step, rng.Intn(len(archFields)), tierOf(u)}}
	}
	return out
}

// archArrival is one open-loop request and its due time.
type archArrival struct {
	due time.Duration
	req archReq
}

// archSchedule draws the open loop's arrivals from the seed.
func archSchedule(seed uint64, dur time.Duration) []archArrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	dues := arrivals(rng, int(archOpenRate*dur.Seconds()), dur)
	reqs := archRequests(rng, len(dues), 0, archReaders)
	out := make([]archArrival, len(dues))
	for i := range out {
		out[i] = archArrival{dues[i], reqs[i]}
	}
	return out
}

// archEnv is one running archive server with its readers' state.
type archEnv struct {
	srv     *adaptive.ArchiveServer
	http    *httpEnv
	clients []*adaptive.Client
	mu      sync.Mutex
	etags   map[[2]int]string // (reader, key hash) → ETag
}

func startArchive(st *archStore, tr *tracer) (*archEnv, error) {
	srv, err := adaptive.NewArchiveServer(adaptive.ArchiveServerConfig{Dir: st.dir,
		CacheBytes: int64(archCacheShare * float64(st.workingSet))})
	if err != nil {
		return nil, err
	}
	he, err := startHTTP(srv.Handler(), serveConns, tr, archSpanName)
	if err != nil {
		srv.Close()
		return nil, err
	}
	env := &archEnv{srv: srv, http: he, etags: map[[2]int]string{}}
	for _, hc := range he.conns {
		cl, err := adaptive.NewClient(he.url, adaptive.WithHTTPClient(hc))
		if err != nil {
			env.close()
			return nil, err
		}
		env.clients = append(env.clients, cl)
	}
	return env, nil
}

// archSpanName splits archive handler time by how the request was served.
func archSpanName(status int, h http.Header) string {
	switch {
	case status == http.StatusNotModified:
		return "archiveserve.revalidate"
	case h.Get("X-Cache") == "HIT":
		return "archiveserve.hit"
	default:
		return "archiveserve.miss"
	}
}

func (e *archEnv) close() error {
	err := e.http.close()
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

func keyID(k archKey) int { return (k.step*len(archFields)+k.field)*len(archTierRates) + k.tier }

// fetch performs one reader's request, revalidating with its ETag.
func (e *archEnv) fetch(ctx context.Context, reader int, k archKey) (*adaptive.ArchiveFetchResult, error) {
	mk := [2]int{reader, keyID(k)}
	e.mu.Lock()
	etag := e.etags[mk]
	e.mu.Unlock()
	res, err := e.clients[reader%len(e.clients)].FetchField(ctx, archStream, k.step, archFields[k.field],
		adaptive.ArchiveFetchOptions{Rate: archTierRates[k.tier], ETag: etag})
	if err == nil && res.ETag != "" {
		e.mu.Lock()
		e.etags[mk] = res.ETag
		e.mu.Unlock()
	}
	return res, err
}

// warm fills the cache with readers outside the measured population, so
// the measured readers start with no ETags.
func (e *archEnv) warm(ctx context.Context, st *archStore, seed uint64) error {
	reqs := archRequests(rand.New(rand.NewSource(int64(seed^0x5bd1e995))), 20000, archWarmReaders, archReaders)
	budget := int64(archCacheShare * float64(st.workingSet))
	var next int
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < archWarmParallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				full := e.srv.Stats().Cache.Bytes >= budget*9/10
				if next >= len(reqs) || firstErr != nil || full {
					mu.Unlock()
					return
				}
				q := reqs[next]
				next++
				mu.Unlock()
				if _, err := e.fetch(ctx, q.reader, q.key); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("warm-up: %w", firstErr)
	}
	if e.srv.Stats().Cache.Bytes < budget*9/10 {
		return fmt.Errorf("warm-up did not fill the cache")
	}
	return nil
}

// archRound is what one phase of requests measured.
type archRound struct {
	mu  sync.Mutex
	ops tally
	// latencies are the successful requests', in completion order.
	latencies, lags     []float64
	wall, avail         time.Duration
	ok200, ok304, hits  int64
	bytes200, fp32Bytes int64
	checked, mismatched int
}

// do performs request op, checks every archCheckEvery-th body against the
// reference and books the outcome.
func (e *archEnv) do(ctx context.Context, st *archStore, rd *archRound, op int64, q archReq, tr *tracer) bool {
	var res *adaptive.ArchiveFetchResult
	var err error
	if tr != nil {
		id := tr.id()
		t0 := time.Now()
		res, err = e.fetch(withCall(ctx, op, id), q.reader, q.key)
		tr.add(id, 0, "client.call", op, t0, time.Now())
	} else {
		res, err = e.fetch(ctx, q.reader, q.key)
	}
	check := err == nil && !res.NotModified && op%archCheckEvery == 0
	match := check && sha256.Sum256(res.Body) == st.refs[q.key]
	ok := err == nil && (!check || match)
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if check {
		rd.checked++
		if !match {
			rd.mismatched++
		}
	}
	if err == nil {
		if res.NotModified {
			rd.ok304++
		} else {
			rd.ok200++
			rd.bytes200 += int64(len(res.Body))
			rd.fp32Bytes += 4 * archN * archN * archN
			if res.CacheHit {
				rd.hits++
			}
		}
	}
	return ok
}

// open runs the open loop: each request is sent when due, whatever the
// state of earlier ones, and is timed from its due time to its reply.
func (e *archEnv) open(ctx context.Context, st *archStore, sched []archArrival, tr *tracer) *archRound {
	rd := &archRound{}
	sem := make(chan struct{}, archMaxOutstanding)
	var wg sync.WaitGroup
	w := startWatch()
	for i, a := range sched {
		due := w.start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Now()
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			ok := e.do(ctx, st, rd, int64(i), a.req, tr)
			lat, lag := dueLatency(due, sent, time.Now())
			rd.mu.Lock()
			defer rd.mu.Unlock()
			rd.lags = append(rd.lags, lag.Seconds())
			rd.ops.record(ok, lat, archSLO)
			if ok {
				rd.latencies = append(rd.latencies, lat.Seconds())
			}
		}()
	}
	wg.Wait()
	rd.wall, rd.avail = w.wall(), w.avail()
	return rd
}

// capacity runs the closed loop: archCapacityReaders workers take the
// requests in order, each sending the next as soon as its reply is in,
// until none are left. Request numbers continue from firstOp.
func (e *archEnv) capacity(ctx context.Context, st *archStore, reqs []archReq, firstOp int64) *archRound {
	rd := &archRound{}
	var next atomic.Int64
	var wg sync.WaitGroup
	w := startWatch()
	for range archCapacityReaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(reqs)); i = next.Add(1) - 1 {
				t0 := time.Now()
				ok := e.do(ctx, st, rd, firstOp+i, reqs[i], nil)
				lat := time.Since(t0)
				rd.mu.Lock()
				rd.ops.record(ok, lat, archSLO)
				rd.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rd.wall, rd.avail = w.wall(), w.avail()
	return rd
}

// capacityBlocks draws the capacity phase's requests: archCapacityBlocks
// blocks that together hold archCapacityRate requests for each second of
// dur. Each block comes from a fresh population of readers, as many as
// make each reader send as many requests as an open-loop reader does, so
// every block has the open loop's mix of hits, misses and revalidations.
func capacityBlocks(seed uint64, openReqs int, dur time.Duration) [][]archReq {
	rng := rand.New(rand.NewSource(int64(seed ^ 0x9e3779b9)))
	size := max(1, int(archCapacityRate*dur.Seconds())/archCapacityBlocks)
	pop := max(1, int(math.Round(float64(archReaders)*float64(size)/float64(openReqs))))
	out := make([][]archReq, archCapacityBlocks)
	for b := range out {
		out[b] = archRequests(rng, size, archReaders+b*pop, pop)
	}
	return out
}

func (rd *archRound) done() int64 { return rd.ok200 + rd.ok304 }

// add folds the counts and times of o into rd.
func (rd *archRound) add(o *archRound) {
	rd.ops.add(o.ops)
	rd.wall += o.wall
	rd.avail += o.avail
	rd.ok200 += o.ok200
	rd.ok304 += o.ok304
	rd.hits += o.hits
	rd.bytes200 += o.bytes200
	rd.fp32Bytes += o.fp32Bytes
	rd.checked += o.checked
	rd.mismatched += o.mismatched
}

func archiveRead(ctx context.Context, c runCfg, r *report) error {
	w0 := startWatch()
	st, err := buildArchStore(c.dir, c.seed)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	buildS := w0.avail().Seconds()
	r.layer["nyx.generate_s"] = st.genS

	var env *archEnv
	setupS, err := setupMedian(setupRepeats, func() error {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		var err error
		if env, err = startArchive(st, nil); err != nil {
			return err
		}
		return env.warm(ctx, st, c.seed)
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.e2e["setup_s"] = buildS + setupS
	r.note("setup: generate and store %d steps × %d fields %.3fs + median of %d server starts with cache warm-up %.3fs",
		archSteps, len(archFields), buildS, setupRepeats, setupS)
	r.note("cache budget %.1f MB = %.2f of the %.1f MB working set of distinct representations",
		archCacheShare*float64(st.workingSet)/mb, archCacheShare, float64(st.workingSet)/mb)

	// A quarter of the run is the open loop, the rest the capacity phase.
	openDur := c.seconds / 4
	sched := archSchedule(c.seed, openDur)
	blocks := capacityBlocks(c.seed, len(sched), c.seconds-openDur)
	fieldOf := func(n int64) float64 { return fieldMB(n * archN * archN * archN) }
	var m meter
	m.start()
	op := env.open(ctx, st, sched, nil)
	m.stop()
	openCPU := m.cpu
	// The capacity phase runs its blocks one after another, each a closed
	// loop timed on its own; mb_s and cpu_ms_per_mb are the blocks'
	// medians, so a burst of load on the shared host moves a few blocks
	// only. The phase is one measured interval: freeing the heap before
	// each block would time the page faults of its regrowth.
	cp := &archRound{}
	var rates, cpus []float64
	nextOp := int64(len(sched))
	m.start()
	for k, reqs := range blocks {
		cpu0 := cpuSeconds()
		rd := env.capacity(ctx, st, reqs, nextOp)
		cpu := cpuSeconds() - cpu0
		nextOp += int64(len(reqs))
		if rd.done() == 0 {
			return fmt.Errorf("capacity block %d: no request succeeded", k)
		}
		rates = append(rates, fieldOf(rd.done())/rd.avail.Seconds())
		cpus = append(cpus, 1e3*cpu/fieldOf(rd.done()))
		cp.add(rd)
	}
	m.stop()
	if err := env.close(); err != nil {
		return err
	}
	r.ops.add(op.ops)
	r.ops.add(cp.ops)
	if n := op.mismatched + cp.mismatched; n > 0 {
		r.fail("%d of %d checked bodies differ from SpliceArchiveField of the stored bytes", n, op.checked+cp.checked)
	}
	if len(op.latencies) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	r.e2e["mb_s"] = median(rates)
	r.note("capacity: %d closed-loop workers answered %d requests in %d blocks of %d: %s MB/s, %s CPU ms/MB; %.2f of %d CPUs busy; steal %.3f; mb_s over wall time would be %.4g",
		archCapacityReaders, cp.done(), len(blocks), len(blocks[0]), fmtList(rates), fmtList(cpus),
		(m.cpu-openCPU)/cp.avail.Seconds(), runtime.GOMAXPROCS(0),
		1-cp.avail.Seconds()/cp.wall.Seconds(), fieldOf(cp.done())/cp.wall.Seconds())
	r.latencies(op.latencies, "request")
	r.e2e["ratio"] = float64(op.fp32Bytes+cp.fp32Bytes) / float64(op.bytes200+cp.bytes200)
	m.book(r, fieldOf(op.done()+cp.done()))
	r.e2e["cpu_ms_per_mb"] = median(cpus)
	lag := summarize(op.lags)
	r.note("open loop: %d requests/s for %v from %d readers, timed from their due time; generator lag p50 %.3f ms, p%s %.3f ms",
		archOpenRate, openDur, archReaders, 1e3*lag.P50, pct(lag.TailQ), 1e3*lag.Tail)
	r.note("open loop: slo_miss_share = %.6g (limit %v, failures count as misses); fail_share = %.6g",
		op.ops.sloMissShare(), archSLO, op.ops.failShare())
	r.note("cpu_us_per_req = %.1f in the open loop, %.1f in the capacity phase",
		1e6*openCPU/float64(op.ops.attempted), 1e6*(m.cpu-openCPU)/float64(cp.ops.attempted))
	for _, p := range []struct {
		name string
		rd   *archRound
	}{{"open loop", op}, {"capacity", cp}} {
		d := p.rd.done()
		r.note("input property, %s: hit %.3f, miss %.3f, 304 %.3f of completed requests; %d bodies checked against SpliceArchiveField",
			p.name, share(p.rd.hits, d), share(p.rd.ok200-p.rd.hits, d), share(p.rd.ok304, d), p.rd.checked)
	}

	// Quality of what the store holds: the last step's full-rate
	// baryon density.
	cf, err := adaptive.ParseArchive(st.lastFull)
	if err != nil {
		return err
	}
	dec, err := cf.Decompress(ctx)
	if err != nil {
		return err
	}
	pk, err := pkRelErr(st.lastBaryon, dec)
	if err != nil {
		return err
	}
	r.layer["spectrum.pk_rel_err"] = pk
	r.note("quality: pk_rel_err = %.6g on the stored last step's full-rate baryon density", pk)
	if !c.traced {
		return nil
	}
	return traceArchive(ctx, c, r, st, sched)
}

// traceArchive repeats the open loop on a fresh, warmed server with the
// handler middleware and the round-trip wrapper recording spans.
func traceArchive(ctx context.Context, c runCfg, r *report, st *archStore, sched []archArrival) error {
	tr := newTracer()
	env, err := startArchive(st, tr)
	if err != nil {
		return err
	}
	if err := env.warm(ctx, st, c.seed); err != nil {
		env.close()
		return err
	}
	tr.reset()
	before := env.srv.Stats()
	var retries0 uint64
	for _, cl := range env.clients {
		retries0 += cl.Counters().Retries
	}
	rd := env.open(ctx, st, sched, tr)
	after := env.srv.Stats()
	var retries uint64
	for _, cl := range env.clients {
		retries += cl.Counters().Retries
	}
	if err := env.close(); err != nil {
		return err
	}
	if rd.mismatched > 0 {
		r.fail("traced run: %d of %d checked bodies differ", rd.mismatched, rd.checked)
	}
	spans := tr.all()
	for _, n := range []string{"hit", "miss", "revalidate"} {
		r.timing("archiveserve."+n+"_s", durations(named(spans, "archiveserve."+n)))
	}
	done := rd.ok200 + rd.ok304
	r.layer["archiveserve.hit_share"] = share(rd.hits, done)
	r.layer["archiveserve.miss_share"] = share(rd.ok200-rd.hits, done)
	r.layer["archiveserve.not_modified_share"] = share(rd.ok304, done)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	r.layer["archiveserve.hit_ratio"] = share(int64(hits), int64(hits+misses))
	r.layer["archiveserve.splices"] = float64(after.Splices - before.Splices)
	r.layer["archiveserve.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	r.layer["archiveserve.singleflight_merged"] = float64(after.Cache.SingleflightMerged - before.Cache.SingleflightMerged)
	lags := make([]float64, len(rd.lags))
	for i, l := range rd.lags {
		lags[i] = 1e3 * l
	}
	r.timing("loadgen.lag_ms", lags)
	r.timing("client.call_s", durations(named(spans, "client.call")))
	r.timing("client.roundtrip_s", durations(named(spans, "client.roundtrip")))
	r.timing("client.wire_s", wireTimes(spans))
	r.layer["client.retries"] = float64(retries - retries0)
	r.layer["trace.spans"] = float64(len(spans))
	untraced := r.layer["loadgen.latency_ms.p50"] / 1e3
	r.layer["trace.overhead_share"] = (median(rd.latencies) - untraced) / untraced
	r.note("trace: %d traced requests; overhead compares the traced and untraced open loops' median latency", rd.ops.attempted)
	return writeSpans(filepath.Join(c.dir, "archive.spans.jsonl"), spans)
}
