package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sap "repro"
	"repro/internal/classify"
	"repro/internal/dataset"
)

// runConfig is one workload run's settings.
type runConfig struct {
	seed    int64
	measure time.Duration // the measured window
	warmup  time.Duration // load before the window on serving workloads
	setups  int           // set-up repetitions; setup_s is their median
	// wrapModel, when set, wraps the served classifier; tests inject wrong
	// answers with it.
	wrapModel func(classify.Classifier) classify.Classifier
}

// workload is one named traffic mix. BENCHMARK.json and README.md say why
// each exists.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"classify-single", runClassifySingle},
	{"classify-batch", runClassifyBatch},
	{"ingest-refit", runIngestRefit},
	{"session-sweep", runSessionSweep},
}

// The serving workloads' load shapes.
const (
	singleRate = 1000 // classify-single open-loop requests per second
	ingestRate = 2000 // ingest-refit offered records per second
	chunkSize  = 256  // Session.Stream's default chunk
	readRate   = 100  // ingest-refit open-loop reads per second
	// maxLateness invalidates an open-loop run whose generator fell behind.
	maxLateness = 50 * time.Millisecond
	// drainLimit bounds the wait for the ingest backlog to be refitted away.
	drainLimit = 10 * time.Second
	// samplePeriod is how often the registry's gauges are sampled.
	samplePeriod = 100 * time.Millisecond
)

// outcome is what one workload run measured and checked.
type outcome struct {
	total    tally
	invalid  string // non-empty: the load shape was violated
	e2e      map[string]float64
	layer    map[string]float64
	lines    []string // human-readable report
	problems []string // the first failed checks
}

func newOutcome(setupS float64) *outcome {
	o := &outcome{e2e: map[string]float64{"setup_s": setupS}, layer: map[string]float64{}}
	for _, d := range perLayer {
		o.layer[d.name] = 0 // a layer the workload does not exercise reads 0
	}
	return o
}

// merge adds one phase's operations to the run's total and reports them.
func (o *outcome) merge(name string, t *tally) {
	o.total.attempted.Add(t.attempted.Load())
	o.total.failed.Add(t.failed.Load())
	o.total.wrong.Add(t.wrong.Load())
	ok := t.attempted.Load() - t.bad()
	o.phase("%-8s sent %d, succeeded %d, failed %d, wrong %d", name, t.attempted.Load(), ok, t.failed.Load(), t.wrong.Load())
	if msg, ok := t.firstErr.Load().(string); ok {
		o.problem(name + ": first failure: " + msg)
	}
}

// check counts one end-of-run check as an operation, wrong when it failed.
func (o *outcome) check(name string, ok bool, detail string) {
	o.total.record(nil, !ok)
	if !ok {
		o.problem(name + ": " + detail)
	}
}

func (o *outcome) problem(msg string) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, msg)
	}
}

func (o *outcome) phase(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// describe summarizes a latency sample: median, p90, p99 and the highest
// percentile with at least ten samples beyond it, with the sample count.
func describe(d dist) string {
	s := fmt.Sprintf("p50 %.3f p90 %.3f p99 %.3f ms", d.p(50), d.p(90), d.p(99))
	if p, v, ok := tailPercentile(d); ok {
		s += fmt.Sprintf(", tail p%g %.3f ms", p, v)
	}
	return s + fmt.Sprintf(" (n=%d)", len(d))
}

// collector gathers stamped latencies from concurrent goroutines.
type collector struct {
	mu sync.Mutex
	s  []stamped
}

func (c *collector) add(at, lat time.Duration) {
	c.mu.Lock()
	c.s = append(c.s, stamped{at: at, lat: lat})
	c.mu.Unlock()
}

func (c *collector) take() []stamped {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.s
	c.s = nil
	return s
}

// window is the width of the slices a measured phase is cut into; the
// gated latency and throughput figures are medians over them.
const window = time.Second

// perWindow reads p50 and p90 latency as medians over the phase's windows.
func perWindow(samples []stamped, span time.Duration) (p50, p90 float64) {
	ws, _ := windows(samples, window, span)
	return medianOver(ws, func(d dist) float64 { return d.p(50) }), medianOver(ws, func(d dist) float64 { return d.p(90) })
}

// ratePerWindow is the median over the phase's windows of records completed
// per second.
func ratePerWindow(samples []stamped, span time.Duration, recordsPerCall int) float64 {
	ws, width := windows(samples, window, span)
	return medianOver(ws, func(d dist) float64 {
		return float64(len(d)*recordsPerCall) / width.Seconds()
	})
}

// setupServingRepeated stands a serving stack up cfg.setups times, keeps the
// last, and starts the run's outcome, in which every set-up's first classify
// counts as one checked operation.
func setupServingRepeated(ctx context.Context, cfg runConfig, tr *tracer, streamN int) (*serving, *outcome, error) {
	wrong := 0
	s, setup, err := setupRepeated(cfg, func() (*serving, error) {
		s, err := setupServing(ctx, cfg, tr, streamN)
		if err == nil && s.first != s.want[0] {
			wrong++
		}
		return s, err
	}, (*serving).close)
	if err != nil {
		return nil, nil, err
	}
	o := newOutcome(setup)
	for i := 0; i < cfg.setups; i++ {
		o.check("the first classify after set-up is correct", i >= wrong, "wrong label")
	}
	return s, o, nil
}

// classify sends one held-out query and checks the label against the
// reference.
func (s *serving) classify(ctx context.Context, tr *tracer, client, q int, t *tally) {
	q %= len(s.held.X)
	ctx, c := tr.begin(ctx, callClassify)
	label, err := s.clients[client].Classify(ctx, s.held.X[q])
	tr.end(c)
	t.record(err, err == nil && label != s.want[q])
}

// openClassify runs classify-single's open loop on client 0 over
// [start, end), returning latencies from due time and generator lateness.
func (s *serving) openClassify(ctx context.Context, tr *tracer, start, end time.Time, t *tally) ([]stamped, dist) {
	var lat collector
	late := openLoop(start, end, arrivals{rate: singleRate, issue: func(k int, due time.Time, _ any) {
		s.classify(ctx, tr, 0, k, t)
		lat.add(due.Sub(start), time.Since(due))
	}})
	return lat.take(), newDist(late)
}

// runClassifySingle is the classify-single workload: single-record
// classifies, first in an open loop (latency), then from two closed-loop
// callers (throughput).
func runClassifySingle(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	s, o, err := setupServingRepeated(ctx, cfg, tr, 0)
	if err != nil {
		return nil, err
	}
	var warm, open, closed tally
	w0 := time.Now()
	s.openClassify(ctx, tr, w0, w0.Add(cfg.warmup), &warm)

	half := cfg.measure / 2
	reg0, p0 := readRegistry(s.reg), sampleProc()
	tr.start()
	start := time.Now()
	opened, late := s.openClassify(ctx, tr, start, start.Add(half), &open)
	mid := time.Now()
	var next atomic.Int64
	calls := closedLoop(mid, mid.Add(cfg.measure-half), clientCount, func(c int) {
		s.classify(ctx, tr, c, int(next.Add(1)), &closed)
	})
	window := time.Since(start)
	tr.stop()
	p1, reg1 := sampleProc(), readRegistry(s.reg)

	o.merge("warm-up", &warm)
	o.merge("open", &open)
	o.merge("closed", &closed)
	lat := allOf(opened)
	o.e2e["records_per_s"] = ratePerWindow(calls, cfg.measure-half, 1)
	o.e2e["latency_p50_ms"], o.layer["client.latency_p90_ms"] = perWindow(opened, half)
	o.phase("open loop %d req/s for %v: %s; generator lateness p99 %.3f ms", singleRate, half, describe(lat), late.p(99))
	o.phase("closed loop, %d callers for %v: %d calls, %s", clientCount, cfg.measure-half, len(calls), describe(allOf(calls)))
	o.openLoopLayers(lat, late)
	procMetrics(p0, p1, open.attempted.Load()+closed.attempted.Load(), o.layer)
	servingLayers(o, tr, reg1.sub(reg0), window, true)
	return o, s.close()
}

// runClassifyBatch is the classify-batch workload: two closed-loop callers
// each classify the whole held-out set (512 records) per call.
func runClassifyBatch(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	s, o, err := setupServingRepeated(ctx, cfg, tr, 0)
	if err != nil {
		return nil, err
	}
	var warm, measured tally
	batch := func(t *tally) func(int) {
		return func(c int) {
			ctx, call := tr.begin(ctx, callClassify)
			labels, err := s.clients[c].ClassifyBatch(ctx, s.held.X)
			tr.end(call)
			t.record(err, err == nil && !sameLabels(labels, s.want))
		}
	}
	w0 := time.Now()
	closedLoop(w0, w0.Add(cfg.warmup), clientCount, batch(&warm))

	reg0, p0 := readRegistry(s.reg), sampleProc()
	tr.start()
	start := time.Now()
	calls := closedLoop(start, start.Add(cfg.measure), clientCount, batch(&measured))
	window := time.Since(start)
	tr.stop()
	p1, reg1 := sampleProc(), readRegistry(s.reg)

	o.merge("warm-up", &warm)
	o.merge("measured", &measured)
	lat := allOf(calls)
	o.e2e["records_per_s"] = ratePerWindow(calls, cfg.measure, len(s.held.X))
	o.e2e["latency_p50_ms"], o.layer["client.latency_p90_ms"] = perWindow(calls, cfg.measure)
	o.phase("closed loop, %d callers × %d-record batches for %v: %d calls, %s",
		clientCount, len(s.held.X), cfg.measure, len(calls), describe(lat))
	o.layer["client.latency_p99_ms"] = lat.p(99)
	o.layer["client.latency_samples"] = float64(len(lat))
	procMetrics(p0, p1, measured.attempted.Load(), o.layer)
	servingLayers(o, tr, reg1.sub(reg0), window, true)
	return o, s.close()
}

func sameLabels(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// arrivalsIn is how many requests an open loop at rate issues in d.
func arrivalsIn(rate float64, d time.Duration) int {
	return int(math.Ceil(rate*d.Seconds() - 1e-9))
}

// ingestLoad is the ingest-refit workload's running load: a provider pushing
// Session.Stream's chunks and a reader classifying held-out records.
type ingestLoad struct {
	s       *serving
	tr      *tracer
	stream  *sap.Stream
	classes int
	waitNs  atomic.Int64 // time the pusher blocked on the stream
	waitN   atomic.Int64
	mu      sync.Mutex
	pushed  []*dataset.Dataset // acknowledged chunks, for the final check
	records atomic.Int64       // acknowledged records
	pushes  collector
	reads   collector
	pushT   tally
	readT   tally
	runDry  atomic.Bool
}

// next takes the stream's next chunk, timing how long the pusher waits.
func (l *ingestLoad) next() (sap.StreamChunk, bool) {
	t0 := time.Now()
	chunk, ok := <-l.stream.Chunks()
	l.waitNs.Add(int64(time.Since(t0)))
	l.waitN.Add(1)
	if !ok {
		l.runDry.Store(true)
	}
	return chunk, ok
}

// push sends one chunk and keeps it once acknowledged.
func (l *ingestLoad) push(ctx context.Context, chunk sap.StreamChunk) {
	ctx, c := l.tr.begin(ctx, callPush)
	_, err := l.s.clients[0].Push(ctx, chunk)
	l.tr.end(c)
	l.pushT.record(err, false)
	if err == nil {
		l.records.Add(int64(chunk.Data.Len()))
		l.mu.Lock()
		l.pushed = append(l.pushed, chunk.Data)
		l.mu.Unlock()
	}
}

// run offers the load over [start, end) and returns generator lateness.
func (l *ingestLoad) run(ctx context.Context, start, end time.Time) dist {
	push := arrivals{
		rate:    float64(ingestRate) / chunkSize,
		prepare: func(int) (any, bool) { return l.next() },
		issue: func(_ int, due time.Time, v any) {
			l.push(ctx, v.(sap.StreamChunk))
			l.pushes.add(due.Sub(start), time.Since(due))
		},
	}
	read := arrivals{rate: readRate, issue: func(k int, due time.Time, _ any) {
		q := k % len(l.s.held.X)
		ctx, c := l.tr.begin(ctx, callClassify)
		label, err := l.s.clients[1].Classify(ctx, l.s.held.X[q])
		l.tr.end(c)
		l.reads.add(due.Sub(start), time.Since(due))
		// Refits move the model, so a mid-run read is checked for being a
		// served class; exact labels are checked once the stream has drained.
		l.readT.record(err, err == nil && (label < 0 || label >= l.classes))
	}}
	return newDist(openLoop(start, end, push, read))
}

// drain brings the served model level with every pushed record, for at most
// drainLimit, and reports whether the staleness gauge then reads 0. The
// service schedules a refit only when a chunk arrives, declining it while
// another is queued, so once pushes stop the last chunks can stay out of the
// model for good. And a refit scheduled while another is still fitting
// retires the in-flight one's records a second time, so under back-to-back
// refits the gauge can read 0 with records missing. Only a refit scheduled on
// an idle lane covers everything and settles the gauge: drain waits for the
// lane to go idle, pushes one more chunk, and waits for its refit.
func (l *ingestLoad) drain(ctx context.Context) error {
	ns := "service." + sap.DefaultGroupID + "."
	deadline := time.Now().Add(drainLimit)
	// idle waits until no refit is running and none completed for a sample
	// period (the refit goroutine takes a queued job at once, so the queue is
	// empty too), and returns the refit count.
	idle := func() (int64, error) {
		last := int64(-1)
		for {
			snap := l.s.reg.Snapshot()
			refits := snap.Counters[ns+"refit.count"]
			if snap.Gauges[ns+"refit.inflight"] == 0 && refits == last {
				return refits, nil
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("refits still running after %v", drainLimit)
			}
			last = refits
			time.Sleep(samplePeriod)
		}
	}
	before, err := idle()
	if err != nil {
		return err
	}
	chunk, ok := l.next()
	if !ok {
		return fmt.Errorf("the stream ran dry before the flush push")
	}
	l.push(ctx, chunk)
	after, err := idle()
	if err != nil {
		return err
	}
	if after <= before {
		return fmt.Errorf("the flush push triggered no refit")
	}
	if stale := l.s.reg.Snapshot().Gauges[ns+"staleness_records"]; stale != 0 {
		return fmt.Errorf("staleness_records reads %d with the refit lane idle", stale)
	}
	return nil
}

// gaugeSampler samples the group's staleness and ingest queue gauges every
// samplePeriod until stopped.
type gaugeSampler struct {
	stop               chan struct{}
	done               chan struct{}
	staleSum, staleN   float64
	staleMax, queueMax int64
}

func sampleGauges(reg *sap.Metrics) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	ns := "service." + sap.DefaultGroupID + "."
	go func() {
		defer close(g.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			gauges := reg.Snapshot().Gauges
			stale := gauges[ns+"staleness_records"]
			g.staleSum += float64(stale)
			g.staleN++
			g.staleMax = max(g.staleMax, stale)
			g.queueMax = max(g.queueMax, gauges[ns+"ingest.queue_depth"])
		}
	}()
	return g
}

// halt stops the sampler and waits for it; its fields are safe to read
// afterwards.
func (g *gaugeSampler) halt() {
	close(g.stop)
	<-g.done
}

// runIngestRefit is the ingest-refit workload: a provider streams fresh
// records into the served model at a fixed offered rate while a reader
// classifies beside it, with refits running back to back.
func runIngestRefit(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	chunkRate := float64(ingestRate) / chunkSize
	chunks := arrivalsIn(chunkRate, cfg.warmup) + arrivalsIn(chunkRate, cfg.measure) + 1 // + the flush chunk
	s, o, err := setupServingRepeated(ctx, cfg, tr, chunks*chunkSize)
	if err != nil {
		return nil, err
	}
	streamCtx, stopStream := context.WithCancel(ctx)
	st, err := s.sess.Stream(streamCtx, sap.DatasetSource(s.stream))
	if err != nil {
		stopStream()
		s.close()
		return nil, fmt.Errorf("open stream: %w", err)
	}
	l := &ingestLoad{s: s, tr: tr, stream: st, classes: s.base.NumClasses()}
	w0 := time.Now()
	l.run(ctx, w0, w0.Add(cfg.warmup))
	warmPush, warmRead := l.pushT.attempted.Load(), l.readT.attempted.Load()
	l.pushes.take()
	l.reads.take()
	l.waitNs.Store(0)
	l.waitN.Store(0)

	reg0, p0 := readRegistry(s.reg), sampleProc()
	recs0 := l.records.Load()
	gauges := sampleGauges(s.reg)
	tr.start()
	start := time.Now()
	late := l.run(ctx, start, start.Add(cfg.measure))
	window := time.Since(start)
	tr.stop()
	gauges.halt()
	p1, reg1 := sampleProc(), readRegistry(s.reg)
	measured := l.records.Load() - recs0
	ops := (l.pushT.attempted.Load() - warmPush) + (l.readT.attempted.Load() - warmRead)
	waitUs := g0(float64(l.waitNs.Load()), float64(l.waitN.Load())) / 1e3
	readSamples := l.reads.take()
	reads, pushes := allOf(readSamples), allOf(l.pushes.take())

	drainErr := l.drain(ctx)
	stopStream()
	// Cancelling the stream with records left over is its expected end.
	_ = st.Err()
	o.merge("pushes", &l.pushT)
	o.merge("reads", &l.readT)
	o.check("the stream supplied every scheduled chunk", !l.runDry.Load(), "it ran dry")
	total := l.records.Load()
	ingested := readRegistry(s.reg).ingested
	o.check("pushed records equal the service's ingest.records", ingested == total,
		fmt.Sprintf("pushed %d, the registry counted %d", total, ingested))
	o.check("staleness reaches 0 after the flush push", drainErr == nil, fmt.Sprint(drainErr))
	if drainErr == nil {
		ok, detail, err := l.finalCheck(ctx)
		if err != nil {
			s.close()
			return nil, err
		}
		o.check("served labels equal KNN on the unified set plus every pushed record", ok, detail)
	}

	o.e2e["records_per_s"] = float64(measured) / window.Seconds()
	o.e2e["latency_p50_ms"], o.layer["client.latency_p90_ms"] = perWindow(readSamples, cfg.measure)
	meanStale := g0(gauges.staleSum, gauges.staleN)
	o.phase("open loop %d records/s in %d-record chunks + %d reads/s for %v, after %d pushes and %d reads of warm-up, then one flush push",
		ingestRate, chunkSize, readRate, cfg.measure, warmPush, warmRead)
	o.phase("reads  %s", describe(reads))
	o.phase("pushes %s", describe(pushes))
	o.phase("generator lateness p99 %.3f ms; mean staleness %.0f records (%.3f s at the offered rate); %d refits",
		late.p(99), meanStale, meanStale/ingestRate, reg1.refits-reg0.refits)
	o.openLoopLayers(reads, late)
	o.layer["protocol.push_p50_ms"] = pushes.p(50)
	o.layer["protocol.push_p90_ms"] = pushes.p(90)
	o.layer["protocol.staleness_s"] = meanStale / ingestRate
	o.layer["protocol.staleness_records_max"] = float64(gauges.staleMax)
	o.layer["protocol.ingest_queue_depth_max"] = float64(gauges.queueMax)
	o.layer["stream.wait_us"] = waitUs
	procMetrics(p0, p1, ops, o.layer)
	servingLayers(o, tr, reg1.sub(reg0), window, false)
	return o, s.close()
}

// finalCheck classifies the held-out set once the backlog has drained and
// compares it with a local KNN fitted on the unified set plus every
// acknowledged chunk: exactly the training set the service refitted on.
func (l *ingestLoad) finalCheck(ctx context.Context) (bool, string, error) {
	got, err := l.s.clients[1].ClassifyBatch(ctx, l.s.held.X)
	if err != nil {
		return false, err.Error(), nil
	}
	train := l.s.sess.Unified().Clone()
	for _, d := range l.pushed {
		train.X = append(train.X, d.X...)
		train.Y = append(train.Y, d.Y...)
	}
	want, err := referenceLabels(nil, -1, l.s.sess, train, l.s.held)
	if err != nil {
		return false, "", err
	}
	wrong := 0
	for i := range want {
		if got[i] != want[i] {
			wrong++
		}
	}
	return wrong == 0, fmt.Sprintf("%d of %d labels differ", wrong, len(want)), nil
}

// g0 divides, reading 0 for an empty denominator.
func g0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// openLoopLayers reports the open loop's tail and generator lateness, and
// invalidates the run if the generator fell behind.
func (o *outcome) openLoopLayers(lat, late dist) {
	o.layer["client.latency_p99_ms"] = lat.p(99)
	o.layer["client.latency_samples"] = float64(len(lat))
	o.layer["loadgen.lateness_p99_ms"] = late.p(99)
	if p99 := late.p(99); p99 > ms(maxLateness) {
		o.invalid = fmt.Sprintf("generator p99 lateness %.1f ms exceeds %v", p99, maxLateness)
	}
}

// servingLayers fills the serving path's per-layer metrics from the
// registry deltas and, on a traced run, from the tracer. checkSum enforces
// that the classify decomposition sums to the round trip it splits.
func servingLayers(o *outcome, tr *tracer, d registryDelta, window time.Duration, checkSum bool) {
	L := o.layer
	L["protocol.batch_size"] = g0(float64(d.batchSum), float64(d.batchN))
	L["protocol.rejects_busy"] = float64(d.busy)
	L["protocol.refit_count"] = float64(d.refits)
	L["protocol.refit_ms"] = g0(float64(d.refitNs), float64(d.refits)) / 1e6
	if tr == nil {
		return
	}
	modelLayers(o, tr, window)
	sessionLayers(o, tr, "session.setup")
	if d.refits > 0 {
		L["protocol.refit_snapshot_ms"] = L["protocol.refit_ms"] - L["classify.fit_ms"]
	}
	L["transport.seal_us"] = g0(float64(tr.sealNs.Load()), float64(tr.sealN.Load())) / 1e3
	L["transport.open_us"] = g0(float64(tr.openNs.Load()), float64(tr.openN.Load())) / 1e3
	L["transport.request_bytes"] = g0(float64(tr.reqBytes.Load()), float64(tr.reqN.Load()))
	L["transport.response_bytes"] = g0(float64(tr.respBytes.Load()), float64(tr.respN.Load()))
	b := tr.link()
	cl, pu := b[callClassify], b[callPush]
	L["sap.client_rtt_us"] = cl.rtt
	L["protocol.client_local_us"] = cl.local
	L["transport.wire_request_us"] = cl.wireReq
	L["transport.wire_response_us"] = cl.wireResp
	L["protocol.service_residence_us"] = cl.residence
	L["protocol.service_overhead_us"] = cl.residence - cl.predict
	L["protocol.ingest_residence_us"] = pu.residence
	sum := cl.local + cl.wireReq + cl.residence + cl.wireResp
	errPct := g0(math.Abs(sum-cl.rtt), cl.rtt) * 100
	L["trace.decomposition_error_pct"] = errPct
	o.phase("traced classify calls: %d of %d split by layer (%d retried); mean round trip %.1f us over the traced sample (%.1f us over all) = client %.1f + wire %.1f + service %.1f + wire %.1f (%.2f%% apart)",
		cl.linked, tr.rttN[callClassify].Load(), cl.retried, cl.rtt, g0(float64(tr.rttNs[callClassify].Load()), float64(tr.rttN[callClassify].Load()))/1e3,
		cl.local, cl.wireReq, cl.residence, cl.wireResp, errPct)
	if pu.linked > 0 {
		o.phase("traced pushes: %d of %d split by layer; mean round trip %.1f us = client %.1f + wire %.1f + service %.1f + wire %.1f",
			pu.linked, tr.rttN[callPush].Load(), pu.rtt, pu.local, pu.wireReq, pu.residence, pu.wireResp)
	}
	if checkSum {
		o.check("classify decomposition sums to within 10% of the round trip", cl.linked > 0 && errPct <= 10,
			fmt.Sprintf("%d calls split, %.2f%% apart", cl.linked, errPct))
	}
}

// modelLayers reports the served (or swept) classifier's fit and predict
// costs over the window.
func modelLayers(o *outcome, tr *tracer, window time.Duration) {
	L := o.layer
	predictNs, fitNs := float64(tr.predictNs.Load()), float64(tr.fitNs.Load())
	L["classify.predict_us_per_record"] = g0(predictNs, float64(tr.predictN.Load())) / 1e3
	L["classify.predict_busy_frac"] = predictNs / (float64(window) * float64(runtime.GOMAXPROCS(0)))
	L["classify.fit_ms"] = g0(fitNs, float64(tr.fitN.Load())) / 1e6
	L["classify.fit_count"] = float64(tr.fitN.Load())
	L["classify.fit_busy_frac"] = fitNs / float64(window)
}

// sessionLayers reports the session path's cost per root span (a sweep, or
// a serving workload's set-up): optimizer, exchange, fit and check time.
func sessionLayers(o *outcome, tr *tracer, root string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rootOf := make([]int, len(tr.spans))
	var roots, optimize, exchange, fit, check float64
	var rootNs float64
	for i, s := range tr.spans {
		rootOf[i] = i
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
		}
		if tr.spans[rootOf[i]].Name != root {
			continue
		}
		dur := float64(s.End - s.Start)
		switch s.Name {
		case root:
			roots++
			rootNs += dur
		case "privacy.optimize":
			optimize += dur
		case "protocol.run_local":
			exchange += dur
		case "session.fit":
			fit += dur
		case "session.check":
			check += dur
		}
	}
	L := o.layer
	L["session.optimize_ms"] = g0(optimize, roots) / 1e6
	L["session.exchange_ms"] = g0(exchange, roots) / 1e6
	L["session.fit_ms"] = g0(fit, roots) / 1e6
	L["session.check_ms"] = g0(check, roots) / 1e6
	L["session.optimize_share"] = g0(optimize, rootNs)
}
