package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// retainBudget caps the frame bytes a traced run holds for post-run frame
// inspection. Calls started once it is spent are timed end to end but not
// broken down by layer: protocol.InspectFrame costs tens of microseconds per
// frame, so frames are inspected after the measured window, never inline.
const retainBudget = 32 << 20

// Kinds of benchmark call the tracer times.
const (
	callClassify = iota
	callPush
	callKinds
)

var callNames = [callKinds]string{"sap.classify", "sap.push"}

// span is one timed interval at a layer boundary, in nanoseconds since the
// tracer's epoch. Parent is the ID of the span that caused it (-1 for a
// root); the spans of one request share Req, and connection spans carry the
// service frame ID read with protocol.InspectFrame.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Frame  uint64 `json:"frame,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, curA, curB int64
		for k, iv := range ivs {
			if k > 0 && iv[0] <= curB {
				curB = max(curB, iv[1])
				continue
			}
			covered += curB - curA
			curA, curB = iv[0], iv[1]
		}
		covered += curB - curA
		out[i] = s.End - s.Start - covered
	}
	return out
}

// call is one benchmark-issued request (a classify or a push).
type call struct {
	kind       int
	req        int64
	sampled    bool
	start, end int64
	attempts   []*attempt
}

// attempt is one request frame a call sent (busy retries send several).
type attempt struct {
	from                   string
	payload                []byte // retained until link reads its frame ID
	frame                  uint64
	clientSend, serverRecv int64
	seal, open             [2]int64 // client seal, server open
	resp                   *respLeg
}

// respLeg is one response frame the server sent.
type respLeg struct {
	to                     string
	payload                []byte
	serverSend, clientRecv int64
	seal, open             [2]int64 // server seal, client open
}

type ctxKey struct{}

// tracer records spans and counts at the benchmark's layer boundaries: around
// the calls the benchmark makes into each layer's public functions, and
// through wrappers of the three interfaces the serving stack accepts —
// transport.Conn on both ends, transport.Codec and the served
// classify.Classifier. Frames are matched across the wire by a hash of their
// payload. Spans stay in memory and are written out when the run ends.
type tracer struct {
	epoch  time.Time
	seed   maphash.Seed
	active atomic.Bool // frame, codec and model events count only while set
	// sampling is set from the window's start until the retain budget is
	// spent: the calls begun meanwhile are the ones split by layer.
	sampling atomic.Bool

	sealNs, sealN, openNs, openN     atomic.Int64
	reqBytes, reqN, respBytes, respN atomic.Int64
	predictNs, predictN              atomic.Int64
	samplePredictNs                  atomic.Int64 // predict time while sampling
	fitNs, fitN                      atomic.Int64
	rttNs, rttN                      [callKinds]atomic.Int64

	mu          sync.Mutex
	spans       []span
	calls       []*call // sampled calls
	retained    int
	outstanding int // sampled calls not yet ended
	reqLegs     map[uint64][]*attempt
	respLegs    map[uint64][]*respLeg
	resps       []*respLeg
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		seed:     maphash.MakeSeed(),
		reqLegs:  make(map[uint64][]*attempt),
		respLegs: make(map[uint64][]*respLeg),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) hash(payload []byte) uint64 { return maphash.Bytes(t.seed, payload) }

// start opens the measured window: frame, codec and model events count from
// here on.
func (t *tracer) start() {
	if t != nil {
		t.mu.Lock()
		t.sampling.Store(t.retained < retainBudget)
		t.mu.Unlock()
		t.active.Store(true)
	}
}

// stop closes the measured window.
func (t *tracer) stop() {
	if t != nil {
		t.active.Store(false)
	}
}

// add records one finished span and returns its ID.
func (t *tracer) add(name string, parent int, req int64, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// open records a span whose end is set later by close, so its children can
// name it as their parent while it runs. A nil tracer returns -1.
func (t *tracer) open(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := t.now()
	return t.add(name, parent, req, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// begin starts timing one benchmark call and returns the context to issue it
// with: it carries the call, so the connection wrapper can attribute the
// call's frames. Both results are inert when the tracer is nil or outside
// its window.
func (t *tracer) begin(ctx context.Context, kind int) (context.Context, *call) {
	if t == nil || !t.active.Load() {
		return ctx, nil
	}
	c := &call{kind: kind, start: t.now()}
	t.mu.Lock()
	if t.retained < retainBudget {
		c.sampled = true
		c.req = int64(len(t.calls)) + 1
		t.calls = append(t.calls, c)
		t.outstanding++
	} else {
		t.sampling.Store(false)
	}
	t.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, c), c
}

// end finishes a call begun with begin.
func (t *tracer) end(c *call) {
	if c == nil {
		return
	}
	now := t.now()
	t.rttNs[c.kind].Add(now - c.start)
	t.rttN[c.kind].Add(1)
	if c.sampled {
		t.mu.Lock()
		c.end = now
		t.outstanding--
		t.mu.Unlock()
	}
}

func (t *tracer) clientSend(ctx context.Context, from string, payload []byte, at int64) {
	c, _ := ctx.Value(ctxKey{}).(*call)
	if c == nil || !c.sampled {
		return
	}
	// Copied: the Conn contract lets the caller reuse its buffer.
	a := &attempt{from: from, payload: append([]byte(nil), payload...), clientSend: at}
	h := t.hash(payload)
	t.mu.Lock()
	c.attempts = append(c.attempts, a)
	t.retained += len(payload)
	t.reqLegs[h] = append(t.reqLegs[h], a)
	t.mu.Unlock()
}

func (t *tracer) serverRecv(payload []byte, at int64) {
	h := t.hash(payload)
	t.mu.Lock()
	if q := t.reqLegs[h]; len(q) > 0 {
		q[0].serverRecv = at
		if len(q) == 1 {
			delete(t.reqLegs, h)
		} else {
			t.reqLegs[h] = q[1:]
		}
	}
	t.mu.Unlock()
}

func (t *tracer) serverSend(to string, payload []byte, at int64) {
	h := t.hash(payload)
	t.mu.Lock()
	// Responses cannot be told apart before inspection, so all of them are
	// kept while a sampled call may still be waiting for its own.
	if t.retained < retainBudget || t.outstanding > 0 {
		leg := &respLeg{to: to, payload: append([]byte(nil), payload...), serverSend: at}
		t.retained += len(payload)
		t.resps = append(t.resps, leg)
		t.respLegs[h] = append(t.respLegs[h], leg)
	}
	t.mu.Unlock()
}

func (t *tracer) clientRecv(payload []byte, at int64) {
	h := t.hash(payload)
	t.mu.Lock()
	if q := t.respLegs[h]; len(q) > 0 {
		q[0].clientRecv = at
		if len(q) == 1 {
			delete(t.respLegs, h)
		} else {
			t.respLegs[h] = q[1:]
		}
	}
	t.mu.Unlock()
}

// codecDone counts one seal or open and, when the frame belongs to a sampled
// call, attaches the interval to it. plain is the transport's plaintext
// frame: a length-prefixed sender name, then the payload.
func (t *tracer) codecDone(server, seal bool, plain []byte, sealedLen int, from, to int64) {
	if seal {
		t.sealNs.Add(to - from)
		t.sealN.Add(1)
		if server {
			t.respBytes.Add(int64(sealedLen))
			t.respN.Add(1)
		} else {
			t.reqBytes.Add(int64(sealedLen))
			t.reqN.Add(1)
		}
	} else {
		t.openNs.Add(to - from)
		t.openN.Add(1)
	}
	if len(plain) < 2 {
		return
	}
	skip := 2 + int(binary.BigEndian.Uint16(plain))
	if skip > len(plain) {
		return
	}
	h := t.hash(plain[skip:])
	iv := [2]int64{from, to}
	// A request is sealed by the client and opened by the server; a
	// response the other way round.
	request := seal != server
	t.mu.Lock()
	defer t.mu.Unlock()
	if request {
		if q := t.reqLegs[h]; len(q) > 0 {
			if seal {
				q[0].seal = iv
			} else {
				q[0].open = iv
			}
		}
		return
	}
	if q := t.respLegs[h]; len(q) > 0 {
		if seal {
			q[0].seal = iv
		} else {
			q[0].open = iv
		}
	}
}

// breakdown is the per-layer decomposition of one kind of call, averaged
// over the sampled calls whose frames were all matched. rtt, the reference
// the parts must sum to, is averaged over every sampled call that sent one
// request frame; retried calls (busy rejections) are only counted. predict
// is the served model's predict time per sampled call.
type breakdown struct {
	linked, retried                                   int
	local, wireReq, residence, wireResp, rtt, predict float64 // mean microseconds
}

// link reads the frame ID of every retained frame, joins each sampled call's
// request with the response that answered it, emits the calls' spans and
// returns the decomposition per call kind. Call it once, after the window
// has closed and every call has ended.
func (t *tracer) link() [callKinds]breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		peer string
		id   uint64
	}
	byFrame := make(map[key]*attempt)
	for _, c := range t.calls {
		for _, a := range c.attempts {
			if info, ok := protocol.InspectFrame(a.payload); ok {
				a.frame = info.ID
				byFrame[key{a.from, info.ID}] = a
			}
			a.payload = nil
		}
	}
	for _, r := range t.resps {
		if info, ok := protocol.InspectFrame(r.payload); ok && info.Response {
			if a := byFrame[key{r.to, info.ID}]; a != nil {
				a.resp = r
			}
		}
		r.payload = nil
	}
	t.resps, t.reqLegs, t.respLegs = nil, nil, nil

	var sums [callKinds]breakdown
	var sampled [callKinds]int
	type root struct{ id, kind int }
	var roots []root
	for _, c := range t.calls {
		if c.end == 0 {
			continue
		}
		if len(c.attempts) > 1 {
			sums[c.kind].retried++ // no single frame pair to split
			continue
		}
		sampled[c.kind]++
		sums[c.kind].rtt += float64(c.end - c.start)
		if len(c.attempts) == 0 {
			continue
		}
		a := c.attempts[0]
		r := a.resp
		if a.serverRecv == 0 || r == nil || r.clientRecv == 0 {
			continue
		}
		id := t.addLocked(callNames[c.kind], -1, c.req, 0, c.start, c.end)
		roots = append(roots, root{id, c.kind})
		wire := t.addLocked("transport.wire_request", id, c.req, a.frame, a.clientSend, a.serverRecv)
		t.addIntervalLocked("transport.seal", wire, c.req, a.frame, a.seal)
		t.addIntervalLocked("transport.open", wire, c.req, a.frame, a.open)
		t.addLocked("protocol.service", id, c.req, a.frame, a.serverRecv, r.serverSend)
		wire = t.addLocked("transport.wire_response", id, c.req, a.frame, r.serverSend, r.clientRecv)
		t.addIntervalLocked("transport.seal", wire, c.req, a.frame, r.seal)
		t.addIntervalLocked("transport.open", wire, c.req, a.frame, r.open)
		b := &sums[c.kind]
		b.linked++
		b.wireReq += float64(a.serverRecv - a.clientSend)
		b.residence += float64(r.serverSend - a.serverRecv)
		b.wireResp += float64(r.clientRecv - r.serverSend)
	}
	self := selfTimes(t.spans)
	for _, r := range roots {
		sums[r.kind].local += float64(self[r.id])
	}
	// Only classify calls predict.
	sums[callClassify].predict = g0(float64(t.samplePredictNs.Load()),
		float64(sampled[callClassify]+sums[callClassify].retried)) / 1e3
	for k := range sums {
		b := &sums[k]
		b.rtt = g0(b.rtt, float64(sampled[k])) / 1e3
		if b.linked == 0 {
			continue
		}
		n := float64(b.linked) * 1e3
		b.local /= n
		b.wireReq /= n
		b.residence /= n
		b.wireResp /= n
	}
	return sums
}

func (t *tracer) addLocked(name string, parent int, req int64, frame uint64, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Frame: frame, Start: start, End: end})
	return id
}

func (t *tracer) addIntervalLocked(name string, parent int, req int64, frame uint64, iv [2]int64) {
	if iv[1] > 0 {
		t.addLocked(name, parent, req, frame, iv[0], iv[1])
	}
}

// selfByName is the mean self time in microseconds and the count of every
// span name.
func (t *tracer) selfByName() map[string][2]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	sum := make(map[string][2]float64)
	for i, s := range t.spans {
		v := sum[s.Name]
		v[0] += float64(self[i])
		v[1]++
		sum[s.Name] = v
	}
	for name, v := range sum {
		sum[name] = [2]float64{v[0] / v[1] / 1e3, v[1]}
	}
	return sum
}

// writeSpans appends the spans as JSON lines, each tagged with the workload.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			span
			Self int64 `json:"self_ns"`
		}{workload, s, self[i]}
		if err = enc.Encode(line); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write span file: %w", err)
	}
	return nil
}

// tracedConn wraps one transport endpoint, stamping the frames it sends and
// receives.
type tracedConn struct {
	transport.Conn
	t      *tracer
	server bool
}

func (c *tracedConn) Send(ctx context.Context, to string, payload []byte) error {
	if c.t.active.Load() {
		at := c.t.now()
		if c.server {
			c.t.serverSend(to, payload, at)
		} else {
			c.t.clientSend(ctx, c.Name(), payload, at)
		}
	}
	return c.Conn.Send(ctx, to, payload)
}

func (c *tracedConn) Recv(ctx context.Context) (transport.Envelope, error) {
	env, err := c.Conn.Recv(ctx)
	if err == nil && c.t.active.Load() {
		at := c.t.now()
		if c.server {
			c.t.serverRecv(env.Payload, at)
		} else {
			c.t.clientRecv(env.Payload, at)
		}
	}
	return env, err
}

// tracedCodec wraps one endpoint's frame codec, timing every seal and open.
type tracedCodec struct {
	inner  transport.Codec
	t      *tracer
	server bool
}

func (c *tracedCodec) Seal(plain []byte) ([]byte, error) {
	if !c.t.active.Load() {
		return c.inner.Seal(plain)
	}
	from := c.t.now()
	out, err := c.inner.Seal(plain)
	c.t.codecDone(c.server, true, plain, len(out), from, c.t.now())
	return out, err
}

func (c *tracedCodec) Open(sealed []byte) ([]byte, error) {
	if !c.t.active.Load() {
		return c.inner.Open(sealed)
	}
	from := c.t.now()
	plain, err := c.inner.Open(sealed)
	if err == nil {
		c.t.codecDone(c.server, false, plain, len(sealed), from, c.t.now())
	}
	return plain, err
}

// tracedModel wraps the served classifier, timing fits and predictions. It
// implements classify.Cloner so the service's refits stay wrapped.
type tracedModel struct {
	inner classify.Classifier
	t     *tracer
}

func (m *tracedModel) Fit(d *dataset.Dataset) error {
	from := m.t.now()
	err := m.inner.Fit(d)
	if m.t.active.Load() {
		to := m.t.now()
		m.t.fitNs.Add(to - from)
		m.t.fitN.Add(1)
		m.t.add("classify.fit", -1, 0, from, to)
	}
	return err
}

func (m *tracedModel) Predict(x []float64) (int, error) {
	if !m.t.active.Load() {
		return m.inner.Predict(x)
	}
	from := time.Now()
	label, err := m.inner.Predict(x)
	d := int64(time.Since(from))
	m.t.predictNs.Add(d)
	m.t.predictN.Add(1)
	if m.t.sampling.Load() {
		m.t.samplePredictNs.Add(d)
	}
	return label, err
}

// Clone returns a wrapped fresh instance; nil when the wrapped classifier
// cannot clone itself, which the service reports as a failed refit.
func (m *tracedModel) Clone() classify.Classifier {
	c, ok := m.inner.(classify.Cloner)
	if !ok {
		return nil
	}
	return &tracedModel{inner: c.Clone(), t: m.t}
}
