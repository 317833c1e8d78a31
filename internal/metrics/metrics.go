// Package metrics is the observability seam of the serving stack: a small,
// allocation-conscious instrumentation interface (counters, gauges, timing
// histograms) with an atomic in-memory implementation whose Snapshot can be
// exported as JSON. The serving loop (internal/protocol) and the streaming
// pipeline (internal/stream) resolve their instruments once at construction
// and update them with single atomic operations on the hot path, so a
// deployment can watch requests, ingest, refits and streams without touching
// test helpers — and the nop implementation keeps the cost at one predictable
// virtual call when nobody is watching.
package metrics

import (
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics hands out named instruments. Implementations must return the same
// instrument for the same name, so callers may resolve an instrument once
// (at construction) and update it lock-free thereafter. Counter, gauge and
// histogram names are independent namespaces.
type Metrics interface {
	// Counter returns the named monotonically increasing counter.
	Counter(name string) Counter
	// Gauge returns the named instantaneous-value gauge.
	Gauge(name string) Gauge
	// Histogram returns the named value histogram (timings are recorded in
	// nanoseconds; see Time).
	Histogram(name string) Histogram
}

// Counter is a monotonically increasing count.
type Counter interface {
	// Add increments the counter; negative deltas are ignored.
	Add(delta int64)
	// Inc is Add(1).
	Inc()
}

// Gauge is an instantaneous value that may move both ways.
type Gauge interface {
	// Set replaces the gauge's value.
	Set(v int64)
	// Add shifts the gauge's value.
	Add(delta int64)
}

// Histogram accumulates a distribution of int64 observations in
// exponentially sized (power-of-two) buckets.
type Histogram interface {
	// Observe records one value.
	Observe(v int64)
}

// Time records the duration since start into h, in nanoseconds. Use it with
// defer around the timed section:
//
//	defer metrics.Time(h, time.Now())
func Time(h Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// FuncGauges is implemented by sinks that can derive a gauge's value on
// demand at export time instead of storing pushed updates. Instrumented code
// whose "current value" lives in a data structure it already owns — a
// buffered channel's occupancy, a map's size — registers a read function
// once and never updates the gauge again, so the exported value can never go
// stale between pushes. *Registry implements it; sinks that do not are
// simply updated through the push-style Gauge instead.
type FuncGauges interface {
	// GaugeFunc registers fn as the named gauge's value source. fn must be
	// safe for concurrent use and must not call back into the sink (it runs
	// during Snapshot); for a name registered both ways, the function wins.
	GaugeFunc(name string, fn func() int64)
}

// --- atomic in-memory implementation ---

// histBuckets is the fixed bucket count of the in-memory histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i - 1] —
// enough to cover every positive int64 at a fixed ~2x resolution. Values
// ≤ 0 land in bucket 0.
const histBuckets = 64

type counter struct{ v atomic.Int64 }

func (c *counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}
func (c *counter) Inc() { c.v.Add(1) }

type gauge struct{ v atomic.Int64 }

func (g *gauge) Set(v int64)     { g.v.Store(v) }
func (g *gauge) Add(delta int64) { g.v.Add(delta) }

type histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 until the first observation
	max     atomic.Int64 // MinInt64 until the first observation
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *histogram {
	h := &histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

func (h *histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Registry is the default Metrics implementation: named atomic instruments
// resolved through one mutex at registration time and updated lock-free
// afterwards. The zero value is not usable; construct with NewRegistry. A
// Registry is safe for concurrent use, including Snapshot against live
// updates, and serves its snapshot as JSON when mounted as an http.Handler.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*counter
	gauges     map[string]*gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*counter),
		gauges:     make(map[string]*gauge),
		gaugeFuncs: make(map[string]func() int64),
		histograms: make(map[string]*histogram),
	}
}

// Counter implements Metrics.
func (r *Registry) Counter(name string) Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge implements Metrics.
func (r *Registry) Gauge(name string) Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc implements FuncGauges: snapshots read the named gauge through
// fn, live, instead of reporting the last pushed value. Registering a name
// again replaces its function; a same-named push-style gauge is shadowed.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram implements Metrics.
func (r *Registry) Histogram(name string) Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Bucket is one exponential histogram bucket in a snapshot: Count
// observations were ≤ Upper (and above the previous bucket's Upper).
type Bucket struct {
	Upper int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is one histogram's exported state. Sum, Min and Max are
// in the observed unit (nanoseconds for timings); only non-empty buckets are
// listed, in ascending Upper order.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of every registered instrument, shaped
// for JSON (map keys marshal in sorted order, so serializations are
// deterministic for a fixed set of observations).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports the current value of every instrument. It is safe to call
// concurrently with live updates; each instrument's fields are read
// atomically (a histogram snapshot may straddle a concurrent observation,
// its fields never tear).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.v.Load()
		}
	}
	if len(r.gauges)+len(r.gaugeFuncs) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.v.Load()
		}
		// Derived gauges are read live at snapshot time and shadow any
		// same-named pushed gauge.
		for name, fn := range r.gaugeFuncs {
			snap.Gauges[name] = fn()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Count: h.count.Load(),
				Sum:   h.sum.Load(),
				Min:   h.min.Load(),
				Max:   h.max.Load(),
			}
			// Min > Max means the snapshot raced a histogram's first
			// observation (count is stored before the min/max CAS loops
			// land); report zeros rather than the int64 sentinels.
			if hs.Count == 0 || hs.Min > hs.Max {
				hs.Min, hs.Max = 0, 0
			}
			// Ascending bucket index means ascending Upper, so the
			// emitted slice is already sorted.
			for i := range h.buckets {
				n := h.buckets[i].Load()
				if n == 0 {
					continue
				}
				upper := int64(math.MaxInt64)
				if i < 63 {
					upper = (int64(1) << i) - 1
				}
				hs.Buckets = append(hs.Buckets, Bucket{Upper: upper, Count: n})
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// ServeHTTP implements http.Handler: it answers any GET with the current
// snapshot as JSON, or in the Prometheus text exposition format when the
// request carries ?format=prom (see WritePrometheus). Mount it wherever the
// deployment exposes operational endpoints (cmd/sapnode serves it under
// -metrics-addr at /metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if req.URL.Query().Get("format") == "prom" {
		r.servePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}

// --- nop implementation ---

type nopMetrics struct{}
type nopInstrument struct{}

func (nopInstrument) Add(int64)     {}
func (nopInstrument) Inc()          {}
func (nopInstrument) Set(int64)     {}
func (nopInstrument) Observe(int64) {}

func (nopMetrics) Counter(string) Counter     { return nopInstrument{} }
func (nopMetrics) Gauge(string) Gauge         { return nopInstrument{} }
func (nopMetrics) Histogram(string) Histogram { return nopInstrument{} }

// Nop returns a Metrics whose instruments discard every update. It is the
// default wherever no registry is plugged in, so instrumented hot paths pay
// only a no-op method call when nobody is watching.
func Nop() Metrics { return nopMetrics{} }
