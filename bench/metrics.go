package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// declares the same catalogue; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, each from its own operation: a classify call, a batch
// call, a read beside the ingest stream, or a session sweep (see README.md).
var endToEnd = []metricDef{
	{"records_per_s", "records/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics, one block per layer. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sap.client_rtt_us", "us", "lower"},
	{"protocol.client_local_us", "us", "lower"},
	{"transport.seal_us", "us", "lower"},
	{"transport.open_us", "us", "lower"},
	{"transport.request_bytes", "bytes", "lower"},
	{"transport.response_bytes", "bytes", "lower"},
	{"transport.wire_request_us", "us", "lower"},
	{"transport.wire_response_us", "us", "lower"},
	{"protocol.service_residence_us", "us", "lower"},
	{"protocol.service_overhead_us", "us", "lower"},
	{"protocol.batch_size", "records", "higher"},
	{"protocol.rejects_busy", "count", "lower"},
	{"protocol.ingest_queue_depth_max", "count", "lower"},
	{"protocol.ingest_residence_us", "us", "lower"},
	{"protocol.push_p50_ms", "ms", "lower"},
	{"protocol.push_p90_ms", "ms", "lower"},
	{"protocol.refit_count", "count", "higher"},
	{"protocol.refit_ms", "ms", "lower"},
	{"protocol.refit_snapshot_ms", "ms", "lower"},
	{"protocol.staleness_records_max", "records", "lower"},
	{"protocol.staleness_s", "s", "lower"},
	{"classify.predict_us_per_record", "us", "lower"},
	{"classify.predict_busy_frac", "fraction", "lower"},
	{"classify.fit_ms", "ms", "lower"},
	{"classify.fit_count", "count", "higher"},
	{"classify.fit_busy_frac", "fraction", "lower"},
	{"stream.wait_us", "us", "lower"},
	{"session.optimize_ms", "ms", "lower"},
	{"session.exchange_ms", "ms", "lower"},
	{"session.fit_ms", "ms", "lower"},
	{"session.check_ms", "ms", "lower"},
	{"session.optimize_share", "fraction", "lower"},
	{"process.cpu_ms_per_kop", "ms", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.alloc_bytes_per_op", "bytes", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	{"client.latency_p90_ms", "ms", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"client.latency_samples", "count", "higher"},
	{"trace.decomposition_error_pct", "%", "lower"},
	{"trace.overhead.records_per_s_pct", "%", "lower"},
	{"trace.overhead.latency_p50_ms_pct", "%", "lower"},
	{"trace.overhead.setup_s_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick builds the metrics map of one catalogue from measured values. Every
// catalogued metric must have been measured and be finite.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// overheadPct is how much worse a metric read with tracing on, in percent of
// the untraced value (positive: tracing made it worse).
func overheadPct(def metricDef, untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	diff := traced - untraced
	if def.better == "higher" {
		diff = -diff
	}
	return diff / untraced * 100
}
