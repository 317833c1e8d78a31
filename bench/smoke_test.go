package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/classify"
)

// smokeConfig runs a workload for about a second: enough to exercise every
// phase, check and metric of the harness, not to measure anything.
func smokeConfig() runConfig {
	return runConfig{seed: 7, measure: time.Second, warmup: 200 * time.Millisecond, setups: 1}
}

func runSmoke(t *testing.T, run func(context.Context, runConfig, *tracer) (*outcome, error), cfg runConfig, tr *tracer) *outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	o, err := run(ctx, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runSmoke(t, w.run, smokeConfig(), nil)
			if o.total.attempted.Load() == 0 || o.total.bad() != 0 || o.invalid != "" {
				t.Errorf("%d of %d operations failed or wrong, invalid %q: %v",
					o.total.bad(), o.total.attempted.Load(), o.invalid, o.problems)
			}
			m, err := pick(endToEnd, o.e2e)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range m {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if _, err := pick(perLayer, o.layer); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTracedRun runs classify-single traced: the wrappers must see every
// layer, the decomposition must sum to the round trip, the traced session
// composition must reproduce sap.Run (a failed check would count as a wrong
// operation), and the spans must be written.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	tr := newTracer()
	o := runSmoke(t, runClassifySingle, smokeConfig(), tr)
	if o.total.bad() != 0 {
		t.Fatalf("%d operations failed or wrong: %v", o.total.bad(), o.problems)
	}
	for _, name := range []string{
		"sap.client_rtt_us", "protocol.client_local_us", "transport.seal_us", "transport.open_us",
		"transport.request_bytes", "transport.wire_request_us", "protocol.service_residence_us",
		"transport.wire_response_us", "classify.predict_us_per_record", "session.optimize_ms",
		"session.exchange_ms", "process.allocs_per_op",
	} {
		if o.layer[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, o.layer[name])
		}
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeSpans(path, "classify-single"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name  string `json:"name"`
			Frame uint64 `json:"frame"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		names[s.Name]++
		if s.Name == "transport.wire_request" && s.Frame == 0 {
			t.Error("a wire span carries no frame ID")
		}
	}
	for _, n := range []string{"sap.classify", "transport.wire_request", "protocol.service", "transport.wire_response", "transport.seal", "privacy.optimize"} {
		if names[n] == 0 {
			t.Errorf("no %s spans in %v", n, names)
		}
	}
}

// flipModel answers the wrong class for every record.
type flipModel struct{ classify.Classifier }

func (f flipModel) Predict(x []float64) (int, error) {
	label, err := f.Classifier.Predict(x)
	return label + 1, err
}

func (f flipModel) Clone() classify.Classifier {
	return flipModel{f.Classifier.(classify.Cloner).Clone()}
}

func TestWrongLabelsCountAsErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	cfg := smokeConfig()
	cfg.measure, cfg.warmup = 400*time.Millisecond, 0
	cfg.wrapModel = func(m classify.Classifier) classify.Classifier { return flipModel{m} }
	o := runSmoke(t, runClassifySingle, cfg, nil)
	a, bad := o.total.attempted.Load(), o.total.bad()
	if a == 0 || bad != a {
		t.Errorf("%d of %d operations counted wrong, want all", bad, a)
	}
}
