package sap_test

// Facade-level coverage for the metrics subsystem: a session configured
// with WithMetrics counts its serving and streaming traffic, end to end
// over real TCP sockets with AES-sealed frames.

import (
	"context"
	"testing"

	sap "repro"
)

// TestWithMetricsCountsServeQueryStreamOverTCP wires one instrumented
// session through the full lifecycle — serve, batched query, stream ingest
// with a refit — and checks the registry's counters match the scripted
// workload exactly.
func TestWithMetricsCountsServeQueryStreamOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	reg := sap.NewMetrics()
	sess, holdout := runSmallSession(t,
		sap.WithMetrics(reg),
		sap.WithServiceRefitEvery(16))

	svcNode, err := sap.NewTCPNode("mining-service", "127.0.0.1:0", "metrics-key")
	if err != nil {
		t.Fatal(err)
	}
	defer svcNode.Close()
	cliNode, err := sap.NewTCPNode("provider-1", "127.0.0.1:0", "metrics-key")
	if err != nil {
		t.Fatal(err)
	}
	defer cliNode.Close()
	svcNode.AddPeer("provider-1", cliNode.Addr())
	cliNode.AddPeer("mining-service", svcNode.Addr())

	ctx, cancel := context.WithCancel(runCtx(t))
	done := make(chan error, 1)
	go func() { done <- sess.Serve(ctx, svcNode, sap.NewKNN(5)) }()

	client, err := sess.NewClient(cliNode, sap.ClientConfig{Miner: "mining-service"})
	if err != nil {
		t.Fatal(err)
	}
	// One batched query: a single classify frame carrying the holdout.
	if _, err := client.ClassifyBatch(ctx, holdout.X); err != nil {
		t.Fatal(err)
	}
	client.Close()

	// Stream the holdout back in as fresh training data: 16-record chunks,
	// so a 30-record holdout is two chunks and exactly one refit
	// (WithServiceRefitEvery(16): the first full chunk triggers it, the
	// 14-record tail stays under the cadence).
	pushed, err := sess.StreamTo(ctx, cliNode, "mining-service",
		sap.DatasetSource(holdout), sap.WithChunkSize(16))
	if err != nil {
		t.Fatal(err)
	}
	if pushed != holdout.Len() {
		t.Fatalf("pushed %d records, want %d", pushed, holdout.Len())
	}

	cancel()
	if err := <-done; err != nil {
		t.Error(err)
	}

	snap := reg.Snapshot()
	wantChunks := (holdout.Len() + 15) / 16
	for counterName, want := range map[string]int64{
		"service.default.requests":       1,
		"service.default.ingest.chunks":  int64(wantChunks),
		"service.default.ingest.records": int64(holdout.Len()),
		"service.default.refit.count":    int64(holdout.Len() / 16),
		"service.default.refit.errors":   0,
		"service.rejects.unknown_group":  0,
		"stream.chunks":                  int64(wantChunks),
		"stream.records":                 int64(holdout.Len()),
	} {
		if got := snap.Counters[counterName]; got != want {
			t.Errorf("%s = %d, want %d", counterName, got, want)
		}
	}
	bs := snap.Histograms["service.default.batch_size"]
	if bs.Count != 1 || bs.Sum != int64(holdout.Len()) {
		t.Errorf("batch_size = %+v, want one observation of %d", bs, holdout.Len())
	}
	if rf := snap.Histograms["service.default.refit.ns"]; rf.Count != int64(holdout.Len()/16) || rf.Sum <= 0 {
		t.Errorf("refit.ns = %+v, want %d positive timings", rf, holdout.Len()/16)
	}
}

// TestMetricsSnapshotIdleSession checks an instrumented but idle serving
// path registers its instruments lazily: before any traffic the snapshot is
// empty, so dashboards see instruments appear as layers come online.
func TestMetricsSnapshotIdleSession(t *testing.T) {
	reg := sap.NewMetrics()
	if _, err := sap.New(sap.WithMetrics(reg)); err == nil {
		t.Fatal("New accepted a session with no parties")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("idle registry snapshot = %+v, want empty", snap)
	}
}
