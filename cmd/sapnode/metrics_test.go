package main

// End-to-end test for -metrics-addr: a miner daemon serving two groups over
// TCP exposes /metrics and /healthz, and the JSON snapshot's request,
// ingest and refit counters match a scripted two-group query+stream
// workload exactly.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// waitForRefits polls the /metrics endpoint until the named counter reaches
// want — background refits complete asynchronously to the pushes that
// schedule them.
func waitForRefits(t *testing.T, base, counter string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap metrics.Snapshot
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
		}
		if err == nil && snap.Counters[counter] >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d (last scrape err: %v)", counter, snap.Counters[counter], want, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMetricsAddrExposesWorkloadCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	dir := t.TempDir()
	csvA := writeUnifiedCSV(t, dir, "ward-a", 1)
	csvB := writeUnifiedCSV(t, dir, "ward-b", 2)
	ports := freePorts(t, 3)
	minerAddr, cliAddr, metricsAddr := ports[0], ports[1], ports[2]

	stopMiner := startRun(t, []string{
		"-role", "miner", "-name", "miner", "-listen", minerAddr,
		"-groups", fmt.Sprintf("ward-a=%s,ward-b=%s", csvA, csvB),
		"-serve", "60s", "-model", "knn", "-workers", "2", "-refit", "4",
		"-metrics-addr", metricsAddr,
		"-peers", "cli=" + cliAddr, "-key", "metrics-key",
	})

	codec, err := transport.NewAESCodec("metrics-key")
	if err != nil {
		t.Fatal(err)
	}
	node, err := transport.NewTCPNode("cli", cliAddr, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.AddPeer("miner", minerAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	query := []float64{0.1, 0.1, 0.1, 0.1}

	// Scripted workload, exactly countable: the daemon takes a moment to
	// listen, and attempts that fail to dial never reach it, so the retry
	// loop delivers exactly one classify frame; a second query makes two.
	wardA, err := protocol.NewGroupServiceClient(node, "miner", "ward-a")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = wardA.Classify(ctx, query); err == nil || ctx.Err() != nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("ward-a warmup query: %v", err)
	}
	if _, err := wardA.Classify(ctx, query); err != nil {
		t.Fatalf("ward-a second query: %v", err)
	}
	wardA.Close()

	// Two 4-record chunks into ward-b; -refit 4 schedules a background
	// refit after each chunk. Refits are asynchronous, so wait for each to
	// land in the counters before pushing on — that keeps the final
	// snapshot exactly countable.
	wardB, err := protocol.NewGroupServiceClient(node, "miner", "ward-b")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + metricsAddr
	chunk := [][]float64{{0.2, 0.2, 0.2, 0.2}, {0.3, 0.3, 0.3, 0.3}, {0.4, 0.4, 0.4, 0.4}, {0.5, 0.5, 0.5, 0.5}}
	labels := []int{201, 202, 203, 204}
	for i := 0; i < 2; i++ {
		if _, err := wardB.PushChunk(ctx, chunk, labels); err != nil {
			t.Fatalf("ward-b chunk %d: %v", i, err)
		}
		waitForRefits(t, base, "service.ward-b.refit.count", int64(i+1))
	}
	wardB.Close()

	// Liveness first, then the snapshot.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("/healthz = %d %+v, want 200 ok", hresp.StatusCode, health)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for counterName, want := range map[string]int64{
		"service.ward-a.requests":       2,
		"service.ward-a.ingest.records": 0,
		"service.ward-b.ingest.chunks":  2,
		"service.ward-b.ingest.records": 8,
		"service.ward-b.refit.count":    2,
		"service.ward-b.refit.errors":   0,
		"service.rejects.unknown_group": 0,
	} {
		if got := snap.Counters[counterName]; got != want {
			t.Errorf("%s = %d, want %d", counterName, got, want)
		}
	}
	if rf := snap.Histograms["service.ward-b.refit.ns"]; rf.Count != 2 || rf.Sum <= 0 {
		t.Errorf("ward-b refit.ns = %+v, want 2 positive timings", rf)
	}

	if err := stopMiner(); err != nil {
		t.Fatal(err)
	}
}
