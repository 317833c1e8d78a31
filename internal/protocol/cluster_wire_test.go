package protocol

// Tests for the v5 cluster admin frames — routing-table discovery and
// leader-to-replica model sync — plus the staleness gauge that rides along:
// the protocol-level building blocks internal/cluster assembles into a
// multi-node deployment.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// waitForGauge polls one registry gauge until it equals want.
func waitForGauge(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := reg.Snapshot().Gauges[name]; got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Snapshot().Gauges[name], want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// encodeFittedKNN fits a 1-NN on a single labelled record and returns its
// wire blob — the smallest model that answers every query with one label.
func encodeFittedKNN(t *testing.T, at float64, label int) []byte {
	t.Helper()
	knn := classify.NewKNN(1)
	d := labelledLineAt(t, 1, label)
	d.X[0][0] = at
	if err := knn.Fit(d); err != nil {
		t.Fatal(err)
	}
	blob, err := classify.EncodeModel(knn)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStalenessGauge checks the staleness_records gauge tracks records
// ingested beyond the live fit and retires them on a successful refit swap:
// below the cadence it grows with each accepted chunk, and once the
// cadence-triggered refit lands it falls back to zero (nothing streamed in
// during the fit here).
func TestStalenessGauge(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	reg := metrics.NewRegistry()
	_, stop := startIngestService(t, svcConn, labelledLine(t, 4),
		ServiceConfig{RefitEvery: 4, Metrics: reg})
	defer stop()

	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	const gauge = "service.default.staleness_records"
	if _, err := client.PushChunk(ctx, [][]float64{{9.9}, {10.1}}, []int{7, 7}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[gauge]; got != 2 {
		t.Fatalf("staleness after first chunk = %d, want 2", got)
	}
	// Crossing the cadence schedules a refit whose snapshot covers all four
	// stale records; its swap must retire them.
	if _, err := client.PushChunk(ctx, [][]float64{{9.8}, {10.2}}, []int{7, 7}); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.default.refit.count", 1)
	waitForGauge(t, reg, gauge, 0)
}

// TestRoutesDiscovery checks any node serves its configured routing table to
// a kindRoutes request, and a standalone service answers with an empty one.
func TestRoutesDiscovery(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	soloConn, _ := net.Endpoint("solo")
	defer soloConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	table := []RouteEntry{
		{Group: "alpha", Node: "svc", Replicas: []string{"solo"}},
		{Group: "beta", Node: "solo"},
	}
	_, stop := startIngestService(t, svcConn, labelledLine(t, 4), ServiceConfig{Routes: table})
	defer stop()
	_, stopSolo := startIngestService(t, soloConn, labelledLine(t, 4), ServiceConfig{})
	defer stopSolo()

	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	routes, err := client.Routes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 || routes[0].Group != "alpha" || routes[0].Node != "svc" ||
		len(routes[0].Replicas) != 1 || routes[0].Replicas[0] != "solo" ||
		routes[1].Group != "beta" || routes[1].Node != "solo" {
		t.Fatalf("discovered table = %+v, want %+v", routes, table)
	}
	solo, err := client.RoutesAt(ctx, "solo")
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 0 {
		t.Fatalf("standalone service served a table: %+v", solo)
	}
}

// startReplicaService serves one replica group (synced from leaderName) and
// returns its metrics registry.
func startReplicaService(t *testing.T, conn transport.Conn, leaderName string) (*metrics.Registry, func()) {
	t.Helper()
	reg := metrics.NewRegistry()
	_, stop := startGroupedService(t, conn, []GroupSpec{{
		ID:       "alpha",
		Unified:  labelledLine(t, 4),
		Model:    classify.NewKNN(1),
		SyncFrom: leaderName,
	}}, ServiceConfig{Metrics: reg})
	return reg, stop
}

// TestModelSyncInstall streams replacement models into a replica shard and
// checks installs are sequenced, idempotent and authorized: a fresh sequence
// swaps the served model in, a replayed or stale sequence is ignored, and a
// peer other than the configured leader cannot install at all.
func TestModelSyncInstall(t *testing.T) {
	net := transport.NewMemNetwork()
	repConn, _ := net.Endpoint("replica")
	defer repConn.Close()
	leaderConn, _ := net.Endpoint("leader")
	defer leaderConn.Close()
	rogueConn, _ := net.Endpoint("rogue")
	defer rogueConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	reg, stop := startReplicaService(t, repConn, "leader")
	defer stop()

	client, err := NewGroupServiceClient(cliConn, "replica", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	// Seq 1 from the leader: the served model becomes "always 7".
	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 1, 0, encodeFittedKNN(t, 0.5, 7)); err != nil {
		t.Fatal(err)
	}
	waitForLabel(t, ctx, client, []float64{0.5}, 7)

	// Replayed seq 1 with a different model: ignored, model stays at 7.
	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 1, 0, encodeFittedKNN(t, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.rejects", 1)
	if label, err := client.Classify(ctx, []float64{0.5}); err != nil || label != 7 {
		t.Fatalf("after replay: label, err = %d, %v; want 7, nil", label, err)
	}

	// A peer that is not the sync source cannot install, whatever the seq.
	if err := SendModelSync(ctx, rogueConn, "replica", "alpha", 0, 9, 0, encodeFittedKNN(t, 0.5, 9)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.rejects", 2)
	if label, err := client.Classify(ctx, []float64{0.5}); err != nil || label != 7 {
		t.Fatalf("after rogue sync: label, err = %d, %v; want 7, nil", label, err)
	}

	// Seq 2 from the leader advances the model.
	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 2, 0, encodeFittedKNN(t, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	waitForLabel(t, ctx, client, []float64{0.5}, 8)
	if got := reg.Snapshot().Counters["service.alpha.sync.installs"]; got != 2 {
		t.Fatalf("sync.installs = %d, want 2", got)
	}
	if got := reg.Snapshot().Gauges["service.alpha.sync.seq"]; got != 2 {
		t.Fatalf("sync.seq = %d, want 2", got)
	}
}

// TestModelSyncBadBlob checks a corrupt model blob is refused without
// disturbing the served model.
func TestModelSyncBadBlob(t *testing.T) {
	net := transport.NewMemNetwork()
	repConn, _ := net.Endpoint("replica")
	defer repConn.Close()
	leaderConn, _ := net.Endpoint("leader")
	defer leaderConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	reg, stop := startReplicaService(t, repConn, "leader")
	defer stop()

	client, err := NewGroupServiceClient(cliConn, "replica", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	before, err := client.Classify(ctx, []float64{0.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 1, 0, []byte{0xFF, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.rejects", 1)
	after, err := client.Classify(ctx, []float64{0.0})
	if err != nil || after != before {
		t.Fatalf("after bad blob: label, err = %d, %v; want %d, nil", after, err, before)
	}
}

// TestReplicaRejectsIngest checks a replica answers pushes with the typed
// ErrNotLeader — the chunk must be re-sent to the leader, not retried here.
func TestReplicaRejectsIngest(t *testing.T) {
	net := transport.NewMemNetwork()
	repConn, _ := net.Endpoint("replica")
	defer repConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	_, stop := startReplicaService(t, repConn, "leader")
	defer stop()

	client, err := NewGroupServiceClient(cliConn, "replica", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	if _, err := client.PushChunk(ctx, [][]float64{{0.5}}, []int{1}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("push to replica: %v, want ErrNotLeader", err)
	}
	// Classify traffic is exactly what replicas exist for.
	if _, err := client.Classify(ctx, []float64{0.5}); err != nil {
		t.Fatalf("classify on replica: %v", err)
	}
}

// TestClassifyBatchAt checks one client (one connection, one demultiplexer)
// can address multiple miners per call, with responses routed back by ID.
func TestClassifyBatchAt(t *testing.T) {
	net := transport.NewMemNetwork()
	aConn, _ := net.Endpoint("a")
	defer aConn.Close()
	bConn, _ := net.Endpoint("b")
	defer bConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	// Disjoint label ranges make the answering node observable.
	_, stopA := startGroupedService(t, aConn, []GroupSpec{{
		ID: "alpha", Unified: labelledLineAt(t, 4, 0), Model: classify.NewKNN(1)}}, ServiceConfig{})
	defer stopA()
	_, stopB := startGroupedService(t, bConn, []GroupSpec{{
		ID: "beta", Unified: labelledLineAt(t, 4, 100), Model: classify.NewKNN(1)}}, ServiceConfig{})
	defer stopB()

	client, err := NewServiceClient(cliConn, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	labels, err := client.ClassifyBatchAt(ctx, "a", "alpha", [][]float64{{0.0}})
	if err != nil || labels[0] != 0 {
		t.Fatalf("node a: labels, err = %v, %v; want [0], nil", labels, err)
	}
	labels, err = client.ClassifyBatchAt(ctx, "b", "beta", [][]float64{{0.0}})
	if err != nil || labels[0] != 100 {
		t.Fatalf("node b: labels, err = %v, %v; want [100], nil", labels, err)
	}
	// The wrong node rejects the foreign group by name.
	if _, err := client.ClassifyBatchAt(ctx, "b", "alpha", [][]float64{{0.0}}); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("foreign group: %v, want ErrUnknownGroup", err)
	}
	// PushChunkAt routes ingest the same way.
	if _, err := client.PushChunkAt(ctx, "b", "beta", [][]float64{{0.9}}, []int{101}); err != nil {
		t.Fatalf("push at node b: %v", err)
	}
	// A send to a node that is not there fails fast without killing the
	// client: the next call on a live node still works.
	cancelCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := client.ClassifyBatchAt(cancelCtx, "ghost", "alpha", [][]float64{{0.0}}); err == nil {
		t.Fatal("classify at missing node succeeded")
	}
	labels, err = client.ClassifyBatchAt(ctx, "a", "alpha", [][]float64{{0.0}})
	if err != nil || labels[0] != 0 {
		t.Fatalf("after failed send: labels, err = %v, %v; want [0], nil", labels, err)
	}
}
