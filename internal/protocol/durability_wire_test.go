package protocol

// Tests for the v6 durability additions: the sync-gossip frames and their
// dispatch hook, epoch-stamped routes answers, the Covered bookkeeping on
// model syncs, dynamic shard role flips and the frame inspector the
// faultnet harness matches traffic with.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestSyncGossipDispatch checks hello and state frames reach OnSyncGossip
// with every field intact and — being fire-and-forget — draw no response
// frame back to the sender.
func TestSyncGossipDispatch(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	peerConn, _ := net.Endpoint("peer")
	defer peerConn.Close()

	gossip := make(chan SyncGossip, 4)
	_, stop := startGroupedService(t, svcConn, []GroupSpec{{
		ID: "alpha", Unified: labelledLine(t, 4), Model: classify.NewKNN(1)}},
		ServiceConfig{OnSyncGossip: func(g SyncGossip) { gossip <- g }})
	defer stop()
	ctx := testCtx(t)

	row := RouteEntry{Group: "alpha", Node: "peer", Replicas: []string{"svc"}}
	if err := SendSyncHello(ctx, peerConn, "svc", "alpha", 3, 2, 40, row); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-gossip:
		if !g.Hello || g.From != "peer" || g.Group != "alpha" || g.Seq != 3 ||
			g.Epoch != 2 || g.Covered != 40 || g.Row == nil || g.Row.Node != "peer" {
			t.Fatalf("hello gossip = %+v, want hello from peer seq 3 epoch 2 covered 40", g)
		}
	case <-ctx.Done():
		t.Fatal("hello never dispatched")
	}

	if err := SendSyncState(ctx, peerConn, "svc", "alpha", 5, 2, 44, row); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-gossip:
		if g.Hello || g.Seq != 5 || g.Covered != 44 {
			t.Fatalf("state gossip = %+v, want state seq 5 covered 44", g)
		}
	case <-ctx.Done():
		t.Fatal("state never dispatched")
	}

	// Fire-and-forget: the service must not have answered either frame.
	quiet, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancel()
	if env, err := peerConn.Recv(quiet); err == nil {
		t.Fatalf("gossip drew a response frame: %+v", env)
	}
}

// TestTableAtEpoch checks RoutesFunc-served tables carry their epoch through
// the wire, and static Routes answer epoch 0.
func TestTableAtEpoch(t *testing.T) {
	net := transport.NewMemNetwork()
	liveConn, _ := net.Endpoint("live")
	defer liveConn.Close()
	staticConn, _ := net.Endpoint("static")
	defer staticConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	row := RouteEntry{Group: "alpha", Node: "live"}
	_, stopLive := startIngestService(t, liveConn, labelledLine(t, 4), ServiceConfig{
		RoutesFunc: func() ([]RouteEntry, uint64) { return []RouteEntry{row}, 42 }})
	defer stopLive()
	_, stopStatic := startIngestService(t, staticConn, labelledLine(t, 4), ServiceConfig{
		Routes: []RouteEntry{row}})
	defer stopStatic()

	client, err := NewServiceClient(cliConn, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	entries, epoch, err := client.TableAt(ctx, "live")
	if err != nil || epoch != 42 || len(entries) != 1 || entries[0].Node != "live" {
		t.Fatalf("TableAt live = %+v, %d, %v; want the row under epoch 42", entries, epoch, err)
	}
	entries, epoch, err = client.TableAt(ctx, "static")
	if err != nil || epoch != 0 || len(entries) != 1 {
		t.Fatalf("TableAt static = %+v, %d, %v; want the row under epoch 0", entries, epoch, err)
	}
}

// TestSyncCoveredBookkeeping checks an installed sync records its coverage
// mark, ReportSyncLag drives the staleness gauge (clamping negatives), and
// the next install resets it.
func TestSyncCoveredBookkeeping(t *testing.T) {
	net := transport.NewMemNetwork()
	repConn, _ := net.Endpoint("replica")
	defer repConn.Close()
	leaderConn, _ := net.Endpoint("leader")
	defer leaderConn.Close()

	reg := metrics.NewRegistry()
	svc, stop := startGroupedService(t, repConn, []GroupSpec{{
		ID: "alpha", Unified: labelledLine(t, 4), Model: classify.NewKNN(1),
		SyncFrom: "leader"}}, ServiceConfig{Metrics: reg})
	defer stop()
	ctx := testCtx(t)

	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 1, 9, encodeFittedKNN(t, 0.5, 7)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.installs", 1)
	if seq, err := svc.GroupSyncSeq("alpha"); err != nil || seq != 1 {
		t.Fatalf("GroupSyncSeq = %d, %v; want 1", seq, err)
	}
	if cov, err := svc.GroupSyncCovered("alpha"); err != nil || cov != 9 {
		t.Fatalf("GroupSyncCovered = %d, %v; want 9", cov, err)
	}

	const gauge = "service.alpha.staleness_records"
	if err := svc.ReportSyncLag("alpha", 6); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[gauge]; got != 6 {
		t.Fatalf("staleness after ReportSyncLag(6) = %d, want 6", got)
	}
	if err := svc.ReportSyncLag("alpha", -3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[gauge]; got != 0 {
		t.Fatalf("staleness after ReportSyncLag(-3) = %d, want 0 (clamped)", got)
	}
	if err := svc.ReportSyncLag("alpha", 6); err != nil {
		t.Fatal(err)
	}
	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 2, 13, encodeFittedKNN(t, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.installs", 2)
	waitForGauge(t, reg, gauge, 0) // an install catches the replica up
	if err := svc.ReportSyncLag("ghost", 1); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("ReportSyncLag on unknown group err = %v, want ErrUnknownGroup", err)
	}
}

// TestGroupRoleFlips drives one shard through the failover role changes:
// promoted to leader it accepts ingest and refuses its old leader's syncs;
// demoted back to follower under a new leader it refuses ingest and installs
// that leader's syncs.
func TestGroupRoleFlips(t *testing.T) {
	net := transport.NewMemNetwork()
	repConn, _ := net.Endpoint("replica")
	defer repConn.Close()
	oldConn, _ := net.Endpoint("old-leader")
	defer oldConn.Close()
	newConn, _ := net.Endpoint("new-leader")
	defer newConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	reg := metrics.NewRegistry()
	svc, stop := startGroupedService(t, repConn, []GroupSpec{{
		ID: "alpha", Unified: labelledLine(t, 4), Model: classify.NewKNN(1),
		SyncFrom: "old-leader"}}, ServiceConfig{Metrics: reg})
	defer stop()

	client, err := NewGroupServiceClient(cliConn, "replica", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	// As a follower it refuses ingest.
	if _, err := client.PushChunk(ctx, [][]float64{{1}}, []int{9}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower push err = %v, want ErrNotLeader", err)
	}

	// Promoted: ingest lands, and the deposed leader's syncs are rejected.
	if err := svc.SetGroupLead("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushChunk(ctx, [][]float64{{1}}, []int{9}); err != nil {
		t.Fatalf("promoted push err = %v", err)
	}
	if err := SendModelSync(ctx, oldConn, "replica", "alpha", 0, 1, 0, encodeFittedKNN(t, 0.5, 7)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.rejects", 1)

	// Demoted under a new leader: ingest refused again, its syncs install.
	if err := svc.SetGroupFollow("alpha", "new-leader"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushChunk(ctx, [][]float64{{1}}, []int{9}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("demoted push err = %v, want ErrNotLeader", err)
	}
	if err := SendModelSync(ctx, newConn, "replica", "alpha", 0, 1, 0, encodeFittedKNN(t, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.installs", 1)
	waitForLabel(t, ctx, client, []float64{0.5}, 8)

	if err := svc.SetGroupFollow("alpha", ""); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty leader err = %v, want ErrBadConfig", err)
	}
	if err := svc.SetGroupLead("ghost"); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("unknown group err = %v, want ErrUnknownGroup", err)
	}
}

// TestInspectFrame checks the harness-facing frame inspector reads kind,
// group, sequence and epoch out of real frames and refuses junk.
func TestInspectFrame(t *testing.T) {
	net := transport.NewMemNetwork()
	a, _ := net.Endpoint("a")
	defer a.Close()
	b, _ := net.Endpoint("b")
	defer b.Close()
	ctx := testCtx(t)

	if err := SendModelSync(ctx, a, "b", "alpha", 0, 7, 21, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	env, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	info, ok := InspectFrame(env.Payload)
	if !ok || info.Kind != KindModelSync || info.Group != "alpha" || info.Seq != 7 ||
		info.ID != 0 || info.Response {
		t.Fatalf("model-sync InspectFrame = %+v, %v", info, ok)
	}

	row := RouteEntry{Group: "alpha", Node: "a"}
	if err := SendSyncHello(ctx, a, "b", "alpha", 3, 9, 12, row); err != nil {
		t.Fatal(err)
	}
	env, err = b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	info, ok = InspectFrame(env.Payload)
	if !ok || info.Kind != KindSyncHello || info.Epoch != 9 || info.Seq != 3 {
		t.Fatalf("hello InspectFrame = %+v, %v", info, ok)
	}

	for name, junk := range map[string][]byte{
		"empty":     nil,
		"non-magic": {0xFF, 0x01, 0x02},
		"truncated": {0x53},
	} {
		if _, ok := InspectFrame(junk); ok {
			t.Errorf("InspectFrame accepted %s payload", name)
		}
	}
}

// TestOnModelSyncHook checks the replication-liveness hook: every model-sync
// frame admitted from the shard's sync source reaches OnModelSync — fresh
// installs and replay rejections alike, since either proves the leader is
// alive and publishing — while frames from any other sender are refused
// before the hook and count as no evidence at all.
func TestOnModelSyncHook(t *testing.T) {
	net := transport.NewMemNetwork()
	repConn, _ := net.Endpoint("replica")
	defer repConn.Close()
	leaderConn, _ := net.Endpoint("leader")
	defer leaderConn.Close()
	rogueConn, _ := net.Endpoint("rogue")
	defer rogueConn.Close()

	type call struct {
		group, from string
		seq         uint64
	}
	calls := make(chan call, 4)
	reg := metrics.NewRegistry()
	_, stop := startGroupedService(t, repConn, []GroupSpec{{
		ID: "alpha", Unified: labelledLine(t, 4), Model: classify.NewKNN(1),
		SyncFrom: "leader"}}, ServiceConfig{Metrics: reg,
		OnModelSync: func(group, from string, seq uint64) { calls <- call{group, from, seq} }})
	defer stop()
	ctx := testCtx(t)

	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 1, 4, encodeFittedKNN(t, 0.5, 7)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-calls:
		if got != (call{"alpha", "leader", 1}) {
			t.Fatalf("install hook call = %+v, want {alpha leader 1}", got)
		}
	case <-ctx.Done():
		t.Fatal("hook never fired for an installed sync")
	}

	// A replayed sequence is rejected as an install but still fires the
	// hook: the duplicate came from the authenticated leader, so it is
	// liveness evidence even though no model changed.
	if err := SendModelSync(ctx, leaderConn, "replica", "alpha", 0, 1, 4, encodeFittedKNN(t, 0.5, 8)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-calls:
		if got != (call{"alpha", "leader", 1}) {
			t.Fatalf("replay hook call = %+v, want {alpha leader 1}", got)
		}
	case <-ctx.Done():
		t.Fatal("hook never fired for a replay-rejected sync")
	}
	waitForCounter(t, reg, "service.alpha.sync.rejects", 1)

	// An unauthorized sender is refused at routing, before the ingest lane:
	// the hook must not treat an imposter's frames as the leader's pulse.
	if err := SendModelSync(ctx, rogueConn, "replica", "alpha", 0, 9, 0, encodeFittedKNN(t, 0.5, 9)); err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, reg, "service.alpha.sync.rejects", 2)
	select {
	case got := <-calls:
		t.Fatalf("hook fired for an unauthorized sender: %+v", got)
	default:
	}
}
