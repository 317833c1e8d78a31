package protocol

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// labelledLineAt is labelledLine with a label offset, so each group's model
// answers with labels from a disjoint range and response attribution across
// groups is unambiguous.
func labelledLineAt(t *testing.T, n, offset int) *dataset.Dataset {
	t.Helper()
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{float64(i) / float64(n)}
		y[i] = offset + i
	}
	d, err := dataset.New("line", x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// startGroupedService serves the given groups until cleanup.
func startGroupedService(t *testing.T, conn transport.Conn, groups []GroupSpec, cfg ServiceConfig) (*MiningService, func()) {
	t.Helper()
	svc, err := NewGroupedMiningService(conn, groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx); err != nil {
			t.Error(err)
		}
	}()
	return svc, func() {
		cancel()
		<-done
	}
}

// TestGroupedServiceRoutesByGroup hosts two groups with label-disjoint
// models on one service and checks every query is answered by its own
// group's shard.
func TestGroupedServiceRoutesByGroup(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()

	const n = 8
	groups := []GroupSpec{
		{ID: "alpha", Unified: labelledLineAt(t, n, 0), Model: classify.NewKNN(1)},
		{ID: "beta", Unified: labelledLineAt(t, n, 100), Model: classify.NewKNN(1)},
	}
	svc, stop := startGroupedService(t, svcConn, groups, ServiceConfig{Workers: 2})
	defer stop()
	if got := svc.Groups(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Groups() = %v", got)
	}

	ctx := testCtx(t)
	for _, tc := range []struct {
		group  string
		offset int
	}{{"alpha", 0}, {"beta", 100}} {
		cliConn, err := net.Endpoint("cli-" + tc.group)
		if err != nil {
			t.Fatal(err)
		}
		defer cliConn.Close()
		client, err := NewGroupServiceClient(cliConn, "svc", tc.group)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for i := 0; i < n; i++ {
			label, err := client.Classify(ctx, []float64{float64(i) / float64(n)})
			if err != nil {
				t.Fatalf("group %s record %d: %v", tc.group, i, err)
			}
			if label != tc.offset+i {
				t.Fatalf("group %s record %d labelled %d, want %d (cross-group response leak)",
					tc.group, i, label, tc.offset+i)
			}
		}
	}
}

// TestGroupedServiceUnknownGroup checks a frame addressed to an unhosted
// group is answered with ErrUnknownGroup — for queries and ingest alike —
// and the client stays usable.
func TestGroupedServiceUnknownGroup(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	svc, stop := startGroupedService(t, svcConn,
		[]GroupSpec{{ID: "alpha", Unified: labelledLine(t, 4), Model: classify.NewKNN(1)}},
		ServiceConfig{})
	defer stop()

	client, err := NewGroupServiceClient(cliConn, "svc", "nope")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)
	if _, err := client.Classify(ctx, []float64{0.5}); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("classify err = %v, want ErrUnknownGroup", err)
	}
	if _, err := client.PushChunk(ctx, [][]float64{{0.5}}, []int{1}); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("ingest err = %v, want ErrUnknownGroup", err)
	}
	// The default group is not implicitly hosted by a grouped service that
	// did not register it.
	legacy, err := NewServiceClient(cliConn2(t, net), "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if _, err := legacy.Classify(ctx, []float64{0.5}); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("default-group err = %v, want ErrUnknownGroup", err)
	}
	if _, err := svc.GroupIngested("nope"); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("GroupIngested err = %v, want ErrUnknownGroup", err)
	}
}

// cliConn2 hands out an extra uniquely named client endpoint.
func cliConn2(t *testing.T, net transport.Network) transport.Conn {
	t.Helper()
	conn, err := net.Endpoint("cli2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestGroupedServiceMemberIsolation is the cross-group isolation contract:
// a peer registered to group alpha cannot query (or feed) group beta when
// beta carries a member list, while its own group keeps serving it.
func TestGroupedServiceMemberIsolation(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	aliceConn, _ := net.Endpoint("alice")
	defer aliceConn.Close()

	groups := []GroupSpec{
		{ID: "alpha", Unified: labelledLineAt(t, 4, 0), Model: classify.NewKNN(1), Members: []string{"alice"}},
		{ID: "beta", Unified: labelledLineAt(t, 4, 100), Model: classify.NewKNN(1), Members: []string{"bob"}},
	}
	_, stop := startGroupedService(t, svcConn, groups, ServiceConfig{})
	defer stop()
	ctx := testCtx(t)

	// Alice in her own group: served.
	own, err := NewGroupServiceClient(aliceConn, "svc", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if label, err := own.Classify(ctx, []float64{0.0}); err != nil || label != 0 {
		t.Fatalf("own-group query = %d, %v; want 0, nil", label, err)
	}
	own.Close()

	// Alice addressing beta: refused with ErrNotMember, for queries and
	// ingest alike; nothing reaches beta's model.
	foreign, err := NewGroupServiceClient(aliceConn, "svc", "beta")
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	if _, err := foreign.Classify(ctx, []float64{0.0}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("foreign classify err = %v, want ErrNotMember", err)
	}
	if _, err := foreign.PushChunk(ctx, [][]float64{{0.5}}, []int{1}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("foreign ingest err = %v, want ErrNotMember", err)
	}
}

// TestLegacyFramesRouteToDefaultGroup checks that a well-formed body under
// any retired version byte (1–8) is answered with a typed wire-version
// rejection that echoes its ID, and that a current frame with an empty Group
// is served by the default group.
func TestLegacyFramesRouteToDefaultGroup(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	groups := []GroupSpec{
		{ID: DefaultGroup, Unified: labelledLineAt(t, 4, 0), Model: classify.NewKNN(1)},
		{ID: "beta", Unified: labelledLineAt(t, 4, 100), Model: classify.NewKNN(1)},
	}
	_, stop := startGroupedService(t, svcConn, groups, ServiceConfig{})
	defer stop()
	ctx := testCtx(t)

	exchange := func(version byte) *serviceWire {
		t.Helper()
		payload, err := encodeServiceWire(&serviceWire{ID: uint64(version), Batch: [][]float64{{0.0}}})
		if err != nil {
			t.Fatal(err)
		}
		payload[1] = version
		if err := cliConn.Send(ctx, "svc", payload); err != nil {
			t.Fatal(err)
		}
		env, err := cliConn.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeServiceWire(env.Payload)
		if err != nil || resp == nil {
			t.Fatalf("v%d: decode response: %v", version, err)
		}
		return resp
	}
	for version := byte(1); version < ServiceWireVersion; version++ {
		resp := exchange(version)
		if resp.ID != uint64(version) || resp.Code != codeWireVersion {
			t.Fatalf("v%d: resp = %+v, want codeWireVersion for ID %d", version, resp, version)
		}
		if err := responseErr(resp); !errors.Is(err, ErrWireVersion) {
			t.Fatalf("v%d: mapped err = %v, want ErrWireVersion", version, err)
		}
	}
	resp := exchange(ServiceWireVersion)
	if resp.ID != ServiceWireVersion || resp.Code != codeOK {
		t.Fatalf("current frame: resp = %+v, want codeOK for ID %d", resp, ServiceWireVersion)
	}
	if len(resp.Labels) != 1 || resp.Labels[0] != 0 {
		t.Fatalf("current frame: labels = %v, want [0] (default group's model)", resp.Labels)
	}
}

// gatedModel wraps a classifier whose refits (every Fit after the first)
// block until released, so tests can hold one group mid-refit. Its Clone —
// handed to background refits — shares the gate and counters, so a cloned
// instance parks inside its Fit exactly like the original would.
type gatedModel struct {
	inner   classify.Classifier
	fits    *atomic.Int64
	started chan struct{}
	release chan struct{}
}

func newGatedModel(inner classify.Classifier) *gatedModel {
	return &gatedModel{
		inner:   inner,
		fits:    &atomic.Int64{},
		started: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
}

func (m *gatedModel) Fit(d *dataset.Dataset) error {
	if m.fits.Add(1) > 1 {
		m.started <- struct{}{}
		<-m.release
	}
	return m.inner.Fit(d)
}

func (m *gatedModel) Predict(x []float64) (int, error) { return m.inner.Predict(x) }

func (m *gatedModel) Clone() classify.Classifier {
	return &gatedModel{inner: classify.NewKNN(1), fits: m.fits, started: m.started, release: m.release}
}

// waitForLabel polls a group's served prediction for probe until it answers
// want — background refits publish their model swap asynchronously.
func waitForLabel(t *testing.T, ctx context.Context, client *ServiceClient, probe []float64, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		label, err := client.Classify(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		if label == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("label = %d, want %d (refit swap never went live)", label, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGroupRefitDoesNotBlockOtherGroups holds group alpha in the middle of
// an ingest-triggered background refit and checks that NOBODY stalls: alpha
// itself keeps answering queries on the previous fit and keeps accepting
// ingest chunks (this was the cross-group ingest stall — the refit used to
// run inline on the ingest goroutine under the model write lock), and beta
// is untouched. Releasing the gate must eventually publish the swapped
// model.
func TestGroupRefitDoesNotBlockOtherGroups(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	pushConn, _ := net.Endpoint("pusher")
	defer pushConn.Close()
	queryConn, _ := net.Endpoint("querier")
	defer queryConn.Close()

	gated := newGatedModel(classify.NewKNN(1))
	groups := []GroupSpec{
		{ID: "alpha", Unified: labelledLineAt(t, 4, 0), Model: gated, RefitEvery: 1},
		{ID: "beta", Unified: labelledLineAt(t, 4, 100), Model: classify.NewKNN(1)},
	}
	_, stop := startGroupedService(t, svcConn, groups, ServiceConfig{Workers: 2})
	defer stop()
	ctx := testCtx(t)

	pusher, err := NewGroupServiceClient(pushConn, "svc", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer pusher.Close()
	// The triggering push must come back without waiting for the refit —
	// the refit runs aside, the ingest lane answers immediately.
	if _, err := pusher.PushChunk(ctx, [][]float64{{0.9}}, []int{9}); err != nil {
		t.Fatalf("triggering push: %v", err)
	}
	// Wait until alpha is genuinely inside its background refit.
	select {
	case <-gated.started:
	case <-time.After(5 * time.Second):
		t.Fatal("alpha never started its refit")
	}

	// Alpha itself keeps serving mid-refit: queries answer from the
	// previous fit, and further ingest is accepted by the unblocked lane.
	midCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if label, err := pusher.Classify(midCtx, []float64{0.0}); err != nil || label != 0 {
		t.Fatalf("alpha query mid-refit = %d, %v; want 0 (previous fit), nil", label, err)
	}
	if _, err := pusher.PushChunk(midCtx, [][]float64{{0.8}}, []int{9}); err != nil {
		t.Fatalf("alpha ingest mid-refit: %v", err)
	}

	// Beta must answer while alpha's refit is parked.
	querier, err := NewGroupServiceClient(queryConn, "svc", "beta")
	if err != nil {
		t.Fatal(err)
	}
	defer querier.Close()
	label, err := querier.Classify(midCtx, []float64{0.0})
	if err != nil {
		t.Fatalf("beta query during alpha refit: %v", err)
	}
	if label != 100 {
		t.Fatalf("beta label = %d, want 100", label)
	}

	// Releasing the gate lets the refit finish and swap the fresh fit in;
	// the streamed region then answers with its new label.
	close(gated.release)
	waitForLabel(t, ctx, pusher, []float64{0.9}, 9)
}

// flakyModel wraps a classifier whose Fit fails while failing is set,
// simulating a refit that cannot converge on the grown training set. Clones
// (the fresh instances background refits fit) share the failure switch.
type flakyModel struct {
	inner   classify.Classifier
	failing *atomic.Bool
}

func newFlakyModel(inner classify.Classifier) *flakyModel {
	return &flakyModel{inner: inner, failing: &atomic.Bool{}}
}

var errFlakyFit = errors.New("flaky: fit failed")

func (m *flakyModel) Fit(d *dataset.Dataset) error {
	if m.failing.Load() {
		return errFlakyFit
	}
	return m.inner.Fit(d)
}

func (m *flakyModel) Predict(x []float64) (int, error) { return m.inner.Predict(x) }

func (m *flakyModel) Clone() classify.Classifier {
	return &flakyModel{inner: classify.NewKNN(1), failing: m.failing}
}

// waitForCounter polls one registry counter until it reaches want.
func waitForCounter(t *testing.T, reg *metrics.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := reg.Snapshot().Counters[name]; got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d",
				name, reg.Snapshot().Counters[name], want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRefitFailureKeepsServingAndRecovers exercises the refit-failure
// contract end to end under the background-refit design: a failed refit
// leaves the prior model's predictions byte-identical (the fresh instance
// that failed to fit is discarded, the atomic swap never happens), the
// failure is reported exactly once — on the next ingest response, as
// ErrRefit with the chunk still folded in — and the group recovers once a
// later refit succeeds.
func TestRefitFailureKeepsServingAndRecovers(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	reg := metrics.NewRegistry()
	flaky := newFlakyModel(classify.NewKNN(1))
	svc, stop := startGroupedService(t, svcConn,
		[]GroupSpec{{ID: "alpha", Unified: labelledLine(t, 4), Model: flaky, RefitEvery: 2}},
		ServiceConfig{Metrics: reg})
	defer stop()

	client, err := NewGroupServiceClient(cliConn, "svc", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	// Fingerprint the live model before anything goes wrong.
	probes := [][]float64{{0.0}, {0.3}, {0.6}, {0.9}, {10.0}}
	before := make([]int, len(probes))
	for i, p := range probes {
		if before[i], err = client.Classify(ctx, p); err != nil {
			t.Fatal(err)
		}
	}

	// Break refits and push a chunk that schedules one. The push itself
	// succeeds — the chunk lands, the refit runs (and fails) aside.
	flaky.failing.Store(true)
	total, err := client.PushChunk(ctx, [][]float64{{9.9}, {10.1}}, []int{7, 7})
	if err != nil {
		t.Fatalf("push with broken refit err = %v, want nil (refit is off the ingest lane)", err)
	}
	if total != 6 {
		t.Fatalf("accepted total = %d, want 6 (chunk must be folded in)", total)
	}
	waitForCounter(t, reg, "service.alpha.refit.errors", 1)

	// The failed refit left the prior model serving, predictions unchanged
	// to the byte: the failed fresh instance was discarded before the swap.
	for i, p := range probes {
		label, err := client.Classify(ctx, p)
		if err != nil {
			t.Fatalf("query after failed refit: %v", err)
		}
		if label != before[i] {
			t.Fatalf("probe %v = %d after failed refit, want %d (prior model must be untouched)",
				p, label, before[i])
		}
	}

	// The next ingest response reports the lag exactly once: ErrRefit with
	// the chunk still accepted.
	total, err = client.PushChunk(ctx, [][]float64{{9.8}}, []int{7})
	if !errors.Is(err, ErrRefit) {
		t.Fatalf("post-failure push err = %v, want ErrRefit (lag reported on next ingest answer)", err)
	}
	if total != 7 {
		t.Fatalf("accepted total = %d alongside ErrRefit, want 7", total)
	}

	// Heal the model; the next cadence crossing refits cleanly and swaps
	// the grown training set — including the failed round's records — in.
	flaky.failing.Store(false)
	total, err = client.PushChunk(ctx, [][]float64{{10.2}}, []int{7})
	if err != nil {
		t.Fatalf("push after heal: %v", err)
	}
	if total != 8 {
		t.Fatalf("accepted total = %d, want 8", total)
	}
	waitForLabel(t, ctx, client, []float64{10.0}, 7)
	if got, err := svc.GroupIngested("alpha"); err != nil || got != 4 {
		t.Fatalf("GroupIngested = %d, %v; want 4, nil", got, err)
	}
	snap := reg.Snapshot()
	if snap.Counters["service.alpha.refit.errors"] != 1 {
		t.Fatalf("refit.errors = %d, want 1", snap.Counters["service.alpha.refit.errors"])
	}
	if snap.Counters["service.alpha.refit.count"] < 1 {
		t.Fatalf("refit.count = %d, want >= 1", snap.Counters["service.alpha.refit.count"])
	}
}

// TestGroupedServiceValidation covers the registry's construction-time
// rejections.
func TestGroupedServiceValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	conn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d := labelledLine(t, 4)
	model := classify.NewKNN(1)

	for name, groups := range map[string][]GroupSpec{
		"no groups":    {},
		"empty id":     {{ID: "", Unified: d, Model: model}},
		"duplicate id": {{ID: "a", Unified: d, Model: model}, {ID: "a", Unified: d, Model: classify.NewKNN(1)}},
		"no dataset":   {{ID: "a", Model: model}},
		"nil model":    {{ID: "a", Unified: d}},
		"empty member": {{ID: "a", Unified: d, Model: model, Members: []string{""}}},
	} {
		if _, err := NewGroupedMiningService(conn, groups, ServiceConfig{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

// TestGroupIngestIsolation checks that one group's ingest never leaks into
// another group's training set or counters.
func TestGroupIngestIsolation(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	groups := []GroupSpec{
		{ID: "alpha", Unified: labelledLineAt(t, 4, 0), Model: classify.NewKNN(1), RefitEvery: 1},
		{ID: "beta", Unified: labelledLineAt(t, 4, 100), Model: classify.NewKNN(1), RefitEvery: 1},
	}
	svc, stop := startGroupedService(t, svcConn, groups, ServiceConfig{})
	defer stop()
	ctx := testCtx(t)

	client, err := NewGroupServiceClient(cliConn, "svc", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	total, err := client.PushChunk(ctx, [][]float64{{2.0}, {2.1}}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("alpha total = %d, want 6", total)
	}
	client.Close()

	if got, err := svc.GroupIngested("alpha"); err != nil || got != 2 {
		t.Fatalf("alpha ingested = %d, %v; want 2, nil", got, err)
	}
	if got, err := svc.GroupIngested("beta"); err != nil || got != 0 {
		t.Fatalf("beta ingested = %d, %v; want 0, nil", got, err)
	}
	if got := svc.Ingested(); got != 2 {
		t.Fatalf("total ingested = %d, want 2", got)
	}

	// Beta's model must not know alpha's streamed region: nearest stays the
	// top of beta's own line.
	beta, err := NewGroupServiceClient(cliConn, "svc", "beta")
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()
	label, err := beta.Classify(ctx, []float64{2.0})
	if err != nil {
		t.Fatal(err)
	}
	if label != 103 {
		t.Fatalf("beta label = %d, want 103 (alpha's ingest leaked)", label)
	}
}
