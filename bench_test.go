package sap_test

// Benchmark harness: one benchmark per paper artifact (Figures 2-6) plus
// the repository's ablations and component micro-benchmarks. The figure
// benchmarks run reduced-size configurations so `go test -bench=.` finishes
// on a laptop; cmd/sapexp exposes the paper-scale knobs (e.g. -rounds 100).
// Each figure benchmark logs the same series the paper plots and reports
// its headline quantity as a custom metric.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	sap "repro"
	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/matrix"
	"repro/internal/perturb"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/transport"
)

// benchCfg keeps figure benchmarks laptop-sized.
func benchCfg() experiment.Config {
	return experiment.Config{
		Seed:          1,
		Rounds:        8,
		Parties:       4,
		Repeats:       1,
		OptCandidates: 3,
		OptLocalSteps: 2,
	}
}

func BenchmarkFigure2OptimizedVsRandom(b *testing.B) {
	var lift float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig2(benchCfg(), "Diabetes")
		if err != nil {
			b.Fatal(err)
		}
		lift = res.Optimized.Mean - res.Random.Mean
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(lift, "mean-guarantee-lift")
}

func BenchmarkFigure3OptimalityRates(b *testing.B) {
	var meanRate float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig3(benchCfg(), []int{5, 7, 10})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, p := range res.Points {
			sum += p.Rate
		}
		meanRate = sum / float64(len(res.Points))
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(meanRate, "mean-optimality-rate")
}

func BenchmarkFigure4PartyBounds(b *testing.B) {
	var maxParties int
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig4(benchCfg(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		maxParties = 0
		for _, p := range res.Points {
			if p.MinParties > maxParties {
				maxParties = p.MinParties
			}
		}
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(float64(maxParties), "max-min-parties")
}

// benchAccuracySubset keeps the per-iteration cost of the Figure 5/6
// benches bounded; sapexp runs all twelve datasets.
var benchAccuracySubset = []string{"Diabetes", "Iris", "Votes"}

func BenchmarkFigure5KNNDeviation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig5(benchCfg(), benchAccuracySubset)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range res.Points {
			if dev := -p.Deviation; dev > worst {
				worst = dev
			}
		}
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(worst, "worst-accuracy-drop-pp")
}

func BenchmarkFigure6SVMDeviation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(benchCfg(), benchAccuracySubset)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range res.Points {
			if dev := -p.Deviation; dev > worst {
				worst = dev
			}
		}
		if i == 0 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(worst, "worst-accuracy-drop-pp")
}

func BenchmarkAblationRisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.AblationRisk(0.95, 0.9, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiment.RenderRiskAblation(points))
		}
	}
}

func BenchmarkAblationAttacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.AblationAttacks(benchCfg(), []string{"Diabetes"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiment.RenderAttackAblation(rows))
		}
	}
}

func BenchmarkAblationNoiseSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.AblationNoiseSweep(benchCfg(), "Iris", []float64{0.02, 0.1, 0.3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiment.RenderNoiseSweep(points))
		}
	}
}

func BenchmarkAblationIdentifiability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunIdentifiability(benchCfg(), "Iris", 4, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Render())
		}
		b.ReportMetric(res.MaxDeviation, "max-deviation-from-uniform")
	}
}

// --- Component micro-benchmarks ---

func BenchmarkPerturbApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := matrix.RandomUniform(rng, 16, 1000, 0, 1)
	p, err := perturb.NewRandom(rng, 16, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Apply(rng, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptorApply(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := matrix.RandomUniform(rng, 16, 1000, 0, 1)
	gi, _ := perturb.NewRandom(rng, 16, 0.05)
	gt, _ := perturb.NewRandom(rng, 16, 0)
	a, err := perturb.NewAdaptor(gi, gt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Apply(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomOrthogonal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.RandomOrthogonal(rng, 16)
	}
}

func BenchmarkOptimizerRound(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d, err := dataset.GenerateByName("Diabetes", rng)
	if err != nil {
		b.Fatal(err)
	}
	norm, _, err := dataset.Normalize(d)
	if err != nil {
		b.Fatal(err)
	}
	x := norm.FeaturesT()
	opt := privacy.NewOptimizer(privacy.OptimizerConfig{Candidates: 4, LocalSteps: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Optimize(rng, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackSuiteEvaluation(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d, _ := dataset.GenerateByName("Diabetes", rng)
	norm, _, _ := dataset.Normalize(d)
	x := norm.FeaturesT()
	p, _ := perturb.NewRandom(rng, x.Rows(), 0.05)
	y, _, err := p.Apply(rng, x)
	if err != nil {
		b.Fatal(err)
	}
	know := privacy.Knowledge{
		Original:       x,
		KnownOriginal:  x.Slice(0, x.Rows(), 0, 8),
		KnownPerturbed: y.Slice(0, y.Rows(), 0, 8),
	}
	ev := privacy.DefaultEvaluator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(x, y, know); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSAPSession(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	d, _ := dataset.GenerateByName("Diabetes", rng)
	norm, _, _ := dataset.Normalize(d)
	parts, err := dataset.Partition(norm, rng, 5, dataset.PartitionUniform)
	if err != nil {
		b.Fatal(err)
	}
	parties := make([]protocol.PartyInput, len(parts))
	for i, part := range parts {
		p, _ := perturb.NewRandom(rng, norm.Dim(), 0.05)
		parties[i] = protocol.PartyInput{Name: partyBenchName(i), Data: part, Perturbation: p}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := protocol.RunLocal(ctx, protocol.SessionConfig{Parties: parties, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func partyBenchName(i int) string { return string(rune('a'+i)) + "-bench" }

func BenchmarkSVMTrainRBF(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d, _ := dataset.GenerateByName("Heart", rng)
	norm, _, _ := dataset.Normalize(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svm := classify.NewSVM(classify.SVMConfig{})
		if err := svm.Fit(norm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNPredictKDTree(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	d, _ := dataset.GenerateByName("Shuttle", rng)
	norm, _, _ := dataset.Normalize(d)
	knn := classify.NewKNN(5)
	if err := knn.Fit(norm); err != nil {
		b.Fatal(err)
	}
	query := norm.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knn.Predict(query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESCodecSeal(b *testing.B) {
	codec, err := transport.NewAESCodec("bench-key")
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := codec.Seal(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceThroughput tracks serving QPS across worker-pool sizes
// and batch shapes: single-record queries issued from concurrent goroutines
// versus batched queries answered in one round trip. The records/s metric
// is the headline serving-throughput number for future PRs to compare.
func BenchmarkServiceThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	d, err := dataset.GenerateByName("Diabetes", rng)
	if err != nil {
		b.Fatal(err)
	}
	norm, _, err := dataset.Normalize(d)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(b *testing.B) {
				net := transport.NewMemNetwork()
				svcConn, err := net.Endpoint("svc")
				if err != nil {
					b.Fatal(err)
				}
				defer svcConn.Close()
				cliConn, err := net.Endpoint("cli")
				if err != nil {
					b.Fatal(err)
				}
				defer cliConn.Close()
				svc, err := protocol.NewMiningService(svcConn,
					&protocol.MinerResult{Unified: norm}, classify.NewKNN(5),
					protocol.ServiceConfig{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- svc.Serve(ctx) }()
				client, err := protocol.NewServiceClient(cliConn, "svc")
				if err != nil {
					b.Fatal(err)
				}
				queries := make([][]float64, batch)
				for i := range queries {
					queries[i] = norm.X[i%norm.Len()]
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if batch == 1 {
							if _, err := client.Classify(ctx, queries[0]); err != nil {
								b.Error(err)
								return
							}
						} else if _, err := client.ClassifyBatch(ctx, queries); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				records := float64(b.N) * float64(batch)
				b.ReportMetric(records/b.Elapsed().Seconds(), "records/s")
				client.Close()
				cancel()
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// slowRefitModel is a KNN whose every fit after the first also burns a
// fixed wall-clock cost, emulating the expensive retrains of a production
// model. Clones share the fit counter so background refits pay the cost.
type slowRefitModel struct {
	inner *classify.KNN
	fits  *atomic.Int64
	cost  time.Duration
}

func (m *slowRefitModel) Fit(d *dataset.Dataset) error {
	if m.fits.Add(1) > 1 {
		time.Sleep(m.cost)
	}
	return m.inner.Fit(d)
}

func (m *slowRefitModel) Predict(x []float64) (int, error) { return m.inner.Predict(x) }

func (m *slowRefitModel) Clone() classify.Classifier {
	return &slowRefitModel{inner: classify.NewKNN(1), fits: m.fits, cost: m.cost}
}

// BenchmarkIngestUnderRefit measures ingest round-trip throughput while the
// served model is constantly refitting, with a deliberately slow (5ms) Fit.
// Before the background-refit swap, every cadence crossing stalled the
// ingest lane for the whole fit — records/s was bounded by the refit cost;
// with fit-aside-and-swap the pusher's latency stays flat, so this metric
// tracks the swap's effect alongside BenchmarkStreamThroughput in CI.
func BenchmarkIngestUnderRefit(b *testing.B) {
	const chunkRecords, refitEvery, dim = 16, 64, 4
	rng := rand.New(rand.NewSource(41))
	x := make([][]float64, 256)
	y := make([]int, 256)
	for i := range x {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = i % 4
	}
	base, err := dataset.New("bench", x, y)
	if err != nil {
		b.Fatal(err)
	}

	net := transport.NewMemNetwork()
	svcConn, err := net.Endpoint("svc")
	if err != nil {
		b.Fatal(err)
	}
	defer svcConn.Close()
	cliConn, err := net.Endpoint("cli")
	if err != nil {
		b.Fatal(err)
	}
	defer cliConn.Close()
	model := &slowRefitModel{inner: classify.NewKNN(1), fits: &atomic.Int64{}, cost: 5 * time.Millisecond}
	svc, err := protocol.NewGroupedMiningService(svcConn,
		[]protocol.GroupSpec{{ID: "bench", Unified: base, Model: model, RefitEvery: refitEvery}},
		protocol.ServiceConfig{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx) }()
	client, err := protocol.NewGroupServiceClient(cliConn, "svc", "bench")
	if err != nil {
		b.Fatal(err)
	}

	chunk := make([][]float64, chunkRecords)
	labels := make([]int, chunkRecords)
	for i := range chunk {
		chunk[i] = base.X[i%base.Len()]
		labels[i] = base.Y[i%base.Len()]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.PushChunk(ctx, chunk, labels); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*chunkRecords/b.Elapsed().Seconds(), "records/s")
	client.Close()
	cancel()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStreamThroughput measures the streaming ingestion pipeline's
// hot path — chunking and target-space perturbation with fresh noise — as
// perturbed records per second, across chunk sizes.
func BenchmarkStreamThroughput(b *testing.B) {
	const n, d = 4096, 8
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = i % 4
	}
	data, err := dataset.New("bench", x, y)
	if err != nil {
		b.Fatal(err)
	}
	target, err := perturb.NewRandom(rng, d, 0.05)
	if err != nil {
		b.Fatal(err)
	}

	for _, cfg := range []struct {
		name  string
		chunk int
	}{
		{"chunk64", 64},
		{"chunk256", 256},
		{"chunk1024", 1024},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				pipe, err := stream.New(stream.Config{
					Target:    target,
					Rng:       rand.New(rand.NewSource(int64(i))),
					ChunkSize: cfg.chunk,
				})
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- pipe.Run(ctx, stream.DatasetSource(data)) }()
				for range pipe.Out() {
				}
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkMultiGroupThroughput tracks the sharded router's serving QPS as
// queries fan out across 1, 4 and 16 co-hosted groups, each with its own
// model shard and client. Comparing the records/s metric against
// BenchmarkServiceThroughput shows what per-group locking and routing cost
// on top of single-group serving.
func BenchmarkMultiGroupThroughput(b *testing.B) {
	const recordsPerGroup, dim, batch = 64, 4, 16
	rng := rand.New(rand.NewSource(29))
	for _, nGroups := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("groups=%d", nGroups), func(b *testing.B) {
			net := transport.NewMemNetwork()
			svcConn, err := net.Endpoint("svc")
			if err != nil {
				b.Fatal(err)
			}
			defer svcConn.Close()
			specs := make([]protocol.GroupSpec, nGroups)
			for g := range specs {
				x := make([][]float64, recordsPerGroup)
				y := make([]int, recordsPerGroup)
				for i := range x {
					row := make([]float64, dim)
					for j := range row {
						row[j] = rng.NormFloat64()
					}
					x[i] = row
					y[i] = i % 4
				}
				d, err := dataset.New(fmt.Sprintf("g%d", g), x, y)
				if err != nil {
					b.Fatal(err)
				}
				specs[g] = protocol.GroupSpec{ID: fmt.Sprintf("g%d", g), Unified: d, Model: classify.NewKNN(1)}
			}
			svc, err := protocol.NewGroupedMiningService(svcConn, specs, protocol.ServiceConfig{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- svc.Serve(ctx) }()
			clients := make([]*protocol.ServiceClient, nGroups)
			for g := range clients {
				conn, err := net.Endpoint(fmt.Sprintf("cli%d", g))
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				clients[g], err = protocol.NewGroupServiceClient(conn, "svc", specs[g].ID)
				if err != nil {
					b.Fatal(err)
				}
			}
			queries := make([][]float64, batch)
			for i := range queries {
				queries[i] = specs[0].Unified.X[i%recordsPerGroup]
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					client := clients[int(next.Add(1))%nGroups]
					if _, err := client.ClassifyBatch(ctx, queries); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "records/s")
			for _, client := range clients {
				client.Close()
			}
			cancel()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMultiViewClassify tracks one group's serving QPS as its model
// set deepens from 1 to 2 to 4 trust views, with clients pinned round-robin
// across the levels. Comparing against BenchmarkMultiGroupThroughput's
// groups=1 case shows what the per-view resolution and per-view model
// pointers cost on top of flat single-model serving.
func BenchmarkMultiViewClassify(b *testing.B) {
	const records, dim, batch = 64, 4, 16
	rng := rand.New(rand.NewSource(31))
	x := make([][]float64, records)
	y := make([]int, records)
	for i := range x {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = i % 4
	}
	d, err := dataset.New("views", x, y)
	if err != nil {
		b.Fatal(err)
	}
	for _, nViews := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("views=%d", nViews), func(b *testing.B) {
			net := transport.NewMemNetwork()
			svcConn, err := net.Endpoint("svc")
			if err != nil {
				b.Fatal(err)
			}
			defer svcConn.Close()
			views := make([]protocol.ViewSpec, nViews)
			for v := range views {
				views[v] = protocol.ViewSpec{
					Level:      v + 1,
					NoiseSigma: 0.1 * float64(v),
					Model:      classify.NewKNN(1),
				}
			}
			spec := protocol.GroupSpec{ID: "g", Unified: d, Views: views}
			svc, err := protocol.NewGroupedMiningService(svcConn, []protocol.GroupSpec{spec}, protocol.ServiceConfig{Workers: 8})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- svc.Serve(ctx) }()
			clients := make([]*protocol.ServiceClient, nViews)
			for v := range clients {
				conn, err := net.Endpoint(fmt.Sprintf("cli%d", v))
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				clients[v], err = protocol.NewGroupServiceClient(conn, "svc", "g")
				if err != nil {
					b.Fatal(err)
				}
				clients[v].SetView(v + 1)
			}
			queries := make([][]float64, batch)
			for i := range queries {
				queries[i] = x[i%records]
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					client := clients[int(next.Add(1))%nViews]
					if _, err := client.ClassifyBatch(ctx, queries); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "records/s")
			for _, client := range clients {
				client.Close()
			}
			cancel()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// latencyModel is a KNN whose every Predict also burns a fixed wall-clock
// cost, emulating a production model whose inference latency — not CPU —
// bounds a single node's serving rate. It makes the cluster benchmark
// meaningful on small CI machines: aggregate throughput then scales with
// how many nodes share the classify fan-out, which is exactly the routing
// property under test, rather than with host core count.
type latencyModel struct {
	inner *classify.KNN
	cost  time.Duration
}

func (m *latencyModel) Fit(d *dataset.Dataset) error { return m.inner.Fit(d) }

func (m *latencyModel) Predict(x []float64) (int, error) {
	time.Sleep(m.cost)
	return m.inner.Predict(x)
}

func (m *latencyModel) Clone() classify.Classifier {
	return &latencyModel{inner: classify.NewKNN(1), cost: m.cost}
}

// BenchmarkClusterThroughput measures aggregate classify throughput as one
// group's read fan-out widens from a single node to 8 replicas. A static
// table pins the group's leader and N-1 read replicas; the cluster client
// round-robins classifies over all assignees. With a 1ms simulated predict
// latency and 4 workers per node, each node saturates at ~4k records/s, so
// the records/s series should grow near-linearly in the node count; the
// scale-vs-1node metric reports each size's speedup over the single-node
// baseline measured in the same run.
func BenchmarkClusterThroughput(b *testing.B) {
	const dim, records, workers = 4, 64, 4
	const predictCost = 2 * time.Millisecond
	rng := rand.New(rand.NewSource(53))
	x := make([][]float64, records)
	y := make([]int, records)
	for i := range x {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = i % 4
	}
	data, err := dataset.New("bench", x, y)
	if err != nil {
		b.Fatal(err)
	}

	var baseline float64
	for _, nodes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			names := make([]string, nodes)
			for i := range names {
				names[i] = fmt.Sprintf("bn%d", i+1)
			}
			table, err := cluster.NewStaticTable([]protocol.RouteEntry{
				{Group: "bench", Node: names[0], Replicas: names[1:]},
			})
			if err != nil {
				b.Fatal(err)
			}
			net := transport.NewMemNetwork()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, nodes)
			for _, name := range names {
				conn, err := net.Endpoint(name)
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				node, err := cluster.NewNode(cluster.NodeConfig{
					Name: name, Conn: conn, Table: table,
					Groups: []protocol.GroupSpec{{
						ID: "bench", Unified: data,
						Model: &latencyModel{inner: classify.NewKNN(1), cost: predictCost},
					}},
					Service: protocol.ServiceConfig{Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
				go func() { done <- node.Serve(ctx) }()
			}
			cliConn, err := net.Endpoint("cli")
			if err != nil {
				b.Fatal(err)
			}
			defer cliConn.Close()
			client, err := cluster.NewClient(cluster.ClientConfig{
				Conn: cliConn, Seeds: names[:1],
				// Round-robin skew can momentarily stack the whole fleet's
				// in-flight calls on one node; absorb the resulting busy
				// rejections instead of failing the benchmark.
				Backoff: protocol.Backoff{Tries: 12, Base: predictCost / 2, Max: 8 * predictCost},
			})
			if err != nil {
				b.Fatal(err)
			}
			query := data.X[0]
			// Keep enough calls in flight to saturate every node's worker
			// pool even on a single-core runner: RunParallel spawns
			// p×GOMAXPROCS goroutines, and at p<1 falls back to GOMAXPROCS,
			// which already exceeds the in-flight target on wide hosts.
			b.SetParallelism(2 * nodes * workers / runtime.GOMAXPROCS(0))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := client.Classify(ctx, "bench", query); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			throughput := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(throughput, "records/s")
			if nodes == 1 {
				baseline = throughput
			} else if baseline > 0 {
				b.ReportMetric(throughput/baseline, "scale-vs-1node")
			}
			client.Close()
			cancel()
			for range names {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pool, err := sap.GenerateDataset("Iris", 1)
		if err != nil {
			b.Fatal(err)
		}
		parties, err := sap.Split(pool, 3, sap.PartitionUniform, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sap.Run(context.Background(),
			sap.WithParties(parties...),
			sap.WithSeed(3),
			sap.WithOptimizer(2, 1),
		)
		if err != nil {
			b.Fatal(err)
		}
		model := sap.NewKNN(5)
		if err := model.Fit(res.Unified()); err != nil {
			b.Fatal(err)
		}
	}
}
