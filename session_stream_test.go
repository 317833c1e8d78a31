package sap_test

// Facade tests for the streaming ingestion path: Session.Stream,
// Session.StreamTo and Client.Push. The equivalence test is the PR's
// acceptance criterion — streaming must be statistically indistinguishable
// from batch perturbation.

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	sap "repro"
	"repro/internal/matrix"
	"repro/internal/stat"
)

// streamSession runs a small noiseless session so streamed output can be
// compared against the batch transform exactly.
func streamSession(t *testing.T, opts ...sap.Option) (*sap.Session, *sap.Dataset) {
	t.Helper()
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	train, holdout, err := sap.TrainTestSplit(pool, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := sap.Split(train, 3, sap.PartitionUniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sap.Run(context.Background(), append([]sap.Option{
		sap.WithParties(parties...),
		sap.WithSeed(4),
		sap.WithOptimizer(2, 1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sess, holdout
}

// TestStreamEquivalentToBatch checks the acceptance criterion: with σ = 0,
// the covariance of the streamed output matches the covariance of the
// batch-perturbed data within 1e-9 (here the records themselves match
// exactly).
func TestStreamEquivalentToBatch(t *testing.T) {
	sess, holdout := streamSession(t, sap.WithNoiseSigma(0))

	st, err := sess.Stream(context.Background(), sap.DatasetSource(holdout),
		sap.WithChunkSize(7))
	if err != nil {
		t.Fatal(err)
	}
	streamed := matrix.New(holdout.Dim(), 0)
	for chunk := range st.Chunks() {
		streamed = streamed.Augment(chunk.Data.FeaturesT())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if st.Records() != holdout.Len() {
		t.Fatalf("Records() = %d, want %d", st.Records(), holdout.Len())
	}

	batch, err := sess.Target().ApplyNoiseless(holdout.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	covStream, err := stat.CovarianceMatrix(streamed)
	if err != nil {
		t.Fatal(err)
	}
	covBatch, err := stat.CovarianceMatrix(batch)
	if err != nil {
		t.Fatal(err)
	}
	if delta := covStream.Sub(covBatch).MaxAbs(); delta >= 1e-9 {
		t.Fatalf("stream/batch covariance delta = %v, want < 1e-9", delta)
	}
	if !streamed.EqualApprox(batch, 1e-9) {
		t.Fatalf("streamed records diverged from batch transform: max delta %v",
			streamed.Sub(batch).MaxAbs())
	}
}

// TestStreamToGrowsService streams a labeled holdout into a serving miner
// and checks the records land in the served training set.
func TestStreamToGrowsService(t *testing.T) {
	sess, holdout := streamSession(t, sap.WithServiceRefitEvery(16))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		t.Fatal(err)
	}
	defer svcConn.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- sess.Serve(ctx, svcConn, sap.NewKNN(5)) }()

	provConn, err := net.Endpoint("provider")
	if err != nil {
		t.Fatal(err)
	}
	defer provConn.Close()
	pushed, err := sess.StreamTo(ctx, provConn, "mining-service",
		sap.DatasetSource(holdout), sap.WithChunkSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if pushed != holdout.Len() {
		t.Fatalf("pushed %d records, want %d", pushed, holdout.Len())
	}

	// The service keeps serving after ingest.
	cliConn, err := net.Endpoint("clinic")
	if err != nil {
		t.Fatal(err)
	}
	defer cliConn.Close()
	client, err := sess.NewClient(cliConn, sap.ClientConfig{Miner: "mining-service"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	labels, err := client.ClassifyBatch(ctx, holdout.X[:5])
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 5 {
		t.Fatalf("got %d labels, want 5", len(labels))
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestStreamToPushRejected checks the early-return path of StreamTo: when
// the service rejects a chunk, StreamTo surfaces the typed error (and its
// cancellable pipeline context keeps the producer goroutine from leaking —
// exercised under -race).
func TestStreamToPushRejected(t *testing.T) {
	sess, holdout := streamSession(t, sap.WithServiceMaxBatch(4))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		t.Fatal(err)
	}
	defer svcConn.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- sess.Serve(ctx, svcConn, sap.NewKNN(5)) }()

	provConn, err := net.Endpoint("provider")
	if err != nil {
		t.Fatal(err)
	}
	defer provConn.Close()
	// Chunks of 8 against a service cap of 4: the first push is rejected.
	pushed, err := sess.StreamTo(ctx, provConn, "mining-service",
		sap.DatasetSource(holdout), sap.WithChunkSize(8))
	if !errors.Is(err, sap.ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if pushed != 0 {
		t.Fatalf("pushed = %d after first-chunk rejection, want 0", pushed)
	}

	cancel()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestStreamBeforeRun checks that streaming requires a completed session.
func TestStreamBeforeRun(t *testing.T) {
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := sap.Split(pool, 3, sap.PartitionUniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sap.New(sap.WithParties(parties...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stream(context.Background(), sap.DatasetSource(pool)); !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("Stream before Run: %v, want ErrBadInput", err)
	}
}

// TestStreamOptionValidation exercises the stream-option rejection paths.
func TestStreamOptionValidation(t *testing.T) {
	sess, holdout := streamSession(t)
	ctx := context.Background()
	cases := []sap.StreamOption{
		sap.WithChunkSize(-1),
		sap.WithBufferDepth(-2),
	}
	for i, opt := range cases {
		if _, err := sess.Stream(ctx, sap.DatasetSource(holdout), opt); !errors.Is(err, sap.ErrBadInput) {
			t.Fatalf("case %d: %v, want ErrBadInput", i, err)
		}
	}
}

// errSource fails after its first yield, checking error propagation through
// Stream.Err and StreamTo.
type errSource struct {
	d    *sap.Dataset
	sent bool
}

var errBoom = errors.New("boom")

func (s *errSource) Next(ctx context.Context) (*sap.Dataset, error) {
	if s.sent {
		return nil, errBoom
	}
	s.sent = true
	return s.d, nil
}

// TestStreamSourceError checks a failing source surfaces through Err after
// the emitted chunks drain.
func TestStreamSourceError(t *testing.T) {
	sess, holdout := streamSession(t)
	st, err := sess.Stream(context.Background(), &errSource{d: holdout},
		sap.WithChunkSize(16))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for chunk := range st.Chunks() {
		got += chunk.Data.Len()
	}
	if err := st.Err(); !errors.Is(err, errBoom) {
		t.Fatalf("Err() = %v, want the source error", err)
	}
	// Everything yielded before the failure that filled whole chunks was
	// still delivered.
	if got == 0 {
		t.Fatal("no chunks delivered before the source error")
	}
}

// TestDatasetSourceEOF checks the dataset adaptor yields once then ends.
func TestDatasetSourceEOF(t *testing.T) {
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		t.Fatal(err)
	}
	src := sap.DatasetSource(pool)
	ctx := context.Background()
	if d, err := src.Next(ctx); err != nil || d.Len() != pool.Len() {
		t.Fatalf("first Next: %v, %v", d, err)
	}
	if _, err := src.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("second Next: %v, want io.EOF", err)
	}
}

// TestStreamResidualDistribution pins what a streamed record is, by
// distribution: y = R_t·x + Ψ_t + ε with ε iid N(0, σ²) per coordinate. It
// checks the residuals y − (R_t·x + Ψ_t) over 100k records — per-coordinate
// variance within 3% of σ², every cross-covariance within 5σ²/√n — so any
// change to how the stream draws its transforms must leave the miner's input
// distributed exactly as fresh-noise target-space records.
func TestStreamResidualDistribution(t *testing.T) {
	const (
		sigma = 0.1
		n     = 100_000
	)
	sess, _ := streamSession(t, sap.WithNoiseSigma(sigma))
	d := sess.Target().Dim()
	rng := rand.New(rand.NewSource(21))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = i % 3
	}
	data, err := sap.NewDataset("gauss", x, y)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stream(context.Background(), sap.DatasetSource(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Target().ApplyNoiseless(data.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate residual sums and cross-products in streaming order.
	sum := make([]float64, d)
	prod := make([][]float64, d)
	for i := range prod {
		prod[i] = make([]float64, d)
	}
	res := make([]float64, d)
	off := 0
	for chunk := range st.Chunks() {
		for r, row := range chunk.Data.X {
			for j := range res {
				res[j] = row[j] - want.At(j, off+r)
				sum[j] += res[j]
			}
			for a := range res {
				for b := range res {
					prod[a][b] += res[a] * res[b]
				}
			}
		}
		off += chunk.Data.Len()
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if off != n {
		t.Fatalf("streamed %d records, want %d", off, n)
	}
	want2 := sigma * sigma
	crossTol := 5 * want2 / math.Sqrt(n)
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			cov := (prod[a][b] - sum[a]*sum[b]/n) / (n - 1)
			if a == b {
				if rel := math.Abs(cov-want2) / want2; rel > 0.03 {
					t.Errorf("residual variance of coordinate %d = %.6g, want σ² = %.6g within 3%% (off by %.2f%%)",
						a, cov, want2, 100*rel)
				}
				continue
			}
			if math.Abs(cov) > crossTol {
				t.Errorf("residual cross-covariance (%d,%d) = %.3g, want |cov| ≤ 5σ²/√n = %.3g", a, b, cov, crossTol)
			}
		}
	}
}
