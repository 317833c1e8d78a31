package stream

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/perturb"
)

// mkData builds an n×d labeled dataset with per-dimension offsets so its
// covariance is non-trivial.
func mkData(t *testing.T, rng *rand.Rand, name string, n, d int, shift float64) *dataset.Dataset {
	t.Helper()
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = shift + rng.NormFloat64()*(1+float64(j))
		}
		x[i] = row
		y[i] = i % 3
	}
	ds, err := dataset.New(name, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mkPipeline(t *testing.T, rng *rand.Rand, d int, sigma float64, cfg Config) *Pipeline {
	t.Helper()
	if cfg.Target == nil {
		target, err := perturb.NewRandom(rng, d, sigma)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Target = target
	}
	if cfg.Rng == nil {
		cfg.Rng = rng
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drain runs the pipeline over src and collects every chunk.
func drain(t *testing.T, p *Pipeline, src Source) ([]Chunk, error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- p.Run(context.Background(), src) }()
	var chunks []Chunk
	for c := range p.Out() {
		chunks = append(chunks, c)
	}
	return chunks, <-errc
}

// TestStreamMatchesBatchNoiseless is the acceptance contract: with σ = 0,
// the concatenated streamed output must equal the batch target transform
// G_t(X) exactly (well within 1e-9).
func TestStreamMatchesBatchNoiseless(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := mkData(t, rng, "equiv", 503, 5, 0)
	p := mkPipeline(t, rng, 5, 0, Config{ChunkSize: 64})

	chunks, err := drain(t, p, DatasetSource(data))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := p.cfg.Target.ApplyNoiseless(data.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	got := matrix.New(want.Rows(), 0)
	total := 0
	for i, c := range chunks {
		if c.Seq != i {
			t.Fatalf("chunk %d has Seq %d", i, c.Seq)
		}
		total += c.Data.Len()
		got = got.Augment(c.Data.FeaturesT())
	}
	if total != data.Len() {
		t.Fatalf("streamed %d records, want %d", total, data.Len())
	}
	if p.Records() != data.Len() {
		t.Fatalf("Records() = %d, want %d", p.Records(), data.Len())
	}
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("streamed output diverged from batch transform: max delta %v",
			got.Sub(want).MaxAbs())
	}
	// Labels must ride along untouched.
	off := 0
	for _, c := range chunks {
		for i, y := range c.Data.Y {
			if y != data.Y[off+i] {
				t.Fatalf("label %d mutated in flight", off+i)
			}
		}
		off += c.Data.Len()
	}
}

// TestStreamChunking checks the re-chunking contract: a source yielding
// irregular slices comes out re-cut to ChunkSize with one final partial
// chunk.
func TestStreamChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pieces := []*dataset.Dataset{
		mkData(t, rng, "a", 10, 3, 0),
		mkData(t, rng, "b", 57, 3, 0),
		mkData(t, rng, "c", 3, 3, 0),
	}
	p := mkPipeline(t, rng, 3, 0.05, Config{ChunkSize: 16})
	chunks, err := drain(t, p, &sliceSource{parts: pieces})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, c := range chunks {
		if i < len(chunks)-1 && c.Data.Len() != 16 {
			t.Fatalf("chunk %d has %d records, want full 16", i, c.Data.Len())
		}
		total += c.Data.Len()
	}
	if total != 70 {
		t.Fatalf("streamed %d records, want 70", total)
	}
	if last := chunks[len(chunks)-1].Data.Len(); last != 70%16 {
		t.Fatalf("final partial chunk has %d records, want %d", last, 70%16)
	}
}

// sliceSource yields a fixed sequence of datasets.
type sliceSource struct {
	parts []*dataset.Dataset
	i     int
}

func (s *sliceSource) Next(ctx context.Context) (*dataset.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= len(s.parts) {
		return nil, io.EOF
	}
	d := s.parts[s.i]
	s.i++
	return d, nil
}

// TestStreamBackpressure checks the bounded buffer: with no consumer, the
// producer must stall after filling BufferDepth chunks instead of buffering
// the whole stream.
func TestStreamBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := mkData(t, rng, "big", 400, 3, 0)
	p := mkPipeline(t, rng, 3, 0, Config{ChunkSize: 10, BufferDepth: 2})

	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background(), DatasetSource(data)) }()

	// Give the producer time to run ahead; it may complete at most
	// BufferDepth buffered chunks + one blocked in the send.
	time.Sleep(50 * time.Millisecond)
	if got := p.Records(); got > 30 {
		t.Fatalf("producer emitted %d records with no consumer (buffer depth 2, chunk 10)", got)
	}
	for range p.Out() {
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Records() != 400 {
		t.Fatalf("Records() = %d after drain, want 400", p.Records())
	}
}

// TestStreamCancel checks that cancelling the context unblocks a
// backpressured producer and surfaces context.Canceled.
func TestStreamCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := mkData(t, rng, "big", 400, 3, 0)
	p := mkPipeline(t, rng, 3, 0, Config{ChunkSize: 10, BufferDepth: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx, DatasetSource(data)) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled producer never returned")
	}
}

// TestStreamDimMismatch checks that a source chunk of the wrong width kills
// the run with ErrDim.
func TestStreamDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := mkPipeline(t, rng, 3, 0, Config{})
	wrong := mkData(t, rng, "wrong", 8, 5, 0)
	_, err := drain(t, p, DatasetSource(wrong))
	if !errors.Is(err, ErrDim) {
		t.Fatalf("got %v, want ErrDim", err)
	}
}

// TestStreamConfigValidation exercises New's rejection paths.
func TestStreamConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	target, err := perturb.NewRandom(rng, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Rng: rng},       // missing target
		{Target: target}, // missing rng
	}
	for i, cfg := range cases {
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("case %d: got %v, want ErrBadConfig", i, err)
		}
	}
	// Nil source is rejected by Run.
	p, err := New(Config{Target: target, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil source: got %v, want ErrBadConfig", err)
	}
}

// TestStreamMetrics checks the pipeline's instrumentation: every emitted
// chunk and record is counted, and the buffer gauge is bounded by the
// configured depth.
func TestStreamMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	calm := mkData(t, rng, "calm", 200, 4, 0)
	shifted := mkData(t, rng, "shifted", 200, 4, 25)

	reg := metrics.NewRegistry()
	p := mkPipeline(t, rng, 4, 0, Config{ChunkSize: 32, Metrics: reg})
	chunks, err := drain(t, p, &sliceSource{parts: []*dataset.Dataset{calm, shifted}})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["stream.chunks"]; got != int64(len(chunks)) {
		t.Fatalf("stream.chunks = %d, want %d", got, len(chunks))
	}
	if got := snap.Counters["stream.records"]; got != int64(calm.Len()+shifted.Len()) {
		t.Fatalf("stream.records = %d, want %d", got, calm.Len()+shifted.Len())
	}
	if depth := snap.Gauges["stream.buffer_occupancy"]; depth < 0 || depth > DefaultBufferDepth {
		t.Fatalf("stream.buffer_occupancy = %d, want within [0,%d]", depth, DefaultBufferDepth)
	}
}

// reusingSource yields rows through ONE reused backing buffer, the way an
// IO-backed source would recycle its read buffer between Next calls. The
// pipeline must copy rows on arrival: records pending across Next calls
// would otherwise alias memory the source is about to overwrite.
type reusingSource struct {
	rows  [][]float64 // all records, immutable reference copy
	buf   *dataset.Dataset
	i, by int
}

func newReusingSource(t *testing.T, rows [][]float64, by int) *reusingSource {
	t.Helper()
	bufRows := make([][]float64, by)
	for i := range bufRows {
		bufRows[i] = make([]float64, len(rows[0]))
	}
	buf, err := dataset.New("reused", bufRows, make([]int, by))
	if err != nil {
		t.Fatal(err)
	}
	return &reusingSource{rows: rows, buf: buf, by: by}
}

func (s *reusingSource) Next(ctx context.Context) (*dataset.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.i >= len(s.rows) {
		// Poison the shared buffer one last time: any aliased pending row
		// would emit this garbage instead of its real values.
		for _, row := range s.buf.X {
			for j := range row {
				row[j] = -1e9
			}
		}
		return nil, io.EOF
	}
	n := s.by
	if n > len(s.rows)-s.i {
		n = len(s.rows) - s.i
	}
	for r := 0; r < n; r++ {
		copy(s.buf.X[r], s.rows[s.i+r])
		s.buf.Y[r] = (s.i + r) % 3
	}
	s.i += n
	return &dataset.Dataset{Name: "reused", X: s.buf.X[:n], Y: s.buf.Y[:n]}, nil
}

// TestPendingBufferOwnsItsRows streams through a buffer-reusing source with
// a chunk size that forces records to sit pending across Next calls, and
// checks the emitted output still equals the batch transform exactly — the
// regression test for the pending buffer aliasing source-owned memory.
func TestPendingBufferOwnsItsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := mkData(t, rng, "aliased", 101, 3, 0)
	p := mkPipeline(t, rng, 3, 0, Config{ChunkSize: 16})

	// Yield 7 rows per Next against a chunk size of 16: every chunk spans
	// multiple source batches, so pending rows survive buffer reuse.
	chunks, err := drain(t, p, newReusingSource(t, data.X, 7))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := p.cfg.Target.ApplyNoiseless(data.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	got := matrix.New(want.Rows(), 0)
	for _, c := range chunks {
		got = got.Augment(c.Data.FeaturesT())
	}
	if got.Cols() != data.Len() {
		t.Fatalf("streamed %d records, want %d", got.Cols(), data.Len())
	}
	if !got.EqualApprox(want, 1e-9) {
		t.Fatalf("streamed output diverged from batch transform (pending rows aliased the source buffer): max delta %v",
			got.Sub(want).MaxAbs())
	}
}

// TestBufferOccupancyDerivedAtSnapshot checks the emitted-chunk buffer gauge
// is read live from the channel at snapshot time: a full buffer reports its
// depth, and a drained buffer reports zero — the producer-side-only gauge
// used to stay stuck at its last emission value forever.
func TestBufferOccupancyDerivedAtSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := mkData(t, rng, "gauge", 200, 3, 0)
	reg := metrics.NewRegistry()
	p := mkPipeline(t, rng, 3, 0, Config{ChunkSize: 16, BufferDepth: 2, Metrics: reg})

	errc := make(chan error, 1)
	go func() { errc <- p.Run(context.Background(), DatasetSource(data)) }()

	// With no consumer, the producer fills the buffer and blocks on the
	// next emission; the gauge must report the genuine occupancy.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Gauges["stream.buffer_occupancy"] != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stream.buffer_occupancy = %d, want 2 (full buffer)",
				reg.Snapshot().Gauges["stream.buffer_occupancy"])
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Drain everything: the gauge must fall back to zero, not stay stuck
	// at the producer's last push-side value.
	for range p.Out() {
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["stream.buffer_occupancy"]; got != 0 {
		t.Fatalf("stream.buffer_occupancy after drain = %d, want 0", got)
	}
}
