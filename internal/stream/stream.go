// Package stream perturbs data that arrives incrementally instead of as one
// fixed batch, extending the paper's §2 geometric perturbation
// G(X) = RX + Ψ + Δ to continuous ingestion (in the spirit of multiplicative
// perturbation over data streams; see PAPERS.md, Chhinkaniwala & Garg, who
// perturb each tuple once, on arrival, with one transform).
//
// A Pipeline pulls chunks of clear records from a Source, re-chunks them to
// a configured size, and perturbs each chunk straight into the unified
// target space with G_t(X) = R_t·X + Ψ_t + Δ, so every emitted chunk can be
// appended to a serving miner's unified training set without the miner ever
// seeing clear data. Emission goes through a bounded buffer: a slow consumer
// backpressures the producer instead of growing memory without bound.
//
// Applying G_t directly loses nothing against perturbing in a stream-local
// space G_s and adapting into G_t: by the §3 complementary-noise identity
// the adapted row is R_t·x + Ψ_t + R_t·R_sᵀ·δ, and with R_t·R_sᵀ orthogonal
// and δ iid N(0, σ²) that rotated noise has exactly the distribution of
// fresh σ noise — whatever G_s is. With σ = 0 the concatenated output
// equals the batch transform G_t(X) exactly.
//
// Privacy posture: the miner receives G_t-perturbed records from a named
// provider, so their guarantee is G_t's on that data and the paper's Eq. 1
// applies with source identifiability π = 1, not SAP's 1/(k−1).
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/perturb"
)

// Defaults applied by Config.withDefaults.
const (
	// DefaultChunkSize is the records-per-chunk target when Config.ChunkSize
	// is zero.
	DefaultChunkSize = 256
	// DefaultBufferDepth is the emitted-chunk buffer capacity when
	// Config.BufferDepth is zero.
	DefaultBufferDepth = 4
)

// Errors returned by the streaming pipeline.
var (
	ErrBadConfig = errors.New("stream: bad pipeline configuration")
	ErrDim       = errors.New("stream: record dimension mismatch")
)

// Source yields successive slices of clear, labeled records. Next returns
// io.EOF when the stream ends; any chunk size is accepted (the pipeline
// re-chunks). Implementations need not be safe for concurrent use — the
// pipeline calls Next from a single goroutine.
type Source interface {
	Next(ctx context.Context) (*dataset.Dataset, error)
}

// datasetSource yields one in-memory dataset as a single slice, then EOF.
type datasetSource struct {
	d    *dataset.Dataset
	done bool
}

// DatasetSource adapts an in-memory dataset into a Source, letting batch
// data flow through the streaming pipeline (used by tests, benchmarks and
// the equivalence check between streaming and batch perturbation).
func DatasetSource(d *dataset.Dataset) Source { return &datasetSource{d: d} }

// Next implements Source.
func (s *datasetSource) Next(ctx context.Context) (*dataset.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.done || s.d == nil || s.d.Len() == 0 {
		return nil, io.EOF
	}
	s.done = true
	return s.d, nil
}

// Chunk is one emitted unit of perturbed data, already in the target space.
type Chunk struct {
	// Seq numbers chunks from 0 in emission order.
	Seq int
	// Data holds the perturbed records (target space) with their labels.
	Data *dataset.Dataset
}

// Config assembles a Pipeline.
type Config struct {
	// Target is the unified target perturbation G_t every chunk is
	// perturbed with, carrying the stream's noise σ. Required; it is read,
	// not copied, so it must not change while the pipeline runs.
	Target *perturb.Perturbation
	// Rng drives the noise draws. Required.
	Rng *rand.Rand
	// ChunkSize is the records-per-chunk target (default DefaultChunkSize).
	ChunkSize int
	// BufferDepth is the emitted-chunk buffer capacity (default
	// DefaultBufferDepth). A full buffer blocks the producer.
	BufferDepth int
	// Metrics receives the pipeline's instrumentation under the "stream."
	// namespace: chunks/records emitted and the emitted-chunk buffer
	// occupancy. Nil discards all updates.
	Metrics metrics.Metrics
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.BufferDepth <= 0 {
		c.BufferDepth = DefaultBufferDepth
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Nop()
	}
	return c
}

// Pipeline is one streaming perturbation run. Construct with New, start with
// Run, consume from Out. Records may be read concurrently with a running
// pipeline.
type Pipeline struct {
	cfg     Config
	out     chan Chunk
	records atomic.Int64

	// Instruments, resolved once at construction under the "stream."
	// namespace so the per-chunk cost is a few atomic updates.
	mChunks  metrics.Counter // chunks emitted
	mRecords metrics.Counter // records emitted
	mBuffer  metrics.Gauge   // emitted-chunk buffer occupancy
}

// New validates the configuration and assembles an unstarted pipeline.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == nil {
		return nil, fmt.Errorf("%w: missing target", ErrBadConfig)
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("%w: missing rng", ErrBadConfig)
	}
	p := &Pipeline{
		cfg: cfg,
		out: make(chan Chunk, cfg.BufferDepth),

		mChunks:  cfg.Metrics.Counter("stream.chunks"),
		mRecords: cfg.Metrics.Counter("stream.records"),
	}
	// Buffer occupancy is a property of the emitted-chunk channel, which
	// both the producer and external consumers move: a pushed gauge updated
	// on the producer side alone goes stale the moment a consumer drains.
	// Sinks that support derived gauges read the channel length live at
	// snapshot time instead; for the rest, the producer-side update is the
	// best available approximation. Like every "stream." instrument the
	// name is registry-wide, so the derived gauge follows the most recently
	// constructed pipeline (a finished pipeline reports its drained buffer,
	// 0, until the next pipeline replaces the registration).
	if fg, ok := cfg.Metrics.(metrics.FuncGauges); ok {
		fg.GaugeFunc("stream.buffer_occupancy", func() int64 { return int64(len(p.out)) })
		p.mBuffer = metrics.Nop().Gauge("")
	} else {
		p.mBuffer = cfg.Metrics.Gauge("stream.buffer_occupancy")
	}
	return p, nil
}

// Out returns the emitted-chunk channel. It is closed when Run returns;
// consume until closed, then check Run's error.
func (p *Pipeline) Out() <-chan Chunk { return p.out }

// Records returns the number of records emitted so far.
func (p *Pipeline) Records() int { return int(p.records.Load()) }

// Dim returns the record dimensionality the pipeline accepts.
func (p *Pipeline) Dim() int { return p.cfg.Target.Dim() }

// Run pulls the source dry, perturbing and emitting chunks until the source
// returns io.EOF (nil result), the context is cancelled, or an error occurs.
// It closes Out before returning and must be called at most once.
func (p *Pipeline) Run(ctx context.Context, src Source) error {
	defer close(p.out)
	if src == nil {
		return fmt.Errorf("%w: nil source", ErrBadConfig)
	}
	seq := 0
	// pending accumulates source records until a full chunk is cut. The
	// buffer owns its rows outright — each incoming batch is copied on
	// arrival into one backing array, since a Source is free to reuse its
	// slices between Next calls — and is compacted in place at every cut,
	// so a long stream recycles one bounded slice of row headers instead of
	// marching the slice window through an ever-growing one.
	var pendX [][]float64
	var pendY []int

	flush := func(final bool) error {
		for len(pendX) >= p.cfg.ChunkSize || (final && len(pendX) > 0) {
			n := p.cfg.ChunkSize
			if n > len(pendX) {
				n = len(pendX)
			}
			chunk, err := p.emit(seq, pendX[:n], pendY[:n])
			if err != nil {
				return err
			}
			seq++
			// emit has fully materialized the chunk (target-space copies),
			// so the cut rows can be compacted over.
			pendX = pendX[:copy(pendX, pendX[n:])]
			pendY = pendY[:copy(pendY, pendY[n:])]
			select {
			case p.out <- chunk:
				p.records.Add(int64(chunk.Data.Len()))
				p.mChunks.Inc()
				p.mRecords.Add(int64(chunk.Data.Len()))
				p.mBuffer.Set(int64(len(p.out)))
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}

	for {
		in, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			return flush(true)
		}
		if err != nil {
			return err
		}
		if in == nil || in.Len() == 0 {
			continue
		}
		if in.Dim() != p.Dim() {
			return fmt.Errorf("%w: source chunk dim %d, pipeline dim %d", ErrDim, in.Dim(), p.Dim())
		}
		d := p.Dim()
		rows := make([]float64, len(in.X)*d)
		for i, row := range in.X {
			own := rows[i*d : (i+1)*d : (i+1)*d]
			copy(own, row)
			pendX = append(pendX, own)
		}
		pendY = append(pendY, in.Y...)
		if err := flush(false); err != nil {
			return err
		}
	}
}

// emit perturbs one cut chunk into the target space: G_t(X) with fresh σ
// noise, materialized as a new dataset so the cut rows can be reused.
func (p *Pipeline) emit(seq int, x [][]float64, y []int) (Chunk, error) {
	perturbed, _, err := p.cfg.Target.Apply(p.cfg.Rng, matrix.NewFromRows(x).T())
	if err != nil {
		return Chunk{}, err
	}
	data, err := dataset.New(fmt.Sprintf("stream-chunk-%d", seq), perturbed.Columns(), append([]int(nil), y...))
	if err != nil {
		return Chunk{}, err
	}
	return Chunk{Seq: seq, Data: data}, nil
}
