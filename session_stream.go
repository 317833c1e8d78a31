package sap

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/protocol"
	"repro/internal/stream"
)

// Streaming types, re-exported so stream-fed deployments can be written
// entirely against the facade.
type (
	// StreamSource yields successive slices of clear, labeled records;
	// Next returns io.EOF when the stream ends.
	StreamSource = stream.Source
	// StreamChunk is one emitted unit of perturbed, target-space data.
	StreamChunk = stream.Chunk
)

// Streaming errors, re-exported from the protocol layer.
var (
	// ErrBadChunk flags a malformed stream chunk.
	ErrBadChunk = protocol.ErrBadChunk
	// ErrRefit means a pushed chunk WAS folded into the served training set
	// but the model refresh failed; do not re-push the chunk.
	ErrRefit = protocol.ErrRefit
)

// DatasetSource adapts an in-memory dataset into a StreamSource, letting
// batch data flow through the streaming pipeline.
func DatasetSource(d *Dataset) StreamSource { return stream.DatasetSource(d) }

// streamConfig is the resolved option set of one Session.Stream call.
type streamConfig struct {
	chunkSize int
	buffer    int
}

// StreamOption configures Session.Stream and Session.StreamTo.
type StreamOption func(*streamConfig) error

// WithChunkSize sets the records-per-chunk target of the streaming pipeline
// (default 256). Source slices of any size are re-cut to it.
func WithChunkSize(n int) StreamOption {
	return func(c *streamConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: negative chunk size %d", ErrBadInput, n)
		}
		c.chunkSize = n
		return nil
	}
}

// WithBufferDepth sets the emitted-chunk buffer capacity (default 4). A full
// buffer backpressures the producer instead of growing memory.
func WithBufferDepth(n int) StreamOption {
	return func(c *streamConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: negative buffer depth %d", ErrBadInput, n)
		}
		c.buffer = n
		return nil
	}
}

// streamSeedSalt decorrelates the stream's noise draws from the session's
// protocol randomness while staying deterministic in the seed.
const streamSeedSalt int64 = 0x53_54_52_4d // "STRM"

// Stream is one running streaming-perturbation pipeline, created by
// Session.Stream. Consume Chunks until it closes, then check Err.
type Stream struct {
	pipe *stream.Pipeline

	mu   sync.Mutex
	err  error
	done chan struct{}
}

// Chunks returns the emitted-chunk channel; it closes when the source is
// exhausted, the context is cancelled, or the pipeline fails.
func (st *Stream) Chunks() <-chan StreamChunk { return st.pipe.Out() }

// Err blocks until the pipeline has stopped and returns its terminal error
// (nil after a clean drain).
func (st *Stream) Err() error {
	<-st.done
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Records returns the number of records emitted so far; safe to call while
// the stream is running.
func (st *Stream) Records() int { return st.pipe.Records() }

// Stream opens the continuous-ingestion path of a completed session: it
// perturbs records arriving incrementally from source and emits them as
// target-space chunks, so they can be appended to a serving miner's training
// set (Client.Push) or consumed locally. Each chunk is perturbed directly
// with the session's target perturbation G_t and fresh noise of the
// session's σ, drawn deterministically from the session seed.
//
// Privacy note: the miner receives G_t-perturbed records from a named
// provider, so streamed records carry G_t's guarantee on that data and the
// paper's Eq. 1 applies with source identifiability π = 1 — not the
// 1/(k−1) of SAP's anonymous exchange.
//
// The pipeline runs in a background goroutine owned by the returned Stream;
// cancelling ctx stops it.
func (s *Session) Stream(ctx context.Context, source StreamSource, opts ...StreamOption) (*Stream, error) {
	if err := s.requireRun(); err != nil {
		return nil, err
	}
	var cfg streamConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.streamSeq++
	seq := s.streamSeq
	s.mu.Unlock()
	target := s.Target().Clone()
	target.NoiseSigma = s.cfg.noiseSigma
	pipe, err := stream.New(stream.Config{
		Target:      target,
		Rng:         rand.New(rand.NewSource(s.cfg.seed + streamSeedSalt*seq)),
		ChunkSize:   cfg.chunkSize,
		BufferDepth: cfg.buffer,
		Metrics:     s.cfg.metrics,
	})
	if err != nil {
		return nil, err
	}
	st := &Stream{pipe: pipe, done: make(chan struct{})}
	go func() {
		err := pipe.Run(ctx, source)
		st.mu.Lock()
		st.err = err
		st.mu.Unlock()
		close(st.done)
	}()
	return st, nil
}

// Push streams one target-space chunk into the mining service, which folds
// its records into the served training set and refits on the cadence
// configured with WithServiceRefitEvery. It returns the service's total
// training-set size after the push. A busy rejection (the group's bounded
// ingest queue was full; the chunk did not land) is retried with capped
// exponential backoff before ErrBusy is surfaced. Safe for concurrent use.
func (c *Client) Push(ctx context.Context, chunk StreamChunk) (int, error) {
	if chunk.Data == nil || chunk.Data.Len() == 0 {
		return 0, fmt.Errorf("%w: empty chunk", ErrBadChunk)
	}
	return c.inner.PushChunk(ctx, chunk.Data.X, chunk.Data.Y)
}

// StreamTo is the one-call provider side of continuous ingestion: it runs a
// streaming pipeline over source and pushes every emitted chunk into the
// mining service named miner over conn, returning the number of records
// delivered. The stream options tune the pipeline exactly as in
// Session.Stream.
//
// An ErrRefit from the service is not fatal: the chunk was folded into the
// training set (it counts toward the returned total) and streaming
// continues — but the served model may lag the training set, so the last
// such failure is returned alongside the full count after the source
// drains.
func (s *Session) StreamTo(ctx context.Context, conn Conn, miner string, source StreamSource, opts ...StreamOption) (int, error) {
	client, err := s.NewClient(conn, ClientConfig{Miner: miner})
	if err != nil {
		return 0, err
	}
	defer client.Close()
	// The pipeline gets its own cancellable context so an early return (a
	// rejected push) stops the producer goroutine instead of leaving it
	// blocked on the bounded buffer forever.
	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	st, err := s.Stream(streamCtx, source, opts...)
	if err != nil {
		return 0, err
	}
	pushed := 0
	var refitErr error
	for chunk := range st.Chunks() {
		_, err := client.Push(ctx, chunk)
		switch {
		case errors.Is(err, ErrRefit):
			// The chunk landed; only the model refresh failed. Keep
			// streaming (the next cadence may refit cleanly) and surface
			// the most recent refit failure at the end.
			refitErr = err
		case err != nil:
			return pushed, err
		}
		pushed += chunk.Data.Len()
	}
	if err := st.Err(); err != nil {
		return pushed, err
	}
	return pushed, refitErr
}
