package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	sap "repro"
	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// The serving workloads' fixed shape.
const (
	servedProfile = "Shuttle"
	baseRecords   = 2000 // the session's training set
	heldOut       = 512  // clear-space queries, never trained on
	sessionK      = 5    // parties
	knnK          = 5
	aesKey        = "sapbench"
	minerName     = "miner"
	clientCount   = 2
)

// profileSeed fixes the synthetic profiles' distributions (class means,
// scales, mixing), so runs on different -seed values compare like with like:
// the run seed draws which records each role gets, the party splits, the
// perturbations and the stream, not a different population. Across seeds
// 1–12 the distribution alone moved a session sweep between 0.90 and 1.17 s.
const profileSeed = 1

// shuttleData draws the serving workloads' inputs from seed: the base
// training set, the held-out queries and, when streamN > 0, that many fresh
// records for the ingest stream. All three are drawn without overlap from
// one Shuttle-profile population and scaled by the normalizer fitted on the
// base set.
func shuttleData(seed int64, streamN int) (base, held, stream *dataset.Dataset, err error) {
	p, err := dataset.ProfileByName(servedProfile)
	if err != nil {
		return nil, nil, nil, err
	}
	p.N = baseRecords + heldOut + streamN
	pool, err := dataset.Generate(p, rand.New(rand.NewSource(profileSeed)))
	if err != nil {
		return nil, nil, nil, err
	}
	pool = pool.Shuffled(rand.New(rand.NewSource(seed)))
	cut := func(from, to int) *dataset.Dataset {
		return &dataset.Dataset{Name: pool.Name, X: pool.X[from:to], Y: pool.Y[from:to]}
	}
	norm, err := dataset.FitNormalizer(cut(0, baseRecords))
	if err != nil {
		return nil, nil, nil, err
	}
	if base, err = norm.Apply(cut(0, baseRecords)); err != nil {
		return nil, nil, nil, err
	}
	if held, err = norm.Apply(cut(baseRecords, baseRecords+heldOut)); err != nil {
		return nil, nil, nil, err
	}
	if streamN > 0 {
		if stream, err = norm.Apply(cut(baseRecords+heldOut, p.N)); err != nil {
			return nil, nil, nil, err
		}
	}
	return base, held, stream, nil
}

// serving is one stood-up serving stack: a completed session served over
// loopback TCP with AES-GCM frames — the stack cmd/sapnode runs — plus the
// reference answers the benchmark checks served labels against.
type serving struct {
	sess    *sap.Session
	reg     *sap.Metrics
	base    *dataset.Dataset
	held    *dataset.Dataset // clear-space queries
	want    []int            // reference label of each held-out query
	stream  *dataset.Dataset // fresh records for the ingest workload
	first   int              // the label of the first classify after set-up
	nodes   []*transport.TCPNode
	clients []*sap.Client
	stop    context.CancelFunc
	served  chan error
}

// setupServing runs one complete set-up: data generation, the SAP session
// (sap.Run), the reference labels, the serving stack, and a first classify,
// whose label the caller checks. With a tracer, it also times the session's
// composition call by call and checks it reproduces sap.Run exactly.
func setupServing(ctx context.Context, cfg runConfig, tr *tracer, streamN int) (*serving, error) {
	base, held, stream, err := shuttleData(cfg.seed, streamN)
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	parts, err := sap.Split(base, sessionK, sap.PartitionUniform, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("split parties: %w", err)
	}
	reg := sap.NewMetrics()
	sess, err := sap.Run(ctx, sap.WithParties(parts...), sap.WithSeed(cfg.seed), sap.WithMetrics(reg))
	if err != nil {
		return nil, fmt.Errorf("sap.Run: %w", err)
	}
	root := tr.open("session.setup", -1, 0)
	if tr != nil {
		if err := composeAndCompare(ctx, tr, root, 0, parts, cfg.seed, sess.Unified()); err != nil {
			return nil, err
		}
	}
	want, err := referenceLabels(tr, root, sess, sess.Unified(), held)
	tr.close(root)
	if err != nil {
		return nil, err
	}
	s := &serving{sess: sess, reg: reg, base: base, held: held, want: want, stream: stream}
	if err := s.start(cfg, tr); err != nil {
		s.close()
		return nil, err
	}
	if s.first, err = s.clients[0].Classify(ctx, held.X[0]); err != nil {
		s.close()
		return nil, fmt.Errorf("first classify: %w", err)
	}
	return s, nil
}

// referenceLabels fits a local KNN on the training set and labels the
// held-out queries in the session's target space: the answers every served
// classify must match.
func referenceLabels(tr *tracer, parent int, sess *sap.Session, train, held *dataset.Dataset) ([]int, error) {
	fit := tr.open("session.fit", parent, 0)
	ref := classify.NewKNN(knnK)
	err := ref.Fit(train)
	tr.close(fit)
	if err != nil {
		return nil, fmt.Errorf("reference fit: %w", err)
	}
	check := tr.open("session.check", parent, 0)
	defer tr.close(check)
	queries, err := sess.TransformForInference(held)
	if err != nil {
		return nil, fmt.Errorf("transform queries: %w", err)
	}
	want := make([]int, queries.Len())
	for i, q := range queries.X {
		if want[i], err = ref.Predict(q); err != nil {
			return nil, fmt.Errorf("reference predict: %w", err)
		}
	}
	return want, nil
}

// start stands the miner and the client endpoints up and starts serving a
// fresh KNN.
func (s *serving) start(cfg runConfig, tr *tracer) error {
	node := func(name string, server bool) (*transport.TCPNode, error) {
		aes, err := transport.NewAESCodec(aesKey)
		if err != nil {
			return nil, err
		}
		var codec transport.Codec = aes
		if tr != nil {
			codec = &tracedCodec{inner: aes, t: tr, server: server}
		}
		n, err := transport.NewTCPNode(name, "127.0.0.1:0", codec)
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		return n, nil
	}
	conn := func(n *transport.TCPNode, server bool) transport.Conn {
		if tr == nil {
			return n
		}
		return &tracedConn{Conn: n, t: tr, server: server}
	}
	miner, err := node(minerName, true)
	if err != nil {
		return err
	}
	var model classify.Classifier = classify.NewKNN(knnK)
	if cfg.wrapModel != nil {
		model = cfg.wrapModel(model)
	}
	if tr != nil {
		model = &tracedModel{inner: model, t: tr}
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	s.served = make(chan error, 1)
	go func() { s.served <- s.sess.Serve(ctx, conn(miner, true), model) }()
	for i := 1; i <= clientCount; i++ {
		n, err := node(fmt.Sprintf("client%d", i), false)
		if err != nil {
			return err
		}
		n.AddPeer(minerName, miner.Addr())
		miner.AddPeer(n.Name(), n.Addr())
		c, err := s.sess.NewClient(conn(n, false), sap.ClientConfig{Miner: minerName})
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// close stops serving and releases every endpoint, waiting for the service
// to return.
func (s *serving) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	var err error
	if s.stop != nil {
		s.stop()
		err = <-s.served
	}
	for _, n := range s.nodes {
		n.Close()
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// setupRepeated runs a workload's set-up cfg.setups times, closing all but
// the last, and returns the last with the median set-up time: set-up time is
// gated, so it is measured several times per run.
func setupRepeated[T any](cfg runConfig, setup func() (T, error), closeFn func(T) error) (T, float64, error) {
	var last T
	times := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			if err := closeFn(v); err != nil {
				return last, 0, err
			}
		}
		last = v
	}
	return last, median(times), nil
}

// registryDelta reads the serving group's instruments at one phase boundary.
type registryDelta struct {
	requests, ingested, refits, refitNs, busy int64
	batchN, batchSum                          int64
}

func readRegistry(reg *sap.Metrics) registryDelta {
	snap := reg.Snapshot()
	ns := "service." + sap.DefaultGroupID + "."
	refit := snap.Histograms[ns+"refit.ns"]
	batch := snap.Histograms[ns+"batch_size"]
	return registryDelta{
		requests: snap.Counters[ns+"requests"],
		ingested: snap.Counters[ns+"ingest.records"],
		refits:   snap.Counters[ns+"refit.count"],
		refitNs:  refit.Sum,
		busy:     snap.Counters[ns+"rejects.busy"],
		batchN:   batch.Count,
		batchSum: batch.Sum,
	}
}

func (d registryDelta) sub(o registryDelta) registryDelta {
	return registryDelta{
		requests: d.requests - o.requests,
		ingested: d.ingested - o.ingested,
		refits:   d.refits - o.refits,
		refitNs:  d.refitNs - o.refitNs,
		busy:     d.busy - o.busy,
		batchN:   d.batchN - o.batchN,
		batchSum: d.batchSum - o.batchSum,
	}
}
