package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	sap "repro"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/perturb"
	"repro/internal/privacy"
	"repro/internal/protocol"
)

const (
	// noiseSigma is sap.Run's default noise component.
	noiseSigma = 0.05
	// testFrac is the share of each profile held out for the accuracy check.
	testFrac = 0.2
	// maxAccuracyDrop is how far target-space KNN accuracy may fall below
	// clear-space accuracy. The worst profile measured over seeds 1–60 lost
	// 11.1 points (Heart, seed 24); the experiment tests allow 20.
	maxAccuracyDrop = 0.15
)

// composeSession makes the calls core.Run makes, in its order and with its
// RNG — one privacy.Optimizer.Optimize per party (dp1..dpk), then
// protocol.RunLocal — timing each under parent. It returns the unified
// training set, the target perturbation and each party's guarantee ρ_i.
func composeSession(ctx context.Context, tr *tracer, parent int, req int64, parts []*dataset.Dataset, seed int64) (*dataset.Dataset, *perturb.Perturbation, []float64, error) {
	opt := privacy.NewOptimizer(privacy.OptimizerConfig{NoiseSigma: noiseSigma})
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]protocol.PartyInput, 0, len(parts))
	guarantees := make([]float64, 0, len(parts))
	for i, d := range parts {
		id := tr.open("privacy.optimize", parent, req)
		p, res, err := opt.Optimize(rng, d.FeaturesT())
		tr.close(id)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("optimize party %d: %w", i, err)
		}
		inputs = append(inputs, protocol.PartyInput{Name: fmt.Sprintf("dp%d", i+1), Data: d, Perturbation: p})
		guarantees = append(guarantees, res.Guarantee)
	}
	id := tr.open("protocol.run_local", parent, req)
	res, err := protocol.RunLocal(ctx, protocol.SessionConfig{Parties: inputs, Seed: seed})
	tr.close(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("protocol.RunLocal: %w", err)
	}
	return res.Unified, res.Target, guarantees, nil
}

// composeAndCompare runs composeSession and checks its unified dataset holds
// exactly the records sap.Run produced: the traced composition must be the
// same computation as the untraced path.
func composeAndCompare(ctx context.Context, tr *tracer, parent int, req int64, parts []*dataset.Dataset, seed int64, want *dataset.Dataset) error {
	got, _, _, err := composeSession(ctx, tr, parent, req, parts, seed)
	if err != nil {
		return err
	}
	if !sameDataset(got, want) {
		return fmt.Errorf("traced session composition diverged from sap.Run's unified dataset")
	}
	return nil
}

// sameDataset reports whether two datasets hold the same bit-identical
// labeled records. Order is not compared: the protocol's miner appends
// submissions as they arrive, so two runs of one session agree on the
// records but not on their order.
func sameDataset(a, b *dataset.Dataset) bool {
	if a.Len() != b.Len() {
		return false
	}
	ka, kb := recordKeys(a), recordKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// recordKeys encodes every labeled record exactly (label and feature bits)
// and sorts the encodings.
func recordKeys(d *dataset.Dataset) []string {
	keys := make([]string, d.Len())
	for i, row := range d.X {
		b := binary.LittleEndian.AppendUint64(nil, uint64(d.Y[i]))
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

// sweepCase is one paper profile's inputs to the session path.
type sweepCase struct {
	name        string
	train, test *dataset.Dataset
	parts       []*dataset.Dataset
	clearAcc    float64
}

// sweepSetup generates every paper profile (from profileSeed) and, from
// seed, holds out its test set and splits the rest across the parties.
func sweepSetup(seed int64) ([]sweepCase, error) {
	var cases []sweepCase
	for _, name := range sap.DatasetNames() {
		d, err := sap.GenerateDataset(name, profileSeed)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		train, test, err := sap.TrainTestSplit(d, testFrac, seed)
		if err != nil {
			return nil, fmt.Errorf("split %s: %w", name, err)
		}
		parts, err := sap.Split(train, sessionK, sap.PartitionUniform, seed)
		if err != nil {
			return nil, fmt.Errorf("partition %s: %w", name, err)
		}
		cases = append(cases, sweepCase{name: name, train: train, test: test, parts: parts})
	}
	return cases, nil
}

// clearAccuracy scores KNN trained and tested in clear space: the baseline
// the target-space model is checked against.
func clearAccuracy(c sweepCase) (float64, error) {
	m := classify.NewKNN(knnK)
	if err := m.Fit(c.train); err != nil {
		return 0, err
	}
	return classify.Accuracy(m, c.test)
}

// sweepProfile runs one profile through the session path — optimize,
// perturb, adapt, unify — then fits KNN on the unified set and checks it.
// Untraced it goes through sap.Run; traced, through composeSession. The
// returned problem is non-empty when a check failed.
func sweepProfile(ctx context.Context, tr *tracer, parent int, req int64, c sweepCase, seed int64, reg *sap.Metrics) (problem string, err error) {
	var (
		unified    *dataset.Dataset
		guarantees []float64
		transform  func(*dataset.Dataset) (*dataset.Dataset, error)
	)
	if tr == nil {
		sess, err := sap.Run(ctx, sap.WithParties(c.parts...), sap.WithSeed(seed), sap.WithMetrics(reg))
		if err != nil {
			return "", fmt.Errorf("%s: sap.Run: %w", c.name, err)
		}
		unified, guarantees, transform = sess.Unified(), sess.LocalGuarantees(), sess.TransformForInference
	} else {
		var target *perturb.Perturbation
		unified, target, guarantees, err = composeSession(ctx, tr, parent, req, c.parts, seed)
		if err != nil {
			return "", fmt.Errorf("%s: %w", c.name, err)
		}
		transform = (&core.PipelineResult{Target: target}).TransformForInference
	}
	if unified.Len() != c.train.Len() {
		return fmt.Sprintf("%s: unified holds %d records, training set %d", c.name, unified.Len(), c.train.Len()), nil
	}
	for i, g := range guarantees {
		if g <= 0 {
			return fmt.Sprintf("%s: party %d guarantee %v ≤ 0", c.name, i+1, g), nil
		}
	}
	var model classify.Classifier = classify.NewKNN(knnK)
	if tr != nil {
		model = &tracedModel{inner: model, t: tr}
	}
	fit := tr.open("session.fit", parent, req)
	err = model.Fit(unified)
	tr.close(fit)
	if err != nil {
		return "", fmt.Errorf("%s: fit: %w", c.name, err)
	}
	check := tr.open("session.check", parent, req)
	defer tr.close(check)
	test, err := transform(c.test)
	if err != nil {
		return "", fmt.Errorf("%s: transform test set: %w", c.name, err)
	}
	acc, err := classify.Accuracy(model, test)
	if err != nil {
		return "", fmt.Errorf("%s: score: %w", c.name, err)
	}
	if acc < c.clearAcc-maxAccuracyDrop {
		return fmt.Sprintf("%s: target-space accuracy %.3f is more than %.0f points below clear-space %.3f",
			c.name, acc, maxAccuracyDrop*100, c.clearAcc), nil
	}
	return "", nil
}

// runSessionSweep is the session-sweep workload: repeated sweeps over the
// twelve paper profiles for the measured time. No serving layer runs.
func runSessionSweep(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	cases, setup, err := setupRepeated(cfg, func() ([]sweepCase, error) { return sweepSetup(cfg.seed) },
		func([]sweepCase) error { return nil })
	if err != nil {
		return nil, err
	}
	o := newOutcome(setup)
	records := 0
	for i := range cases {
		if cases[i].clearAcc, err = clearAccuracy(cases[i]); err != nil {
			return nil, fmt.Errorf("%s: clear-space accuracy: %w", cases[i].name, err)
		}
		records += cases[i].train.Len()
	}
	if tr != nil {
		// The traced sweep replaces sap.Run with its composition; prove once,
		// outside the window, that both compute the same thing.
		for _, c := range cases {
			sess, err := sap.Run(ctx, sap.WithParties(c.parts...), sap.WithSeed(cfg.seed))
			if err != nil {
				return nil, fmt.Errorf("%s: sap.Run: %w", c.name, err)
			}
			verify := tr.open("session.verify", -1, 0)
			err = composeAndCompare(ctx, tr, verify, 0, c.parts, cfg.seed, sess.Unified())
			tr.close(verify)
			o.check(c.name+": traced composition equals sap.Run", err == nil, fmt.Sprint(err))
		}
	}
	reg := sap.NewMetrics()
	var sweeps []time.Duration
	var phase tally
	p0 := sampleProc()
	tr.start()
	start := time.Now()
	deadline := start.Add(cfg.measure)
	for len(sweeps) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		req := int64(len(sweeps) + 1)
		root := tr.open("session.sweep", -1, req)
		for _, c := range cases {
			prof := tr.open("session.profile", root, req)
			problem, err := sweepProfile(ctx, tr, prof, req, c, cfg.seed, reg)
			tr.close(prof)
			phase.record(err, problem != "")
			if err != nil {
				o.problem(err.Error())
			} else if problem != "" {
				o.problem(problem)
			}
		}
		tr.close(root)
		sweeps = append(sweeps, time.Since(t0))
	}
	elapsed := time.Since(start)
	tr.stop()
	p1 := sampleProc()
	o.merge("sweeps", &phase)

	d := newDist(sweeps)
	// The median sweep, not the total, so a slow moment outside the
	// benchmark moves one sweep rather than the result.
	o.e2e["records_per_s"] = float64(records) / (d.p(50) / 1e3)
	o.e2e["latency_p50_ms"] = d.p(50)
	o.layer["client.latency_p90_ms"] = d.p(90)
	o.phase("sweeps of %d profiles for %v: %d sweeps, %d records each; sweep %s",
		len(cases), cfg.measure, len(sweeps), records, describe(d))
	procMetrics(p0, p1, phase.attempted.Load(), o.layer)
	o.layer["client.latency_p99_ms"] = d.p(99)
	o.layer["client.latency_samples"] = float64(len(d))
	if tr != nil {
		modelLayers(o, tr, elapsed)
		sessionLayers(o, tr, "session.sweep")
	}
	return o, nil
}
