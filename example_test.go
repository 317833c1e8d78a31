package sap_test

// Godoc examples for the public facade. They are compiled by `go test` and
// kept output-free because the library is deliberately stochastic (every
// API takes a seed, but privacy guarantees are real-valued measurements a
// doc comment should not pin to the last decimal).

import (
	"context"
	"fmt"
	"log"

	sap "repro"
)

// ExampleNew shows the full session lifecycle with the functional-options
// constructor: configure, run SAP, train on the unified perturbed data, and
// classify transformed queries.
func ExampleNew() {
	pool, err := sap.GenerateDataset("Diabetes", 1)
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := sap.TrainTestSplit(pool, 0.3, 2)
	if err != nil {
		log.Fatal(err)
	}
	parties, err := sap.Split(train, 4, sap.PartitionUniform, 3)
	if err != nil {
		log.Fatal(err)
	}

	sess, err := sap.New(
		sap.WithParties(parties...),
		sap.WithSeed(4),
		sap.WithOptimizer(4, 4),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	model := sap.NewKNN(5)
	if err := model.Fit(sess.Unified()); err != nil {
		log.Fatal(err)
	}
	queries, err := sess.TransformForInference(test)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := sap.Accuracy(model, queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy within a few points of the clear baseline: %v\n", acc > 0.5)
}

// ExampleRun shows the one-call entry point plus the serving lifecycle: the
// miner keeps the model online with Session.Serve while a provider queries a
// whole batch in one round trip through a session client.
func ExampleRun() {
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		log.Fatal(err)
	}
	train, holdout, err := sap.TrainTestSplit(pool, 0.3, 2)
	if err != nil {
		log.Fatal(err)
	}
	parties, err := sap.Split(train, 3, sap.PartitionUniform, 3)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sess, err := sap.Run(ctx,
		sap.WithParties(parties...),
		sap.WithSeed(4),
		sap.WithOptimizer(2, 1),
		sap.WithServiceWorkers(2),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Miner side: serve the trained model.
	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		log.Fatal(err)
	}
	defer svcConn.Close()
	serveCtx, stopServe := context.WithCancel(ctx)
	serveDone := make(chan error, 1)
	go func() { serveDone <- sess.Serve(serveCtx, svcConn, sap.NewKNN(5)) }()

	// Provider side: one batched query, one round trip. The client
	// transforms clear records into the target space automatically.
	cliConn, err := net.Endpoint("clinic")
	if err != nil {
		log.Fatal(err)
	}
	defer cliConn.Close()
	client, err := sess.NewClient(cliConn, sap.ClientConfig{Miner: "mining-service"})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	labels, err := client.ClassifyBatch(ctx, holdout.X)
	if err != nil {
		log.Fatal(err)
	}

	stopServe()
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one label per held-out record: %v\n", len(labels) == holdout.Len())
}

// ExampleWithTrustViews serves one group as ordered multi-level trust
// views: the level-1 view answers its inner circle with the unblurred fit,
// the level-2 view answers a wider audience with a model trained under
// noise, and the correlated noise ladder keeps any coalition of views from
// learning more than the least-noisy member alone.
func ExampleWithTrustViews() {
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		log.Fatal(err)
	}
	train, holdout, err := sap.TrainTestSplit(pool, 0.3, 2)
	if err != nil {
		log.Fatal(err)
	}
	parties, err := sap.Split(train, 3, sap.PartitionUniform, 3)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sess, err := sap.Run(ctx,
		sap.WithParties(parties...),
		sap.WithSeed(4),
		sap.WithOptimizer(2, 1),
		sap.WithTrustViews(
			sap.ViewConfig{Level: 1, NoiseSigma: 0, Members: []string{"analyst"}},
			sap.ViewConfig{Level: 2, NoiseSigma: 0.4},
		),
	)
	if err != nil {
		log.Fatal(err)
	}

	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		log.Fatal(err)
	}
	defer svcConn.Close()
	serveCtx, stopServe := context.WithCancel(ctx)
	serveDone := make(chan error, 1)
	go func() { serveDone <- sess.Serve(serveCtx, svcConn, sap.NewKNN(5)) }()

	// The analyst is routed to the unblurred level-1 view; everyone else
	// lands on level 2 (no member list admits any peer).
	cliConn, err := net.Endpoint("analyst")
	if err != nil {
		log.Fatal(err)
	}
	defer cliConn.Close()
	client, err := sess.NewClient(cliConn, sap.ClientConfig{Miner: "mining-service"})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	labels, err := client.ClassifyBatch(ctx, holdout.X)
	if err != nil {
		log.Fatal(err)
	}

	stopServe()
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inner view answered every record: %v\n", len(labels) == holdout.Len())
	// Output: inner view answered every record: true
}

// ExampleSession_Stream shows the local half of continuous ingestion: a
// completed session opens a streaming pipeline that perturbs incrementally
// arriving records into the target space, chunk by chunk, with backpressure.
func ExampleSession_Stream() {
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		log.Fatal(err)
	}
	train, fresh, err := sap.TrainTestSplit(pool, 0.3, 2)
	if err != nil {
		log.Fatal(err)
	}
	parties, err := sap.Split(train, 3, sap.PartitionUniform, 3)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sess, err := sap.Run(ctx,
		sap.WithParties(parties...),
		sap.WithSeed(4),
		sap.WithOptimizer(2, 1),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Stream the freshly collected records: each emitted chunk is already
	// perturbed into the session's target space.
	st, err := sess.Stream(ctx, sap.DatasetSource(fresh), sap.WithChunkSize(16))
	if err != nil {
		log.Fatal(err)
	}
	records := 0
	for chunk := range st.Chunks() {
		records += chunk.Data.Len()
	}
	if err := st.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every fresh record streamed through the pipeline: %v\n", records == fresh.Len())
	// Output: every fresh record streamed through the pipeline: true
}

// Example_streaming shows the full continuous-ingestion deployment: the
// miner serves with a refit cadence while a provider pushes a stream of new
// labeled records into the service's training set with Session.StreamTo.
func Example_streaming() {
	pool, err := sap.GenerateDataset("Iris", 1)
	if err != nil {
		log.Fatal(err)
	}
	train, fresh, err := sap.TrainTestSplit(pool, 0.3, 2)
	if err != nil {
		log.Fatal(err)
	}
	parties, err := sap.Split(train, 3, sap.PartitionUniform, 3)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sess, err := sap.Run(ctx,
		sap.WithParties(parties...),
		sap.WithSeed(4),
		sap.WithOptimizer(2, 1),
		sap.WithServiceRefitEvery(16),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Miner side: keep the model online; it refits every 16 streamed
	// records.
	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		log.Fatal(err)
	}
	defer svcConn.Close()
	serveCtx, stopServe := context.WithCancel(ctx)
	serveDone := make(chan error, 1)
	go func() { serveDone <- sess.Serve(serveCtx, svcConn, sap.NewKNN(5)) }()

	// Provider side: stream the new records into the live service.
	provConn, err := net.Endpoint("lab")
	if err != nil {
		log.Fatal(err)
	}
	defer provConn.Close()
	pushed, err := sess.StreamTo(ctx, provConn, "mining-service",
		sap.DatasetSource(fresh), sap.WithChunkSize(16))
	if err != nil {
		log.Fatal(err)
	}

	stopServe()
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service training set grew by every streamed record: %v\n", pushed == fresh.Len())
	// Output: service training set grew by every streamed record: true
}

// ExampleOptimizePerturbation shows single-party perturbation optimization
// and privacy evaluation under the full attack suite.
func ExampleOptimizePerturbation() {
	data, err := sap.GenerateDataset("Wine", 1)
	if err != nil {
		log.Fatal(err)
	}
	pert, rho, err := sap.OptimizePerturbation(data, 2)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sap.EvaluatePrivacy(data, pert, 3, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer objective and full-suite guarantee are positive: %v\n",
		rho > 0 && report.MinGuarantee > 0)
}

// ExampleRiskSAP evaluates the paper's Equation 2 for a 6-party deployment.
func ExampleRiskSAP() {
	risk, err := sap.RiskSAP(6, 0.9, 0.8, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f\n", risk)
	// Output: 0.200
}

// ExampleMinParties reproduces one point of the paper's Figure 4: the
// minimum number of parties needed when a party with optimality rate 0.89
// demands satisfaction level 0.99.
func ExampleMinParties() {
	k, err := sap.MinParties(0.99, 0.89)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(k)
	// Output: 13
}
