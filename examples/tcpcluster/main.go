// Tcpcluster: a full SAP deployment over real TCP sockets with AES-GCM
// encrypted frames, all in one process for demonstration: three data
// providers, a coordinating provider, and the mining service provider, each
// on its own loopback port. The same wiring runs across machines with
// cmd/sapnode.
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	sap "repro"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/transport"
)

const sessionKey = "demo-session-key"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Four banks share a credit-scoring dataset shard each.
	pool, err := sap.GenerateDataset("Credit_a", 1)
	if err != nil {
		return err
	}
	shards, err := sap.Split(pool, 4, sap.PartitionUniform, 2)
	if err != nil {
		return err
	}

	// Bring up one encrypted TCP node per party. bank4 coordinates.
	codec, err := transport.NewAESCodec(sessionKey)
	if err != nil {
		return err
	}
	names := []string{"bank1", "bank2", "bank3", "bank4", "miner"}
	nodes := make(map[string]*transport.TCPNode, len(names))
	for _, name := range names {
		node, err := transport.NewTCPNode(name, "127.0.0.1:0", codec)
		if err != nil {
			return err
		}
		defer node.Close()
		nodes[name] = node
		fmt.Printf("%-6s listening on %s\n", name, node.Addr())
	}
	for _, a := range names {
		for _, b := range names {
			if a != b {
				nodes[a].AddPeer(b, nodes[b].Addr())
			}
		}
	}

	// Each bank optimizes its local perturbation.
	fmt.Println("\noptimizing local perturbations…")
	opt := privacy.NewOptimizer(privacy.OptimizerConfig{Candidates: 6, LocalSteps: 6})
	perts := make([]*sap.Perturbation, 4)
	for i := range shards {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		p, res, err := opt.Optimize(rng, shards[i].FeaturesT())
		if err != nil {
			return err
		}
		perts[i] = p
		fmt.Printf("bank%d local guarantee ρ = %.4f\n", i+1, res.Guarantee)
	}

	// Wire the roles: bank1..3 are providers, bank4 coordinates, miner mines.
	coord, err := protocol.NewCoordinator(nodes["bank4"], protocol.CoordinatorConfig{
		Providers:    []string{"bank1", "bank2", "bank3"},
		Miner:        "miner",
		Data:         shards[3],
		Perturbation: perts[3],
		Rng:          rand.New(rand.NewSource(7)),
	})
	if err != nil {
		return err
	}
	miner, err := protocol.NewMiner(nodes["miner"], protocol.MinerConfig{
		Coordinator: "bank4",
		Parties:     4,
	})
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 3; i++ {
		prov, err := protocol.NewProvider(nodes[names[i]], protocol.ProviderConfig{
			Coordinator:  "bank4",
			Miner:        "miner",
			Data:         shards[i],
			Perturbation: perts[i],
			Rng:          rand.New(rand.NewSource(int64(200 + i))),
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := prov.Run(ctx); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := coord.Run(ctx); err != nil {
			errCh <- err
		}
	}()

	fmt.Println("\nrunning SAP over TCP…")
	res, err := miner.Run(ctx)
	wg.Wait()
	close(errCh)
	if err != nil {
		return err
	}
	for e := range errCh {
		if e != nil {
			return e
		}
	}

	fmt.Printf("miner unified %d records × %d features\n", res.Unified.Len(), res.Unified.Dim())
	fmt.Println("forwarder per slot (all the miner knows about provenance):")
	for _, slot := range slices.Sorted(maps.Keys(res.Submissions)) {
		fmt.Printf("  slot %d ← %s\n", slot, res.Submissions[slot])
	}

	// The miner keeps a model online: the serving phase of the contract.
	// Queries and responses travel over the same AES-sealed TCP links.
	svc, err := protocol.NewMiningService(nodes["miner"], res, sap.NewKNN(5),
		protocol.ServiceConfig{Workers: 4})
	if err != nil {
		return err
	}
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(serveCtx) }()
	fmt.Println("\nmining service online over TCP")

	// bank4 (the coordinator) queries a batch of fresh records. It holds
	// G_t from the run and transforms the queries noiselessly first.
	target := coord.Plan().Target
	queries := shards[3]
	yq, err := target.ApplyNoiseless(queries.FeaturesT())
	if err != nil {
		return err
	}
	batch := yq.Columns()
	client, err := protocol.NewServiceClient(nodes["bank4"], "miner")
	if err != nil {
		return err
	}
	defer client.Close()
	labels, err := client.ClassifyBatch(ctx, batch)
	if err != nil {
		return err
	}
	correct := 0
	for i, label := range labels {
		if label == queries.Y[i] {
			correct++
		}
	}
	fmt.Printf("bank4 classified %d records in one round trip: %d/%d match\n",
		len(labels), correct, len(labels))

	stopServe()
	if err := <-serveDone; err != nil {
		return err
	}
	fmt.Println("service stopped cleanly — done")
	return nil
}
