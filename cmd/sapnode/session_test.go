package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// freePorts reserves n distinct loopback ports by briefly listening on :0.
// There is a small window between Close and the daemon's Listen, acceptable
// for a test.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// startRun runs one sapnode invocation on its own goroutine. The returned
// stop func cancels the invocation and returns run's error once run has
// returned, so a serving miner ends as soon as its test's client side is
// done instead of when its -serve window closes.
func startRun(t *testing.T, args []string) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	return func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(20 * time.Second):
			return errors.New("run did not return after its context was cancelled")
		}
	}
}

// TestFullSessionOverTCP drives four sapnode processes' worth of roles
// (miner, coordinator, two providers) through the exported run() entry
// point, end to end over loopback TCP with AES-sealed frames.
func TestFullSessionOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon session")
	}
	dir := t.TempDir()
	shards := makeShards(t, dir, 3)
	ports := freePorts(t, 4)
	minerAddr, coordAddr, p1Addr, p2Addr := ports[0], ports[1], ports[2], ports[3]
	outCSV := filepath.Join(dir, "unified.csv")

	peerList := func(self string) string {
		pairs := []string{}
		all := map[string]string{"miner": minerAddr, "coord": coordAddr, "dp1": p1Addr, "dp2": p2Addr}
		for name, addr := range all {
			if name != self {
				pairs = append(pairs, name+"="+addr)
			}
		}
		return strings.Join(pairs, ",")
	}
	common := []string{"-key", "test-session", "-candidates", "2", "-steps", "1",
		"-seed", "7", "-timeout", "60s"}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	launch := func(args []string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(context.Background(), append(args, common...)); err != nil {
				errs <- err
			}
		}()
	}
	// The miner stays online as a mining service after unification; dp1
	// classifies its own shard through it the moment its protocol role
	// completes — exercising the stash path for queries that race the tail
	// of the run. The miner stops once every other role is done.
	stopMiner := startRun(t, append([]string{"-role", "miner", "-name", "miner", "-listen", minerAddr,
		"-coordinator", "coord", "-parties", "3", "-peers", peerList("miner"), "-out", outCSV,
		"-serve", "60s", "-model", "knn", "-workers", "2"}, common...))
	launch([]string{"-role", "coordinator", "-name", "coord", "-listen", coordAddr,
		"-data", shards[2], "-providers", "dp1,dp2", "-miner", "miner", "-peers", peerList("coord")})
	launch([]string{"-role", "provider", "-name", "dp1", "-listen", p1Addr,
		"-data", shards[0], "-coordinator", "coord", "-miner", "miner", "-peers", peerList("dp1"),
		"-query", shards[0], "-batch", "16"})
	launch([]string{"-role", "provider", "-name", "dp2", "-listen", p2Addr,
		"-data", shards[1], "-coordinator", "coord", "-miner", "miner", "-peers", peerList("dp2")})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := stopMiner(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(outCSV)
	if err != nil {
		t.Fatalf("miner wrote no output: %v", err)
	}
	defer f.Close()
	unified, err := dataset.ReadCSV(f, "unified")
	if err != nil {
		t.Fatal(err)
	}
	if unified.Len() != 150 || unified.Dim() != 4 {
		t.Fatalf("unified %dx%d, want 150x4 (all Iris shards)", unified.Len(), unified.Dim())
	}
}

// makeShards splits a normalized Iris dataset into k CSV shards.
func makeShards(t *testing.T, dir string, k int) []string {
	t.Helper()
	norm := loadNormalizedIris(t)
	parts, err := splitEven(norm, k)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, k)
	for i, part := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.csv", i))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, path)
	}
	return paths
}

func loadNormalizedIris(t *testing.T) *dataset.Dataset {
	t.Helper()
	path := writeDatasetCSV(t, "Iris")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f, "Iris")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func splitEven(d *dataset.Dataset, k int) ([]*dataset.Dataset, error) {
	n := d.Len() / k
	parts := make([]*dataset.Dataset, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n
		hi := lo + n
		if i == k-1 {
			hi = d.Len()
		}
		idx := make([]int, 0, hi-lo)
		for j := lo; j < hi; j++ {
			idx = append(idx, j)
		}
		parts = append(parts, d.Subset(idx))
	}
	return parts, nil
}
