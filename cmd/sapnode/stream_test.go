package main

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestStreamSessionOverTCP drives a full deployment in which a provider,
// after its protocol role completes, streams its own shard back into the
// serving miner's training set (-stream) and then queries the grown model
// (-query) — end to end over loopback TCP with AES-sealed frames.
func TestStreamSessionOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon session")
	}
	dir := t.TempDir()
	shards := makeShards(t, dir, 3)
	ports := freePorts(t, 4)
	minerAddr, coordAddr, p1Addr, p2Addr := ports[0], ports[1], ports[2], ports[3]

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
	common := []string{"-key", "stream-session", "-candidates", "2", "-steps", "1",
		"-seed", "11", "-timeout", "60s"}

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
	// The miner refits after every 16 streamed records; dp1 streams its
	// 50-record shard in chunks of 16 and then queries the refit model.
	// The miner stops once every other role is done.
	stopMiner := startRun(t, append([]string{"-role", "miner", "-name", "miner", "-listen", minerAddr,
		"-coordinator", "coord", "-parties", "3", "-peers", peerList("miner"),
		"-serve", "60s", "-model", "knn", "-workers", "2", "-refit", "16"}, common...))
	launch([]string{"-role", "coordinator", "-name", "coord", "-listen", coordAddr,
		"-data", shards[2], "-providers", "dp1,dp2", "-miner", "miner", "-peers", peerList("coord")})
	launch([]string{"-role", "provider", "-name", "dp1", "-listen", p1Addr,
		"-data", shards[0], "-coordinator", "coord", "-miner", "miner", "-peers", peerList("dp1"),
		"-stream", shards[0], "-chunk", "16",
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
}
