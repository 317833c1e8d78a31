package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// TestClusterFlagOverTCP boots two miner daemons in -cluster mode over real
// AES-sealed sockets: the group list is rendezvous-partitioned with one read
// replica per group, a cluster client routes both groups, a pushed chunk
// triggers a refit whose model replicates leader→follower, and the
// Prometheus metrics endpoint exposes the cluster counters.
func TestClusterFlagOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	dir := t.TempDir()
	csvA := writeUnifiedCSV(t, dir, "ward-a", 1)
	csvB := writeUnifiedCSV(t, dir, "ward-b", 2)
	ports := freePorts(t, 5)
	addr1, addr2, cliAddr, mAddr1, mAddr2 := ports[0], ports[1], ports[2], ports[3], ports[4]
	clusterList := fmt.Sprintf("n1=%s,n2=%s", addr1, addr2)
	groupList := fmt.Sprintf("ward-a=%s,ward-b=%s", csvA, csvB)

	var stops []func() error
	for _, d := range []struct{ name, listen, maddr string }{
		{"n1", addr1, mAddr1}, {"n2", addr2, mAddr2}} {
		stops = append(stops, startRun(t, []string{
			"-role", "miner", "-name", d.name, "-listen", d.listen,
			"-groups", groupList, "-cluster", clusterList, "-cluster-replicas", "1",
			"-serve", "60s", "-model", "knn", "-workers", "2", "-refit", "2",
			"-peers", "cli=" + cliAddr, "-key", "cluster-key",
			"-metrics-addr", d.maddr,
		}))
	}

	codec, err := transport.NewAESCodec("cluster-key")
	if err != nil {
		t.Fatal(err)
	}
	node, err := transport.NewTCPNode("cli", cliAddr, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.AddPeer("n1", addr1)
	node.AddPeer("n2", addr2)

	cli, err := cluster.NewClient(cluster.ClientConfig{
		Conn: node, Seeds: []string{"n1", "n2"}, AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	query := [][]float64{{0.1, 0.1, 0.1, 0.1}}
	// The daemons take a moment to listen; retry the first classify.
	for _, tc := range []struct {
		group string
		base  int
	}{{"ward-a", 100}, {"ward-b", 200}} {
		var labels []int
		for {
			labels, err = cli.ClassifyBatch(ctx, tc.group, query)
			if err == nil || ctx.Err() != nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("group %s: %v", tc.group, err)
		}
		if labels[0] < tc.base || labels[0] >= tc.base+100 {
			t.Fatalf("group %s answered label %d, want one in [%d,%d)",
				tc.group, labels[0], tc.base, tc.base+100)
		}
	}

	// A pushed chunk crosses the -refit 2 cadence: the leader refits and
	// replicates the fresh model to the follower. The rendezvous table is
	// derived locally to find which daemon leads ward-a.
	if _, err := cli.Push(ctx, "ward-a", [][]float64{{0.1, 0.1, 0.1, 0.1}, {0.2, 0.2, 0.2, 0.2}},
		[]int{100, 100}); err != nil {
		t.Fatalf("push ward-a: %v", err)
	}
	table, err := cluster.NewRendezvousTable([]string{"ward-a", "ward-b"}, []string{"n1", "n2"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	route, _ := table.Route("ward-a")
	metricsOf := map[string]string{"n1": mAddr1, "n2": mAddr2}
	waitForMetric(t, ctx, metricsOf[route.Node], "cluster_sync_published_total 1")
	waitForMetric(t, ctx, metricsOf[route.Replicas[0]], "service_ward_a_sync_installs_total 1")

	// Both daemons exit cleanly when stopped.
	for _, stop := range stops {
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitForMetric polls a daemon's Prometheus endpoint until the exposition
// text contains the wanted sample line.
func waitForMetric(t *testing.T, ctx context.Context, addr, want string) {
	t.Helper()
	url := fmt.Sprintf("http://%s/metrics?format=prom", addr)
	for ctx.Err() == nil {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), want) {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %q at %s", want, url)
}

// TestClusterFlagValidation covers the -cluster flag's rejection paths.
func TestClusterFlagValidation(t *testing.T) {
	dir := t.TempDir()
	good := writeUnifiedCSV(t, dir, "ok", 1)
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"cluster without groups": {
			[]string{"-role", "miner", "-name", "n1", "-serve", "1s", "-cluster", "n1=:0"},
			"-cluster requires -groups"},
		"bad node pair": {
			[]string{"-role", "miner", "-name", "n1", "-serve", "1s",
				"-groups", "a=" + good, "-cluster", "broken"},
			"bad cluster node"},
		"name not in list": {
			[]string{"-role", "miner", "-name", "n9", "-serve", "1s",
				"-groups", "a=" + good, "-cluster", "n1=:0,n2=:0"},
			"does not include this node's -name"},
		"too many replicas": {
			[]string{"-role", "miner", "-name", "n1", "-serve", "1s",
				"-groups", "a=" + good, "-cluster", "n1=:0,n2=:0", "-cluster-replicas", "2"},
			"bad routing table"},
	} {
		t.Run(name, func(t *testing.T) {
			err := run(context.Background(), tc.args)
			if err == nil {
				t.Fatal("run succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want substring %q", err, tc.want)
			}
		})
	}
}
