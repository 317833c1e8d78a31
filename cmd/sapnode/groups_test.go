package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// writeUnifiedCSV stores a generated, normalized dataset as a stand-in for
// an earlier contract's unified output.
func writeUnifiedCSV(t *testing.T, dir, name string, seed int64) string {
	t.Helper()
	d := loadNormalizedIris(t)
	// Shift the labels per group so responses are attributable to the
	// group that served them.
	shifted := d.Clone()
	for i := range shifted.Y {
		shifted.Y[i] += int(seed) * 100
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := shifted.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeGroupsFlagOverTCP boots a miner daemon in -groups mode (two
// stored unified datasets, no protocol run) and drives both groups through
// raw group clients over TCP: each group answers from its own shard, and an
// unknown group is refused.
func TestServeGroupsFlagOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	dir := t.TempDir()
	csvA := writeUnifiedCSV(t, dir, "ward-a", 1)
	csvB := writeUnifiedCSV(t, dir, "ward-b", 2)
	ports := freePorts(t, 2)
	minerAddr, cliAddr := ports[0], ports[1]

	stopMiner := startRun(t, []string{
		"-role", "miner", "-name", "miner", "-listen", minerAddr,
		"-groups", fmt.Sprintf("ward-a=%s,ward-b=%s", csvA, csvB),
		"-serve", "60s", "-model", "knn", "-workers", "2",
		"-peers", "cli=" + cliAddr, "-key", "group-key",
	})

	codec, err := transport.NewAESCodec("group-key")
	if err != nil {
		t.Fatal(err)
	}
	node, err := transport.NewTCPNode("cli", cliAddr, codec)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.AddPeer("miner", minerAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The daemon takes a moment to listen; retry the first query.
	query := []float64{0.1, 0.1, 0.1, 0.1}
	for _, tc := range []struct {
		group string
		base  int
	}{{"ward-a", 100}, {"ward-b", 200}} {
		client, err := protocol.NewGroupServiceClient(node, "miner", tc.group)
		if err != nil {
			t.Fatal(err)
		}
		var label int
		for {
			label, err = client.Classify(ctx, query)
			if err == nil || ctx.Err() != nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		client.Close()
		if err != nil {
			t.Fatalf("group %s: %v", tc.group, err)
		}
		if label < tc.base || label >= tc.base+100 {
			t.Fatalf("group %s answered label %d, want one in [%d,%d) (shard mixup)",
				tc.group, label, tc.base, tc.base+100)
		}
	}

	ghost, err := protocol.NewGroupServiceClient(node, "miner", "ward-z")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.Classify(ctx, query); !errors.Is(err, protocol.ErrUnknownGroup) {
		t.Fatalf("unknown group err = %v, want ErrUnknownGroup", err)
	}
	ghost.Close()

	// The daemon exits cleanly when stopped.
	if err := stopMiner(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGroupsFlagValidation covers the -groups flag's rejection paths.
func TestServeGroupsFlagValidation(t *testing.T) {
	dir := t.TempDir()
	good := writeUnifiedCSV(t, dir, "ok", 1)
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"groups without serve": {
			[]string{"-role", "miner", "-name", "m", "-groups", "a=" + good},
			"-groups requires -serve"},
		"group conflicts with groups": {
			[]string{"-role", "miner", "-name", "m", "-serve", "1s",
				"-groups", "a=" + good, "-group", "b"},
			"-group conflicts with -groups"},
		"bad pair": {
			[]string{"-role", "miner", "-name", "m", "-serve", "1s", "-groups", "broken"},
			"bad group"},
		"missing csv": {
			[]string{"-role", "miner", "-name", "m", "-serve", "1s", "-groups", "a=/nonexistent.csv"},
			"no such file"},
		"duplicate id": {
			[]string{"-role", "miner", "-name", "m", "-serve", "1s",
				"-groups", "a=" + good + ",a=" + good},
			"duplicate group id"},
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

// TestGroupFlagServesNamedGroup checks a full protocol run whose miner
// serves under a named group: a legacy (default-group) client is refused,
// the named group answers. Exercised over the in-memory path would need the
// daemon harness; here the cheap unit seam is serveService's spec mapping.
func TestGroupFlagServesNamedGroup(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer svcConn.Close()
	cliConn, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	defer cliConn.Close()

	d := loadNormalizedIris(t)
	stash := newServiceStash(svcConn)
	stash.beginServe()
	svc, err := protocol.NewGroupedMiningService(stash,
		[]protocol.GroupSpec{{ID: "ward-a", Unified: d, Model: mustModel(t, "knn")}},
		protocol.ServiceConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	legacy, err := protocol.NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
	defer qcancel()
	if _, err := legacy.Classify(qctx, d.X[0]); !errors.Is(err, protocol.ErrUnknownGroup) {
		t.Fatalf("default-group query err = %v, want ErrUnknownGroup", err)
	}
	legacy.Close()

	named, err := protocol.NewGroupServiceClient(cliConn, "svc", "ward-a")
	if err != nil {
		t.Fatal(err)
	}
	defer named.Close()
	if _, err := named.Classify(qctx, d.X[0]); err != nil {
		t.Fatalf("named-group query: %v", err)
	}
}

// mustModel builds a served model or fails the test.
func mustModel(t *testing.T, name string) classify.Classifier {
	t.Helper()
	m, err := buildModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
