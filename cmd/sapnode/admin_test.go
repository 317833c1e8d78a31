package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestAdminFlagOverTCP drives the -admin subcommands against a live two-group
// miner over real AES-sealed sockets: list succeeds with the right token and
// is denied with a wrong one, register stands up a third group that starts
// answering without any restart (with its ingest quota enforced in one round
// trip and counted in /metrics), and evict retires a group while the others
// keep serving.
func TestAdminFlagOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	dir := t.TempDir()
	csvA := writeUnifiedCSV(t, dir, "ward-a", 1)
	csvB := writeUnifiedCSV(t, dir, "ward-b", 2)
	csvC := writeUnifiedCSV(t, dir, "ward-c", 3)
	ports := freePorts(t, 7)
	minerAddr, cliAddr, mAddr := ports[0], ports[1], ports[2]
	admAddrs := ports[3:]

	// The miner replies by dialing registered peers, so every admin
	// invocation (and the test's own client) gets a pre-registered name.
	minerPeers := "cli=" + cliAddr
	for i, addr := range admAddrs {
		minerPeers += fmt.Sprintf(",adm%d=%s", i+1, addr)
	}
	stopMiner := startRun(t, []string{
		"-role", "miner", "-name", "miner", "-listen", minerAddr,
		"-groups", fmt.Sprintf("ward-a=%s,ward-b=%s", csvA, csvB),
		"-serve", "60s", "-model", "knn", "-workers", "2",
		"-peers", minerPeers, "-key", "admin-key",
		"-admin-token", "hunter2", "-metrics-addr", mAddr,
	})

	codec, err := transport.NewAESCodec("admin-key")
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
	query := []float64{0.1, 0.1, 0.1, 0.1}

	// Service clients multiplex by request ID on a shared Conn, so only one
	// may be open at a time: each check opens, drives and closes its own.
	classify := func(group string) (int, error) {
		client, err := protocol.NewGroupServiceClient(node, "miner", group)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		return client.Classify(ctx, query)
	}

	// Wait for the daemon to come online: retry the first classify.
	for {
		_, err = classify("ward-a")
		if err == nil || ctx.Err() != nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("ward-a warmup: %v", err)
	}

	adminArgs := func(addr string, name string, rest ...string) []string {
		return append([]string{
			"-name", name, "-listen", addr, "-peers", "miner=" + minerAddr,
			"-key", "admin-key", "-miner", "miner"}, rest...)
	}

	// A wrong token is denied; the right one lists both groups.
	err = run(ctx, adminArgs(admAddrs[0], "adm1", "-admin", "list", "-admin-token", "wrong"))
	if err == nil || !strings.Contains(err.Error(), "admin access denied") {
		t.Fatalf("wrong-token list err = %v, want admin access denied", err)
	}
	if err := run(ctx, adminArgs(admAddrs[1], "adm2", "-admin", "list", "-admin-token", "hunter2")); err != nil {
		t.Fatalf("list: %v", err)
	}

	// Register a third group on the live service: it must start answering
	// without any restart, under its configured ingest quota.
	if err := run(ctx, adminArgs(admAddrs[2], "adm3", "-admin", "register", "-admin-token", "hunter2",
		"-group", "ward-c", "-data", csvC, "-model", "knn", "-quota", "1", "-quota-burst", "2")); err != nil {
		t.Fatalf("register ward-c: %v", err)
	}
	label, err := classify("ward-c")
	if err != nil {
		t.Fatalf("ward-c classify after register: %v", err)
	}
	if label < 300 || label >= 400 {
		t.Fatalf("ward-c answered label %d, want one in [300,400)", label)
	}

	// The burst admits 2 records; a 3-record chunk must bounce with a typed
	// ErrQuota in one round trip and show up in the Prometheus exposition.
	clientC, err := protocol.NewGroupServiceClient(node, "miner", "ward-c")
	if err != nil {
		t.Fatal(err)
	}
	_, err = clientC.PushChunk(ctx,
		[][]float64{{0.1, 0.1, 0.1, 0.1}, {0.2, 0.2, 0.2, 0.2}, {0.3, 0.3, 0.3, 0.3}},
		[]int{300, 300, 300})
	clientC.Close()
	if !errors.Is(err, protocol.ErrQuota) {
		t.Fatalf("over-quota push err = %v, want ErrQuota", err)
	}
	waitForMetric(t, ctx, mAddr, "service_ward_c_rejects_quota_total 1")

	// Evict ward-a: it stops answering while ward-b and ward-c keep serving.
	if err := run(ctx, adminArgs(admAddrs[3], "adm4", "-admin", "evict", "-admin-token", "hunter2",
		"-group", "ward-a")); err != nil {
		t.Fatalf("evict ward-a: %v", err)
	}
	if _, err := classify("ward-a"); !errors.Is(err, protocol.ErrUnknownGroup) {
		t.Fatalf("evicted ward-a err = %v, want ErrUnknownGroup", err)
	}
	if _, err := classify("ward-b"); err != nil {
		t.Fatalf("ward-b after evict: %v", err)
	}

	// The admin list view agrees: ward-b and ward-c remain, ward-c still
	// carrying its quota.
	admin, err := protocol.NewAdminClient(node, "miner", "hunter2")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	infos, err := admin.ListGroups(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]protocol.AdminGroupInfo, len(infos))
	for _, info := range infos {
		got[info.ID] = info
	}
	if len(got) != 2 || got["ward-a"].ID != "" {
		t.Fatalf("post-evict groups = %v, want ward-b and ward-c", infos)
	}
	if q := got["ward-c"].Quota; q.RecordsPerSec != 1 || q.Burst != 2 {
		t.Fatalf("ward-c quota = %+v, want rate 1 burst 2", q)
	}

	// The daemon exits cleanly when stopped.
	if err := stopMiner(); err != nil {
		t.Fatal(err)
	}
}

// TestAdminFlagValidation covers the -admin flag's local rejection paths —
// the ones that fail before any frame is sent.
func TestAdminFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"admin conflicts with role": {
			[]string{"-name", "a", "-role", "miner", "-admin", "list",
				"-miner", "m", "-admin-token", "x"},
			"-admin conflicts with -role"},
		"missing miner": {
			[]string{"-name", "a", "-admin", "list", "-admin-token", "x"},
			"needs -miner"},
		"missing token": {
			[]string{"-name", "a", "-admin", "list", "-miner", "m"},
			"needs -admin-token"},
		"unknown command": {
			[]string{"-name", "a", "-admin", "destroy", "-miner", "m", "-admin-token", "x"},
			"unknown -admin command"},
		"register without group": {
			[]string{"-name", "a", "-admin", "register", "-miner", "m", "-admin-token", "x"},
			"register needs -group"},
		"register without data": {
			[]string{"-name", "a", "-admin", "register", "-miner", "m", "-admin-token", "x",
				"-group", "g"},
			"register needs -data"},
		"evict without group": {
			[]string{"-name", "a", "-admin", "evict", "-miner", "m", "-admin-token", "x"},
			"evict needs -group"},
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
