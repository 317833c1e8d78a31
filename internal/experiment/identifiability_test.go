package experiment

import (
	"strings"
	"testing"
)

func TestRunIdentifiabilityUniform(t *testing.T) {
	cfg := fastCfg()
	res, err := RunIdentifiability(cfg, "Iris", 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || res.Runs != 40 {
		t.Fatalf("K/Runs = %d/%d", res.K, res.Runs)
	}
	if res.TheoreticalPi != 1.0/3 {
		t.Fatalf("theoretical π = %v, want 1/3", res.TheoreticalPi)
	}
	// With 40 runs the empirical frequencies are noisy but must be far
	// from degenerate: no forwarder should dominate any owner's dataset.
	if res.MaxDeviation > 0.45 {
		t.Errorf("max deviation %v suggests non-uniform exchange", res.MaxDeviation)
	}
	// Every party's dataset must appear in the tallies every run.
	for owner, byForwarder := range res.ForwarderFreq {
		total := 0
		for _, c := range byForwarder {
			total += c
		}
		if total != 40 {
			t.Errorf("%s forwarded %d times, want 40", owner, total)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Identifiability validation") || !strings.Contains(out, "dp1") {
		t.Errorf("render:\n%s", out)
	}
}

func TestRunIdentifiabilityCoordinatorNeverForwards(t *testing.T) {
	res, err := RunIdentifiability(fastCfg(), "Iris", 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	coord := "dp4" // last party coordinates
	for owner, byForwarder := range res.ForwarderFreq {
		if byForwarder[coord] != 0 {
			t.Errorf("coordinator forwarded %s's dataset %d times", owner, byForwarder[coord])
		}
	}
}

func TestRunIdentifiabilityValidation(t *testing.T) {
	if _, err := RunIdentifiability(fastCfg(), "Iris", 2, 10); err == nil {
		t.Error("k=2 accepted")
	}
	if _, err := RunIdentifiability(fastCfg(), "Iris", 4, 0); err == nil {
		t.Error("runs=0 accepted")
	}
	if _, err := RunIdentifiability(fastCfg(), "NoSuch", 4, 5); err == nil {
		t.Error("unknown dataset accepted")
	}
}
