package protocol

import (
	"strings"
	"sync"
	"testing"
)

func TestAuditLogBasics(t *testing.T) {
	var log AuditLog
	log.Record("a", EventDatasetSent, "b", "records=10")
	log.Record("b", EventDatasetReceived, "a", "slot=1")
	events := log.Events()
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	if events[0].Actor != "a" || events[0].Kind != EventDatasetSent {
		t.Fatalf("event[0] = %+v", events[0])
	}
	// Events() returns a copy.
	events[0].Actor = "mutated"
	if log.Events()[0].Actor != "a" {
		t.Fatal("Events aliased internal storage")
	}
}

func TestAuditLogNilSafe(t *testing.T) {
	var log *AuditLog
	log.Record("a", EventUnified, "", "") // must not panic
	if log.Events() != nil {
		t.Fatal("nil log returned events")
	}
}

func TestAuditLogConcurrent(t *testing.T) {
	var log AuditLog
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				log.Record("actor", EventDatasetSent, "", "")
			}
		}()
	}
	wg.Wait()
	if got := len(log.Events()); got != 400 {
		t.Fatalf("%d events, want 400", got)
	}
}

func TestAuditLogQueries(t *testing.T) {
	var log AuditLog
	log.Record("a", EventDatasetSent, "b", "")
	log.Record("a", EventAdaptorSent, "c", "")
	log.Record("b", EventDatasetSent, "c", "")
	if got := len(log.Events()); got != 3 {
		t.Fatalf("%d events, want 3", got)
	}
	if !strings.Contains(log.String(), "a dataset-sent peer=b") {
		t.Fatalf("String() = %q", log.String())
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventTargetSelected, EventPlanComputed, EventAssignmentSent,
		EventDatasetSent, EventDatasetReceived, EventDatasetForwarded,
		EventAdaptorSent, EventAdaptorReceived, EventAdaptorMapSent,
		EventSubmissionReceived, EventUnified, EventViolationDetected,
		EventKind(99),
	}
	seen := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Errorf("kind %d has empty label", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate label %q", s)
		}
		seen[s] = true
	}
}

func TestSessionAuditTrail(t *testing.T) {
	// A full honest run must produce a log that satisfies the paper's
	// safety invariants.
	const k = 5
	parties, _ := buildParties(t, k, 31, 0.05)
	var log AuditLog
	_, err := RunLocal(testCtx(t), SessionConfig{Parties: parties, Seed: 32, Audit: &log})
	if err != nil {
		t.Fatal(err)
	}
	coordName := parties[k-1].Name
	problems := log.VerifyInvariants(coordName, "miner", k)
	if len(problems) != 0 {
		t.Fatalf("invariant violations: %v\nlog:\n%s", problems, log.String())
	}
	counts := make(map[EventKind]int)
	for _, e := range log.Events() {
		counts[e.Kind]++
	}
	if counts[EventDatasetSent] != k {
		t.Errorf("%d datasets sent, want %d", counts[EventDatasetSent], k)
	}
	if counts[EventDatasetForwarded] != k {
		t.Errorf("%d datasets forwarded, want %d", counts[EventDatasetForwarded], k)
	}
	if counts[EventSubmissionReceived] != k {
		t.Errorf("%d submissions, want %d", counts[EventSubmissionReceived], k)
	}
	if counts[EventAdaptorReceived] != k-1 {
		t.Errorf("%d adaptors received, want %d", counts[EventAdaptorReceived], k-1)
	}
	if counts[EventUnified] != 1 {
		t.Errorf("%d unified events, want 1", counts[EventUnified])
	}
	if counts[EventViolationDetected] != 0 {
		t.Errorf("honest run recorded %d violations", counts[EventViolationDetected])
	}
	// Providers only: the coordinator must never appear as a forwarder.
	for _, e := range log.Events() {
		if e.Kind == EventDatasetForwarded && e.Actor == coordName {
			t.Errorf("coordinator forwarded a dataset: %v", e)
		}
	}
}

func TestVerifyInvariantsCatchesViolations(t *testing.T) {
	var log AuditLog
	log.Record("coord", EventDatasetReceived, "p1", "") // invariant 1 break
	log.Record("p1", EventDatasetSent, "p2", "")        // sent but never forwarded
	log.Record("coord", EventAdaptorMapSent, "miner", "")
	problems := log.VerifyInvariants("coord", "miner", 3)
	if len(problems) < 3 {
		t.Fatalf("problems = %v, want coordinator-receipt, forward-mismatch and submission-count findings", problems)
	}
}
