package protocol

import (
	"fmt"
	"strings"
	"sync"
)

// EventKind tags protocol audit events.
type EventKind int

// Audit event kinds, in rough protocol order.
const (
	EventTargetSelected EventKind = iota + 1
	EventPlanComputed
	EventAssignmentSent
	EventDatasetSent
	EventDatasetReceived
	EventDatasetForwarded
	EventAdaptorSent
	EventAdaptorReceived
	EventAdaptorMapSent
	EventSubmissionReceived
	EventUnified
	EventViolationDetected
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventTargetSelected:
		return "target-selected"
	case EventPlanComputed:
		return "plan-computed"
	case EventAssignmentSent:
		return "assignment-sent"
	case EventDatasetSent:
		return "dataset-sent"
	case EventDatasetReceived:
		return "dataset-received"
	case EventDatasetForwarded:
		return "dataset-forwarded"
	case EventAdaptorSent:
		return "adaptor-sent"
	case EventAdaptorReceived:
		return "adaptor-received"
	case EventAdaptorMapSent:
		return "adaptor-map-sent"
	case EventSubmissionReceived:
		return "submission-received"
	case EventUnified:
		return "unified"
	case EventViolationDetected:
		return "violation-detected"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one audit record emitted by a protocol role.
type Event struct {
	// Actor is the endpoint that recorded the event.
	Actor string
	// Kind classifies the event.
	Kind EventKind
	// Peer is the counterparty, when one exists.
	Peer string
	// Detail carries free-form context (slot IDs, sizes).
	Detail string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	s := e.Actor + " " + e.Kind.String()
	if e.Peer != "" {
		s += " peer=" + e.Peer
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// AuditLog is a concurrency-safe, append-only event log shared by the
// protocol roles of one session. The zero value is ready to use; a nil
// *AuditLog disables recording, so roles never need nil checks at call
// sites beyond the method itself.
type AuditLog struct {
	mu     sync.Mutex
	events []Event
}

// Record appends an event. Safe on a nil receiver (no-op).
func (l *AuditLog) Record(actor string, kind EventKind, peer, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{Actor: actor, Kind: kind, Peer: peer, Detail: detail})
}

// Events returns a copy of the recorded events in order.
func (l *AuditLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// String renders the log one event per line.
func (l *AuditLog) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// VerifyInvariants checks the session-level safety properties the paper's
// privacy argument rests on and returns a list of violations (empty when
// the log is consistent):
//
//  1. The coordinator never records receiving a dataset.
//  2. Every dataset sent by a provider is eventually forwarded to the
//     miner by some (other) provider.
//  3. The miner receives exactly k submissions and exactly one adaptor map.
func (l *AuditLog) VerifyInvariants(coordinator, miner string, k int) []string {
	var problems []string
	counts := make(map[EventKind]int)
	for _, e := range l.Events() {
		counts[e.Kind]++
		if e.Actor == coordinator && (e.Kind == EventDatasetReceived || e.Kind == EventSubmissionReceived) {
			problems = append(problems, fmt.Sprintf("coordinator recorded %v", e.Kind))
		}
	}
	sent := counts[EventDatasetSent]
	forwarded := counts[EventDatasetForwarded]
	if sent != forwarded {
		problems = append(problems, fmt.Sprintf("%d datasets sent but %d forwarded", sent, forwarded))
	}
	if got := counts[EventSubmissionReceived]; got != k {
		problems = append(problems, fmt.Sprintf("miner received %d submissions, want %d", got, k))
	}
	if got := counts[EventAdaptorMapSent]; got != 1 {
		problems = append(problems, fmt.Sprintf("%d adaptor maps sent, want 1", got))
	}
	_ = miner
	return problems
}
