package sap_test

// Table-driven validation tests for the facade's option sets, asserting the
// exact error text a misconfigured deployment sees.

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	sap "repro"
)

// TestSessionOptionValidationMessages drives every rejecting session option
// through sap.New and asserts the exact message.
func TestSessionOptionValidationMessages(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  sap.Option
		want string
	}{
		{"negative noise sigma", sap.WithNoiseSigma(-0.1),
			"sap: bad input: negative noise sigma -0.1"},
		{"negative workers", sap.WithServiceWorkers(-1),
			"sap: bad input: negative worker count -1"},
		{"negative batch cap", sap.WithServiceMaxBatch(-2),
			"sap: bad input: negative batch cap -2"},
		{"invalid refit cadence", sap.WithServiceRefitEvery(-3),
			"sap: bad input: refit cadence -3 (0 keeps the default, -1 disables)"},
		{"empty group id", sap.WithGroupID(""),
			"sap: bad input: empty group id"},
		{"nil metrics sink", sap.WithMetrics(nil),
			"sap: bad input: nil metrics sink"},
		{"zero down-mark window", sap.WithDownFor(0),
			"sap: bad input: non-positive down-mark window 0s"},
		{"negative down-mark window", sap.WithDownFor(-time.Second),
			"sap: bad input: non-positive down-mark window -1s"},
		{"zero failover grace", sap.WithFailoverGrace(0),
			"sap: bad input: zero failover grace (omit the option for the default, negative disables)"},
		{"zero anti-entropy cadence", sap.WithAntiEntropyEvery(0),
			"sap: bad input: zero anti-entropy cadence (omit the option for the default, negative disables)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sap.New(tc.opt)
			if err == nil {
				t.Fatal("option accepted")
			}
			if !errors.Is(err, sap.ErrBadInput) {
				t.Fatalf("err = %v, want ErrBadInput", err)
			}
			if err.Error() != tc.want {
				t.Fatalf("err = %q, want %q", err.Error(), tc.want)
			}
		})
	}

	// The refit-cadence sentinel -1 (disable) and positive cadences pass
	// validation; only the ambiguous negatives are refused.
	for _, ok := range []int{-1, 1, 256} {
		if _, err := sap.New(sap.WithServiceRefitEvery(ok)); err != nil &&
			err.Error() != "sap: bad input: no parties (use WithParties)" {
			t.Fatalf("WithServiceRefitEvery(%d) rejected: %v", ok, err)
		}
	}

	// Positive down-mark windows and the negative disable sentinels of the
	// durability cadences all pass validation.
	for name, opt := range map[string]sap.Option{
		"WithDownFor(1s)":          sap.WithDownFor(time.Second),
		"WithFailoverGrace(2s)":    sap.WithFailoverGrace(2 * time.Second),
		"WithFailoverGrace(-1)":    sap.WithFailoverGrace(-1),
		"WithAntiEntropyEvery(5s)": sap.WithAntiEntropyEvery(5 * time.Second),
		"WithAntiEntropyEvery(-1)": sap.WithAntiEntropyEvery(-1),
	} {
		if _, err := sap.New(opt); err != nil &&
			err.Error() != "sap: bad input: no parties (use WithParties)" {
			t.Fatalf("%s rejected: %v", name, err)
		}
	}
}

// emptySource is a stream source that ends immediately; option validation
// fires before the source is ever pulled.
type emptySource struct{}

func (emptySource) Next(context.Context) (*sap.Dataset, error) { return nil, io.EOF }

// TestStreamOptionValidationMessages drives every rejecting stream option
// through Session.Stream on a completed session and asserts the exact
// message.
func TestStreamOptionValidationMessages(t *testing.T) {
	sess, _ := runSmallSession(t)
	for _, tc := range []struct {
		name string
		opt  sap.StreamOption
		want string
	}{
		{"negative chunk size", sap.WithChunkSize(-1),
			"sap: bad input: negative chunk size -1"},
		{"negative buffer depth", sap.WithBufferDepth(-2),
			"sap: bad input: negative buffer depth -2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sess.Stream(runCtx(t), emptySource{}, tc.opt)
			if err == nil {
				t.Fatal("option accepted")
			}
			if !errors.Is(err, sap.ErrBadInput) {
				t.Fatalf("err = %v, want ErrBadInput", err)
			}
			if err.Error() != tc.want {
				t.Fatalf("err = %q, want %q", err.Error(), tc.want)
			}
		})
	}
}

// TestServeGroupsValidationMessages covers the group-set validation of
// ServeGroups: empty sets, missing sessions or models, and duplicate or
// defaulted-into-collision group IDs — all checked before any session state
// is touched, so misconfiguration surfaces even on unrun sessions.
func TestServeGroupsValidationMessages(t *testing.T) {
	d, err := sap.GenerateDataset("Iris", 63)
	if err != nil {
		t.Fatal(err)
	}
	parties, err := sap.Split(d, 3, sap.PartitionUniform, 64)
	if err != nil {
		t.Fatal(err)
	}
	newSession := func(opts ...sap.Option) *sap.Session {
		s, err := sap.New(append([]sap.Option{sap.WithParties(parties...), sap.WithOptimizer(2, 1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	net := sap.NewMemNetwork()
	conn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	model := sap.NewKNN(5)
	ctx := runCtx(t)

	for _, tc := range []struct {
		name   string
		groups []sap.Group
		want   string
	}{
		{"no groups", nil,
			"sap: bad input: no serving groups"},
		{"nil session", []sap.Group{{Model: model}},
			"sap: bad input: group 0 has no session"},
		{"nil model", []sap.Group{{Session: newSession(sap.WithGroupID("a"))}},
			`sap: bad input: group "a" has no model`},
		{"duplicate group id", []sap.Group{
			{Session: newSession(sap.WithGroupID("a")), Model: model},
			{Session: newSession(sap.WithGroupID("a")), Model: model}},
			`sap: bad input: duplicate group id "a"`},
		{"defaulted ids collide", []sap.Group{
			{Session: newSession(), Model: model},
			{Session: newSession(), Model: model}},
			`sap: bad input: duplicate group id "default"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := sap.ServeGroups(ctx, conn, tc.groups...)
			if err == nil {
				t.Fatal("groups accepted")
			}
			if !errors.Is(err, sap.ErrBadInput) {
				t.Fatalf("err = %v, want ErrBadInput", err)
			}
			if err.Error() != tc.want {
				t.Fatalf("err = %q, want %q", err.Error(), tc.want)
			}
		})
	}

	// Unrun sessions pass the group-set checks but fail the ran-state
	// check, scoped to the offending group.
	err = sap.ServeGroups(ctx, conn, sap.Group{Session: newSession(sap.WithGroupID("a")), Model: model})
	if !errors.Is(err, sap.ErrBadInput) {
		t.Fatalf("unrun session err = %v, want ErrBadInput", err)
	}
	if want := `group "a": sap: bad input: session has not run`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
}
