package sap

// Multi-group serving: one miner process hosting several contract groups,
// each a completed Session with its own target space, training set and
// refit cadence. The protocol layer routes wire v4 frames by group ID;
// clients created from a session automatically stamp the session's group.

import (
	"context"
	"fmt"

	"repro/internal/classify"
	"repro/internal/protocol"
)

// Group pairs a completed session with the classifier served to its
// contract group. The group's wire ID, training set, target space and refit
// cadence all come from the session (WithGroupID, WithServiceRefitEvery).
type Group struct {
	// Session is the group's completed SAP run. Required; sessions sharing
	// one miner must carry distinct group IDs.
	Session *Session
	// Model is the classifier served to this group. Required; every group
	// needs its own instance, models are never shared across groups. With
	// refits enabled (the default), the model must either implement
	// classify.Cloner — all classifiers constructed through the facade
	// (NewKNN, NewSVM, NewNearestCentroid) do — or be paired with a
	// NewModel factory, so background refits can fit a fresh instance and
	// atomically swap it in without ever touching the serving one.
	Model Classifier
	// NewModel optionally returns a fresh, unfitted classifier with the
	// same configuration as Model. Required for custom classifiers that do
	// not implement classify.Cloner when refits are enabled.
	NewModel func() Classifier
	// Members optionally restricts the group to the named transport
	// endpoints: peers outside the list are answered with ErrNotMember.
	// Empty admits any peer. Names are the transport's self-declared
	// endpoint names — routing-level separation of honest contracts, not
	// an authenticated identity boundary (see GroupSpec.Members).
	Members []string
}

// ServeGroups stands up one sharded mining service hosting every given
// group on conn, and serves until ctx is cancelled or the transport closes.
// Each group gets its own model shard — its own training set, refit cadence,
// lock, prediction pool and batch cap (WithServiceWorkers and
// WithServiceMaxBatch on its session; unset selects the service defaults) —
// so one group's refit or slow queries never block another group's, and a
// client registered to one group cannot query another group's model when
// Members lists are set. Instrumentation comes from the first session that
// configured WithMetrics: one sink for the whole miner process, with each
// group counted under its own "service.<group>." namespace.
func ServeGroups(ctx context.Context, conn Conn, groups ...Group) error {
	specs, cfg, err := groupSpecs(groups)
	if err != nil {
		return err
	}
	svc, err := protocol.NewGroupedMiningService(conn, specs, cfg)
	if err != nil {
		return err
	}
	return svc.Serve(ctx)
}

// ServeGroups serves this session's group (under its WithGroupID, with the
// given model) alongside any additional groups, on one shared connection.
// It is the multi-contract form of Serve: s.ServeGroups(ctx, conn, model)
// is exactly s.Serve(ctx, conn, model).
func (s *Session) ServeGroups(ctx context.Context, conn Conn, model Classifier, more ...Group) error {
	return ServeGroups(ctx, conn, append([]Group{{Session: s, Model: model}}, more...)...)
}

// viewSpecs expands one group's WithTrustViews list into protocol view
// specs, giving every view its own classifier instances derived from the
// group's prototype: the NewModel factory when the group carries one, a
// Cloner clone otherwise. Option-level validation (levels, sigmas) already
// ran in WithTrustViews; here only the instance question can fail.
func viewSpecs(id string, g Group, views []ViewConfig) ([]protocol.ViewSpec, error) {
	cloner, _ := g.Model.(classify.Cloner)
	if g.NewModel == nil && cloner == nil {
		return nil, fmt.Errorf("%w: group %q uses trust views but its model is not a classify.Cloner and has no NewModel factory; every view needs its own instance",
			ErrBadInput, id)
	}
	out := make([]protocol.ViewSpec, 0, len(views))
	for _, v := range views {
		vs := protocol.ViewSpec{
			Level:      v.Level,
			NoiseSigma: v.NoiseSigma,
			Members:    append([]string(nil), v.Members...),
		}
		if g.NewModel != nil {
			vs.NewModel = g.NewModel
		} else {
			vs.Model = cloner.Clone()
		}
		out = append(out, vs)
	}
	return out, nil
}

// groupSpecs validates the facade groups and maps them to protocol specs.
// ID validation (empty sessions, duplicate group IDs) runs before the
// ran-state check so configuration mistakes surface even on unrun sessions.
func groupSpecs(groups []Group) ([]protocol.GroupSpec, protocol.ServiceConfig, error) {
	var cfg protocol.ServiceConfig
	if len(groups) == 0 {
		return nil, cfg, fmt.Errorf("%w: no serving groups", ErrBadInput)
	}
	seen := make(map[string]bool, len(groups))
	for i, g := range groups {
		if g.Session == nil {
			return nil, cfg, fmt.Errorf("%w: group %d has no session", ErrBadInput, i)
		}
		id := g.Session.GroupID()
		if seen[id] {
			return nil, cfg, fmt.Errorf("%w: duplicate group id %q", ErrBadInput, id)
		}
		seen[id] = true
		if g.Model == nil {
			return nil, cfg, fmt.Errorf("%w: group %q has no model", ErrBadInput, id)
		}
	}
	specs := make([]protocol.GroupSpec, 0, len(groups))
	for _, g := range groups {
		if err := g.Session.requireRun(); err != nil {
			return nil, cfg, fmt.Errorf("group %q: %w", g.Session.GroupID(), err)
		}
		spec := protocol.GroupSpec{
			ID:         g.Session.GroupID(),
			Unified:    g.Session.Unified(),
			Model:      g.Model,
			NewModel:   g.NewModel,
			RefitEvery: g.Session.cfg.refitEvery,
			Workers:    g.Session.cfg.workers,
			MaxBatch:   g.Session.cfg.maxBatch,
			Float32:    g.Session.cfg.float32Payloads,
			Members:    append([]string(nil), g.Members...),
			Quota: protocol.GroupQuota{
				RecordsPerSec: g.Session.cfg.quotaRate,
				Burst:         g.Session.cfg.quotaBurst,
			},
		}
		if views := g.Session.cfg.views; len(views) > 0 {
			vs, err := viewSpecs(spec.ID, g, views)
			if err != nil {
				return nil, cfg, err
			}
			// Each view brings its own model instances; the group-level
			// prototype moves into the view list (GroupSpec.Views requires
			// the group-level Model/NewModel to be nil).
			spec.Model, spec.NewModel = nil, nil
			spec.Views = vs
		}
		specs = append(specs, spec)
	}
	// Workers, MaxBatch and RefitEvery are per group: each session's
	// WithServiceWorkers/WithServiceMaxBatch/WithServiceRefitEvery ride its
	// own spec, so one group's pool size or batch cap never leaks into
	// another's. Service-wide only the defaults (zero: GOMAXPROCS workers,
	// DefaultMaxBatch, DefaultRefitEvery) and a single metrics sink remain
	// — observability is a property of the miner process, and the
	// per-group namespaces keep the groups apart inside one registry. The
	// first session that configured WithMetrics provides the sink, so it
	// is honored no matter which group carries it.
	for _, g := range groups {
		if m := g.Session.cfg.metrics; m != nil {
			cfg.Metrics = m
			break
		}
	}
	// The admin token arms the whole process's control plane, so like the
	// metrics sink it is first-carrier-wins across the groups.
	for _, g := range groups {
		if t := g.Session.cfg.adminToken; t != "" {
			cfg.AdminToken = t
			break
		}
	}
	return specs, cfg, nil
}
