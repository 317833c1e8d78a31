package sap

// The operator side of the dynamic multi-tenant control plane: an Admin
// client registers, evicts, reconfigures and lists serving groups on a live
// mining service — no restart, no redeploy. The service side is armed with
// WithAdminToken on any serving session; a service without a token refuses
// every admin frame.

import (
	"context"
	"fmt"

	"repro/internal/classify"
	"repro/internal/protocol"
)

// Admin-plane types, re-exported from the protocol layer.
type (
	// Quota is a per-group ingest rate limit: a records-per-second token
	// bucket with a burst cap. The zero value is unlimited.
	Quota = protocol.GroupQuota
	// GroupUpdate names the limits an Admin.UpdateGroup changes on a live
	// group; each Set flag gates its field.
	GroupUpdate = protocol.AdminUpdate
	// GroupInfo describes one hosted group in an Admin.ListGroups answer.
	GroupInfo = protocol.AdminGroupInfo
	// GroupViewInfo describes one trust view of a multi-level group in an
	// Admin.ListGroups answer (GroupInfo.Views; empty for single-view
	// groups).
	GroupViewInfo = protocol.AdminViewInfo
	// GroupViewMembers names one trust view's replacement member list in a
	// GroupUpdate (SetViewMembers/ViewMembers).
	GroupViewMembers = protocol.AdminViewMembers
)

// GroupConfig describes a serving group to stand up on a live service via
// Admin.RegisterGroup. It replaces positional arguments for the whole group
// surface — tuning knobs left zero select the service's defaults.
type GroupConfig struct {
	// ID names the new group on the wire. Required; must be unused on the
	// target service.
	ID string
	// Data is the group's initial training set, already in the group's
	// target space (Session.Unified, or Session.TransformForInference of
	// clear records) — the admin plane never moves clear data. Required.
	Data *Dataset
	// Model is the classifier the group serves. RegisterGroup fits it on
	// Data before shipping, so the instance is mutated by the call; built-in
	// classifiers (NewKNN, NewSVM, NewNearestCentroid) all work. Required.
	Model Classifier
	// RefitEvery, Workers, MaxBatch and QueueDepth tune the group like the
	// session options WithServiceRefitEvery/WithServiceWorkers/
	// WithServiceMaxBatch (zero selects the service defaults; negative
	// RefitEvery disables automatic refits).
	RefitEvery int
	Workers    int
	MaxBatch   int
	QueueDepth int
	// Members optionally restricts the group to the named transport
	// endpoints (empty admits any peer).
	Members []string
	// Float32 opts the group's replication traffic into packed-float32
	// model blobs (see WithFloat32Payloads).
	Float32 bool
	// Quota rate-limits the group's ingest (zero: unlimited).
	Quota Quota
	// Views optionally splits the group into ordered multi-level trust
	// views, with the same semantics and validation as WithTrustViews.
	// Model then acts as the per-view prototype and must be a
	// classify.Cloner (all built-in classifiers are): RegisterGroup fits
	// one clone per view to prove the spec trains, and the service refits
	// every view from the delivered records under the group's correlated
	// noise ladder.
	Views []ViewConfig
}

// Admin drives the admin control plane of one live mining service:
// registering, evicting, updating and listing serving groups at runtime.
// The token must match the service's WithAdminToken; wrong or missing
// tokens answer ErrAdminDenied, and a pre-v8 service answers a typed wire-
// version rejection instead of hanging. Safe for concurrent use; Close
// releases the underlying connection demultiplexer.
type Admin struct {
	inner *protocol.AdminClient
}

// NewAdmin binds an admin client to the mining service named miner over
// conn, authenticating every call with token.
func NewAdmin(conn Conn, miner, token string) (*Admin, error) {
	inner, err := protocol.NewAdminClient(conn, miner, token)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return &Admin{inner: inner}, nil
}

// Close releases the admin client's response demultiplexer.
func (a *Admin) Close() error { return a.inner.Close() }

// RegisterGroup stands cfg up as a new serving group on the live service:
// the model is fitted on cfg.Data here (proving the spec trains before it
// ships), the service refits it on the delivered records off its serving
// loop, and the group starts serving. On a cluster node the group enters
// the routing table under a fresh epoch-bumped row announced through the
// existing discovery machinery, so clients find it without any restart.
// ErrGroupExists if the ID is already hosted.
func (a *Admin) RegisterGroup(ctx context.Context, cfg GroupConfig) error {
	if cfg.ID == "" {
		return fmt.Errorf("%w: register without a group ID", ErrBadInput)
	}
	if cfg.Data == nil || cfg.Data.Len() == 0 {
		return fmt.Errorf("%w: group %q has no training data", ErrBadInput, cfg.ID)
	}
	if cfg.Model == nil {
		return fmt.Errorf("%w: group %q has no model", ErrBadInput, cfg.ID)
	}
	spec := protocol.AdminGroupSpec{
		ID:         cfg.ID,
		X:          cfg.Data.X,
		Y:          cfg.Data.Y,
		RefitEvery: cfg.RefitEvery,
		Workers:    cfg.Workers,
		MaxBatch:   cfg.MaxBatch,
		QueueDepth: cfg.QueueDepth,
		Members:    append([]string(nil), cfg.Members...),
		Float32:    cfg.Float32,
		Quota:      cfg.Quota,
	}
	if len(cfg.Views) > 0 {
		// Reuse the option's validation so admin-registered view lists obey
		// exactly the WithTrustViews contract.
		if err := WithTrustViews(cfg.Views...)(&config{}); err != nil {
			return fmt.Errorf("group %q: %w", cfg.ID, err)
		}
		cloner, ok := cfg.Model.(classify.Cloner)
		if !ok {
			return fmt.Errorf("%w: group %q uses trust views but its model is not a classify.Cloner; every view needs its own instance",
				ErrBadInput, cfg.ID)
		}
		for _, v := range cfg.Views {
			m := cloner.Clone()
			if err := m.Fit(cfg.Data.Clone()); err != nil {
				return fmt.Errorf("%w: group %q view %d model does not train on its data: %v",
					ErrBadInput, cfg.ID, v.Level, err)
			}
			blob, err := classify.EncodeModel(m)
			if err != nil {
				return fmt.Errorf("%w: group %q view %d model: %v", ErrBadInput, cfg.ID, v.Level, err)
			}
			spec.Views = append(spec.Views, protocol.AdminViewSpec{
				Level:      v.Level,
				NoiseSigma: v.NoiseSigma,
				Model:      blob,
				Members:    append([]string(nil), v.Members...),
			})
		}
		return a.inner.RegisterGroup(ctx, spec)
	}
	if err := cfg.Model.Fit(cfg.Data.Clone()); err != nil {
		return fmt.Errorf("%w: group %q model does not train on its data: %v", ErrBadInput, cfg.ID, err)
	}
	blob, err := classify.EncodeModel(cfg.Model)
	if err != nil {
		return fmt.Errorf("%w: group %q model: %v", ErrBadInput, cfg.ID, err)
	}
	spec.Model = blob
	return a.inner.RegisterGroup(ctx, spec)
}

// EvictGroup removes a serving group from the live service: its queues
// drain (queued chunks still fold in), its refit goroutine stops, and
// subsequent frames for the group answer ErrUnknownGroup while every other
// group keeps serving untouched. On a cluster node the group's routing row
// is retired with it. ErrUnknownGroup if the service does not host it.
func (a *Admin) EvictGroup(ctx context.Context, group string) error {
	if group == "" {
		return fmt.Errorf("%w: evict without a group", ErrBadInput)
	}
	return a.inner.EvictGroup(ctx, group)
}

// UpdateGroup changes a live group's limits in place — quota, batch cap,
// refit cadence, members ACL — per the update's Set flags. In-flight
// requests finish under the limits they were admitted with; the next frame
// sees the new ones.
func (a *Admin) UpdateGroup(ctx context.Context, group string, u GroupUpdate) error {
	if group == "" {
		return fmt.Errorf("%w: update without a group", ErrBadInput)
	}
	return a.inner.UpdateGroup(ctx, group, u)
}

// ListGroups describes every group the service currently hosts, in serving
// order.
func (a *Admin) ListGroups(ctx context.Context) ([]GroupInfo, error) {
	return a.inner.ListGroups(ctx)
}
