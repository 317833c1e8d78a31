// Group registry and router of the sharded mining service. One miner
// process hosts any number of serving groups — independent contracts, each
// with its own target space, training set, model and refit cadence — and
// routes every v4 frame to its group's shard. This is the multi-contract
// deployment the paper's service-oriented framing implies: the service
// provider "offers their data mining services to the contracted parties",
// and nothing ties the provider to a single contract.

package protocol

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/perturb"
	"repro/internal/transport"
)

// DefaultGroup is the serving group frames with an empty Group route to,
// and the group NewMiningService registers its single model under.
// Single-group deployments never need to name it.
const DefaultGroup = "default"

// shardIngestQueueDepth bounds the per-group ingest queue between the
// receive loop and the shard's ingest goroutine. A group whose ingest lane
// is behind can absorb this many chunks before further ingest frames for it
// are answered with a typed busy rejection (ErrBusy) — the receive loop
// never blocks on a full shard queue.
const shardIngestQueueDepth = 16

// shardJobQueueDepth bounds the per-group classify queue between the
// receive loop and the shard's prediction pool. A group whose pool is
// saturated can absorb this many queries before further classify frames for
// it are answered with ErrBusy — the same fail-fast isolation contract as
// the ingest queue.
const shardJobQueueDepth = 16

// GroupSpec describes one serving group hosted by a sharded mining service.
type GroupSpec struct {
	// ID names the group on the wire. Required; unique within a service.
	ID string
	// Unified is the group's training set, already in the group's own
	// target space. Required, non-empty.
	Unified *dataset.Dataset
	// Model is the classifier served to the group. Each group needs its own
	// instance — shards never share model state. Optional when NewModel is
	// set (the factory then builds the initial model too).
	Model classify.Classifier
	// NewModel returns a fresh, unfitted classifier with the group's model
	// configuration. Background refits fit a fresh instance off to the side
	// and atomically swap it in, so the live model is never mutated — a
	// failed refit provably cannot corrupt it. Optional when Model
	// implements classify.Cloner (all built-in classifiers do); required
	// otherwise whenever refits are enabled, since without a fresh instance
	// the service cannot honor its keep-serving-on-the-previous-fit
	// guarantee.
	NewModel func() classify.Classifier
	// RefitEvery overrides ServiceConfig.RefitEvery for this group (0
	// inherits the service-wide cadence; negative disables automatic
	// refits).
	RefitEvery int
	// Workers overrides ServiceConfig.Workers for this group: the size of
	// the group's dedicated prediction pool (0 inherits the service-wide
	// size). Every group owns its pool and a bounded job queue, so a group
	// saturated with slow queries stalls other groups' predictions only
	// once its own queue overflows back into the shared receive loop.
	Workers int
	// MaxBatch overrides ServiceConfig.MaxBatch for this group (0 inherits
	// the service-wide cap).
	MaxBatch int
	// Members optionally restricts the group to the named transport
	// endpoints. Empty admits any peer; non-empty means frames from peers
	// outside the list are answered with ErrNotMember. The check keys off
	// the transport envelope's sender name, which peers self-declare: it
	// keeps honest contracts apart (misrouted clients, stale configs), but
	// a peer holding the shared transport key can spoof a member name —
	// per-group keys / authenticated identity are a ROADMAP follow-up.
	Members []string
	// SyncFrom marks this group a read replica: the named transport endpoint
	// (the group's leader node) is the only peer whose kindModelSync frames
	// are installed, ingest frames are answered with ErrNotLeader, and
	// background refits never trigger (no ingest reaches the shard) — the
	// replica's model advances only by installing the leader's replicated
	// fits, with the same lock-free atomic publish a local refit would use.
	// Empty (the default) makes the group an ordinary leader shard. The role
	// is the initial one; failover may flip it at runtime via SetGroupLead /
	// SetGroupFollow.
	SyncFrom string
	// Float32 opts this group into float32 wire payloads: the cluster layer
	// encodes each of the group's models once per publish round as a
	// packed-float32 blob (classify.EncodeModelFloat32) and sends it to
	// every replica, and clients built from a WithFloat32Payloads session
	// pack their batches the same way.
	// Precision narrows to float32 (~7 significant digits) on those frames;
	// the group's perturbed data tolerates it by construction (the paper's
	// noise floor dwarfs the quantization error), but the opt-in is per
	// group so precision-sensitive contracts stay on float64.
	Float32 bool
	// QueueDepth overrides the depth of the group's bounded ingest and
	// classify queues (0 selects shardIngestQueueDepth and
	// shardJobQueueDepth). Deeper queues absorb burstier traffic before the
	// busy rejection fires; shallower ones fail faster.
	QueueDepth int
	// Quota rate-limits the group's ingest: chunks beyond the
	// records-per-second token bucket answer a typed ErrQuota within one
	// round trip (rejects.quota), before they ever occupy queue space. The
	// zero value is unlimited. Updatable at runtime through the admin
	// control plane.
	Quota GroupQuota
	// Views optionally splits the group into an ordered multi-level trust
	// view list: one served model per trust level, every level fitted on
	// the same training set under its own slice of a jointly drawn
	// correlated noise ladder (perturb.NoiseLadder), so no coalition of
	// views can pool its way below the least-noisy member's privacy level.
	// Views must be listed in strictly increasing level order (level 1 =
	// most trusted) with non-decreasing noise; with Views set, the
	// group-level Model/NewModel must be nil (each view brings its own).
	// Nil — the default — serves today's single implicit view with
	// byte-identical wire behavior.
	Views []ViewSpec
}

// ViewSpec describes one trust view of a multi-level serving group: the
// classifier served at one trust level, fitted on the group's training data
// blurred by that level's slice of the group's correlated noise ladder.
type ViewSpec struct {
	// Level is the view's trust rank: positive, unique within the group,
	// listed in strictly increasing order. Smaller levels are more trusted
	// and see less noise.
	Level int
	// NoiseSigma is the absolute per-element σ of the additive training
	// noise this view's model is fitted under. Sigmas must be non-decreasing
	// across the group's view list — lower trust never gets less noise —
	// and every fit draws the whole ladder jointly from the next-higher
	// view's noise plus an independent increment, never independently per
	// view, which is what keeps coalitions of views from averaging the
	// noise away (the diversity attack; see internal/privacy's coalition
	// evaluator).
	NoiseSigma float64
	// Model and NewModel mirror GroupSpec.Model and GroupSpec.NewModel for
	// this view; every view serves its own instances.
	Model    classify.Classifier
	NewModel func() classify.Classifier
	// Members optionally restricts the view to the named transport
	// endpoints, on top of the group's own ACL. Empty admits every peer
	// the group admits.
	Members []string
}

// modelShard is one group's independent serving state. The served model
// lives behind an atomic pointer: prediction workers load it lock-free, and
// the shard's refit goroutine — fed training-set snapshots by the ingest
// goroutine — fits a *fresh* classifier instance off to the side and swaps
// it in only on success, so the live model is never written while serving
// and a failed fit cannot corrupt it. Each queue between the shared receive
// loop and the shard is bounded and fail-fast: when it is full, the frame
// is answered with a typed busy rejection instead of stalling the loop.
type modelShard struct {
	id      string
	dim     int
	workers int
	// queueDepth is the capacity both bounded queues were built with and f32
	// the group's float32-payload preference; fixed for the shard's lifetime
	// (unlike limits), reported by the admin list.
	queueDepth int
	f32        bool
	// limits holds the shard's updatable serving limits — batch cap, refit
	// cadence, members ACL, ingest quota — behind one atomic pointer: the
	// admin control plane replaces the whole bundle in place while workers
	// load it once per frame, lock-free, the same publish discipline the
	// model itself uses.
	limits atomic.Pointer[shardLimits]
	// syncFrom is the leader endpoint this shard replicates from; empty for
	// ordinary leader shards (see GroupSpec.SyncFrom). Behind an atomic
	// pointer because failover flips roles at runtime (SetGroupLead /
	// SetGroupFollow) while the serve loop authorizes frames against it.
	syncFrom atomic.Pointer[string]
	// onSwap, when set, is called with each view's successfully refitted
	// classifier right after its atomic publish (ServiceConfig.OnModelSwap,
	// curried with the group ID). Runs on the refit goroutine.
	onSwap func(level int, model classify.Classifier)

	// views are the group's trust views in ascending level order; views[0]
	// is the primary (highest-trust) view. Groups without GroupSpec.Views
	// get one implicit open view at level 1 and behave exactly as before.
	// The slice is fixed for the shard's lifetime; per-view mutable state
	// (model, members, sync cursor) lives behind each view's own atomics.
	views []*viewShard
	// explicitViews records whether the spec asked for multi-level views.
	// Implicit groups skip the noise ladder, the per-view metric namespace
	// and all View-field stamping, keeping their wire bytes identical to
	// the pre-view service.
	explicitViews bool
	// viewRng draws the correlated noise ladder for multi-view fits,
	// deterministically seeded from the group ID. Touched only during
	// construction and then on the refit goroutine, strictly sequentially.
	viewRng *rand.Rand
	// canRefit is true when every view has a fresh-instance source
	// (ViewSpec.NewModel or a classify.Cloner model).
	canRefit bool

	// The growing training set and the count of records ingested since the
	// last scheduled refit; both are touched only by the shard's ingest
	// goroutine.
	training   *dataset.Dataset
	sinceRefit int

	// ingested is the lifetime ingest total, readable concurrently.
	ingested atomic.Int64
	// stale counts records ingested but not yet covered by the live fit:
	// the ingest goroutine adds each accepted chunk, and a successful refit
	// subtracts exactly the records its snapshot covered — records that
	// arrived while the fit ran stay counted. It mirrors the
	// "staleness_records" gauge so scheduleRefit can read the current value.
	stale atomic.Int64

	// jobs carries classify frames from the receive loop to the shard's
	// dedicated prediction pool (sized by GroupSpec.Workers); a full buffer
	// makes the receive loop answer codeBusy instead of blocking.
	jobs chan serviceJob
	// ingestQ carries ingest frames from the receive loop to the shard's
	// ingest goroutine, with the same fail-fast busy contract.
	ingestQ chan serviceJob
	// refitQ carries training-set snapshots from the ingest goroutine to
	// the shard's refit goroutine. Its single-slot buffer coalesces refits:
	// while one is pending, further cadence crossings keep accumulating and
	// re-trigger on a later chunk, so at most one snapshot is ever queued
	// behind the fit in progress.
	refitQ chan refitJob
	// refitFail holds the message of the most recent failed refit until it
	// is either reported on an ingest response (codeRefit, so one pusher
	// learns the model is lagging) or cleared by a successful refit. A
	// failure with no ingest traffic after it is visible only through the
	// refit.errors counter and the staleness_records gauge, which stays
	// elevated until a later refit succeeds.
	refitFail atomic.Pointer[string]

	// ingestHold is nil in production. Tests set it before Serve to park
	// the ingest goroutine (it blocks on the channel before each dequeue),
	// wedging the lane deterministically so queue-full busy rejections can
	// be exercised.
	ingestHold chan struct{}

	// Per-shard goroutine accounting, so a single shard can be drained and
	// stopped (admin evict) without touching its siblings: stop() closes the
	// ingest queue first and waits it drained — queued chunks still fold in
	// — then retires the refit and prediction goroutines.
	workerWg sync.WaitGroup
	ingestWg sync.WaitGroup
	refitWg  sync.WaitGroup
	stopOnce sync.Once

	// Instruments, resolved once at construction under the group's metric
	// namespace "service.<id>." so the hot path is a single atomic update.
	mRequests      metrics.Counter   // classify frames answered
	mBatchSize     metrics.Histogram // records per classify frame
	mIngestChunks  metrics.Counter   // ingest frames folded in
	mIngestRecs    metrics.Counter   // records folded in
	mQueueDepth    metrics.Gauge     // ingest queue occupancy
	mRefits        metrics.Counter   // completed refits
	mRefitNanos    metrics.Histogram // refit wall time (ns)
	mRefitErrors   metrics.Counter   // failed refits (ErrRefit recoveries)
	mRefitInflight metrics.Gauge     // 1 while a background refit is fitting
	mNotMember     metrics.Counter   // frames refused by the Members ACL
	mBusy          metrics.Counter   // frames refused because a queue was full
	mStaleness     metrics.Gauge     // records ingested but not in the live fit
	mSyncInstalls  metrics.Counter   // model syncs installed (replicas only)
	mSyncRejects   metrics.Counter   // model syncs refused (stale seq, bad blob)
	mSyncSeq       metrics.Gauge     // sequence of the last installed sync
	mQuota         metrics.Counter   // ingest frames refused by the group quota
	mRefitRetries  metrics.Counter   // failed refits re-attempted by the retry timer
	mUnknownView   metrics.Counter   // frames addressing a view the group does not serve
}

// viewShard is one trust view's serving state within a group shard: its own
// atomically published model and replication cursor, its own ACL on top of
// the group's, and its slice of the group's correlated noise ladder. All
// views share the group's training set, queues and refit cadence — a refit
// fits every view from one coalesced snapshot.
type viewShard struct {
	level int
	sigma float64
	// members is the view's own ACL (nil admits every peer the group
	// admits), behind an atomic pointer so the admin plane can replace it
	// while the receive loop resolves views lock-free. The stored pointer
	// is never nil; the map it points to may be.
	members atomic.Pointer[map[string]struct{}]
	// newModel returns a fresh unfitted classifier for this view's refits;
	// nil only when refits are disabled for the group.
	newModel func() classify.Classifier
	// model is the view's served classifier, published with the same
	// store-only-on-success atomic discipline the single-model shard used.
	model atomic.Pointer[classify.Classifier]
	// syncSeq / syncCovered are the view's replication cursor: each view
	// replicates independently, and a promoted or restarted leader floors
	// its numbering at the minimum across views (GroupSyncSeq).
	syncSeq     atomic.Uint64
	syncCovered atomic.Int64

	// Per-view instruments under "service.<group>.view.<level>.". No-ops
	// for implicit single-view groups, whose flat group namespace stays
	// the complete catalogue.
	mRequests     metrics.Counter // classify frames answered by this view
	mRefits       metrics.Counter // refit publishes of this view's model
	mSyncInstalls metrics.Counter // model syncs installed into this view
	mSyncSeq      metrics.Gauge   // sequence of this view's last installed sync
}

// admits reports whether the named peer may address this view (on top of
// the group ACL, which the router checks first).
func (v *viewShard) admits(peer string) bool {
	members := *v.members.Load()
	if members == nil {
		return true
	}
	_, ok := members[peer]
	return ok
}

// shardLimits is the updatable half of a shard's configuration, published as
// one immutable bundle (see modelShard.limits).
type shardLimits struct {
	maxBatch   int
	refitEvery int
	members    map[string]struct{} // nil: open to any peer
	quota      *tokenBucket        // nil: unlimited
	quotaCfg   GroupQuota          // the quota as configured, for admin listing
}

// applyUpdate publishes a new limits bundle per the update's Set flags.
// Called only with the service's receive loop as the single writer (admin
// updates are handled inline on it), so a plain load-copy-store suffices.
func (sh *modelShard) applyUpdate(u *AdminUpdate) error {
	next := *sh.limits.Load()
	if u.SetMaxBatch {
		if u.MaxBatch <= 0 {
			return fmt.Errorf("group %q: non-positive batch cap %d", sh.id, u.MaxBatch)
		}
		next.maxBatch = u.MaxBatch
	}
	if u.SetRefitEvery {
		if u.RefitEvery > 0 && !sh.canRefit {
			return fmt.Errorf("group %q cannot refit: no model factory or cloner", sh.id)
		}
		next.refitEvery = u.RefitEvery
	}
	if u.SetMembers {
		members, err := memberSet(sh.id, u.Members)
		if err != nil {
			return err
		}
		next.members = members
	}
	if u.SetQuota {
		next.quota = newTokenBucket(u.Quota)
		next.quotaCfg = u.Quota
	}
	if u.SetViewMembers {
		// Validate every row before storing any, so a bad update leaves all
		// view ACLs untouched rather than half-applied.
		type viewACL struct {
			view *viewShard
			set  map[string]struct{}
		}
		pending := make([]viewACL, 0, len(u.ViewMembers))
		for _, vm := range u.ViewMembers {
			v := sh.viewAt(vm.Level)
			if v == nil {
				return fmt.Errorf("group %q has no view %d", sh.id, vm.Level)
			}
			set, err := memberSet(sh.id, vm.Members)
			if err != nil {
				return err
			}
			pending = append(pending, viewACL{view: v, set: set})
		}
		for _, p := range pending {
			set := p.set
			p.view.members.Store(&set)
		}
	}
	sh.limits.Store(&next)
	return nil
}

// primary returns the group's highest-trust view (the only view of an
// implicit single-level group).
func (sh *modelShard) primary() *viewShard { return sh.views[0] }

// viewAt returns the view serving the given trust level, or nil. The view
// list is tiny and fixed, so a linear scan beats any map on the hot path.
func (sh *modelShard) viewAt(level int) *viewShard {
	for _, v := range sh.views {
		if v.level == level {
			return v
		}
	}
	return nil
}

// resolveView normalizes a classify/ingest frame's View field to a concrete
// view the sender may address, mutating req.View in place. An explicit level
// must exist (codeUnknownView) and admit the sender (codeNotMember); level 0
// resolves to the sender's highest-authorized view — except on implicit
// single-view groups, where it stays 0 so every response byte matches the
// pre-view service. Returns a zero code on success.
func (sh *modelShard) resolveView(req *serviceWire, from string) (code uint8, msg string) {
	if req.View == 0 {
		if !sh.explicitViews {
			return 0, ""
		}
		for _, v := range sh.views {
			if v.admits(from) {
				req.View = v.level
				return 0, ""
			}
		}
		return codeNotMember, fmt.Sprintf("peer %q is not a member of any view of group %q", from, sh.id)
	}
	v := sh.viewAt(req.View)
	if v == nil {
		return codeUnknownView, fmt.Sprintf("group %q has no view %d", sh.id, req.View)
	}
	if !v.admits(from) {
		return codeNotMember, fmt.Sprintf("peer %q is not a member of view %d of group %q", from, req.View, sh.id)
	}
	return 0, ""
}

// wireLevel is the view level replication stamps on wire frames: the real
// level for explicit multi-view groups, 0 for the implicit single view —
// gob omits zero-valued fields, so single-view groups' sync frames stay
// byte-identical to the pre-view service.
func (sh *modelShard) wireLevel(v *viewShard) int {
	if !sh.explicitViews {
		return 0
	}
	return v.level
}

// minSyncSeq is the group's replication low-water mark: the smallest last
// installed sync sequence across its views. A restarted leader flooring its
// numbering here can never skip a view that lagged the others.
func (sh *modelShard) minSyncSeq() uint64 {
	min := sh.views[0].syncSeq.Load()
	for _, v := range sh.views[1:] {
		if s := v.syncSeq.Load(); s < min {
			min = s
		}
	}
	return min
}

// minSyncCovered is the smallest installed sync coverage across the group's
// views, the conservative staleness base.
func (sh *modelShard) minSyncCovered() int64 {
	min := sh.views[0].syncCovered.Load()
	for _, v := range sh.views[1:] {
		if c := v.syncCovered.Load(); c < min {
			min = c
		}
	}
	return min
}

// memberSet builds a Members ACL lookup set; empty input means no ACL (nil).
func memberSet(group string, members []string) (map[string]struct{}, error) {
	if len(members) == 0 {
		return nil, nil
	}
	set := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("group %q has an empty member name", group)
		}
		set[m] = struct{}{}
	}
	return set, nil
}

// refitJob is one snapshot handoff from the ingest goroutine to the refit
// goroutine: the grown training set plus the staleness count its fit will
// cover, so a successful swap can retire exactly those records from the
// staleness gauge.
type refitJob struct {
	snapshot *dataset.Dataset
	stale    int64
}

// viewSpecsFor normalizes a group spec's view list: explicit views are
// validated (positive strictly increasing levels, non-negative non-decreasing
// sigmas, a classifier source per view, no group-level model alongside);
// a nil list becomes the single implicit level-1 view carrying the group's
// own model fields.
func viewSpecsFor(spec GroupSpec) ([]ViewSpec, bool, error) {
	if len(spec.Views) == 0 {
		if spec.Model == nil && spec.NewModel == nil {
			return nil, false, fmt.Errorf("%w: group %q has a nil classifier", ErrBadConfig, spec.ID)
		}
		return []ViewSpec{{Level: 1, Model: spec.Model, NewModel: spec.NewModel}}, false, nil
	}
	if spec.Model != nil || spec.NewModel != nil {
		return nil, false, fmt.Errorf(
			"%w: group %q sets both a group-level model and Views; multi-level groups carry per-view models only",
			ErrBadConfig, spec.ID)
	}
	prevLevel, prevSigma := 0, 0.0
	for _, vs := range spec.Views {
		if vs.Level <= prevLevel {
			return nil, false, fmt.Errorf(
				"%w: group %q view levels must be positive and strictly increasing (level %d after %d)",
				ErrBadConfig, spec.ID, vs.Level, prevLevel)
		}
		if vs.NoiseSigma < 0 || vs.NoiseSigma < prevSigma {
			return nil, false, fmt.Errorf(
				"%w: group %q view noise must be non-negative and non-decreasing (view %d has σ=%v after σ=%v)",
				ErrBadConfig, spec.ID, vs.Level, vs.NoiseSigma, prevSigma)
		}
		if vs.Model == nil && vs.NewModel == nil {
			return nil, false, fmt.Errorf("%w: group %q view %d has a nil classifier", ErrBadConfig, spec.ID, vs.Level)
		}
		prevLevel, prevSigma = vs.Level, vs.NoiseSigma
	}
	return spec.Views, true, nil
}

// viewTrainingSets derives every view's training data from one coalesced
// snapshot: the group's correlated noise ladder is drawn over the snapshot
// once (perturb.NoiseLadder — lower-trust noise is higher-trust noise plus
// an independent increment, never an independent draw) and view i trains on
// snapshot + Δ_i. The snapshot itself is treated read-only; every returned
// dataset is the caller's to own. Single-view zero-noise groups skip the
// ladder entirely.
func viewTrainingSets(rng *rand.Rand, views []*viewShard, snapshot *dataset.Dataset) ([]*dataset.Dataset, error) {
	sigmas := make([]float64, len(views))
	noised := false
	for i, v := range views {
		sigmas[i] = v.sigma
		if v.sigma > 0 {
			noised = true
		}
	}
	var ladder []*matrix.Dense
	if noised {
		var err error
		ladder, err = perturb.NoiseLadder(rng, snapshot.Dim(), snapshot.Len(), sigmas)
		if err != nil {
			return nil, err
		}
	}
	out := make([]*dataset.Dataset, len(views))
	for i, v := range views {
		ds := snapshot.Clone()
		if ladder != nil && v.sigma > 0 {
			// Ladder matrices are d×N columns-per-record; dataset rows are
			// records, so record r takes ladder column r.
			noise := ladder[i]
			for r := range ds.X {
				for c := range ds.X[r] {
					ds.X[r][c] += noise.At(c, r)
				}
			}
		}
		out[i] = ds
	}
	return out, nil
}

// newModelShard validates one group spec, trains its initial per-view models
// on its unified dataset and assembles the shard.
func newModelShard(spec GroupSpec, cfg ServiceConfig) (*modelShard, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("%w: empty group id", ErrBadConfig)
	}
	if spec.Unified == nil || spec.Unified.Len() == 0 {
		return nil, fmt.Errorf("%w: group %q has no unified dataset", ErrBadConfig, spec.ID)
	}
	viewSpecs, explicit, err := viewSpecsFor(spec)
	if err != nil {
		return nil, err
	}
	if spec.Workers < 0 {
		return nil, fmt.Errorf("%w: group %q has a negative worker count %d", ErrBadConfig, spec.ID, spec.Workers)
	}
	if spec.MaxBatch < 0 {
		return nil, fmt.Errorf("%w: group %q has a negative batch cap %d", ErrBadConfig, spec.ID, spec.MaxBatch)
	}
	if spec.QueueDepth < 0 {
		return nil, fmt.Errorf("%w: group %q has a negative queue depth %d", ErrBadConfig, spec.ID, spec.QueueDepth)
	}
	refitEvery := spec.RefitEvery
	if refitEvery == 0 {
		refitEvery = cfg.RefitEvery
	}
	// Assemble the view shards and resolve each view's fresh-instance source
	// for background refits: an explicit factory wins, a cloneable model
	// works too. With refits enabled every view needs one — retraining a
	// live instance in place would reintroduce the corruption-on-failed-fit
	// bug the swap design kills.
	views := make([]*viewShard, len(viewSpecs))
	canRefit := true
	for i, vs := range viewSpecs {
		newModel := vs.NewModel
		if newModel == nil {
			if cloner, ok := vs.Model.(classify.Cloner); ok {
				newModel = cloner.Clone
			}
		}
		if newModel == nil {
			canRefit = false
		}
		viewMembers, err := memberSet(spec.ID, vs.Members)
		if err != nil {
			return nil, fmt.Errorf("%w: view %d: %v", ErrBadConfig, vs.Level, err)
		}
		v := &viewShard{level: vs.Level, sigma: vs.NoiseSigma, newModel: newModel}
		v.members.Store(&viewMembers)
		views[i] = v
	}
	if refitEvery > 0 && !canRefit {
		if spec.SyncFrom == "" {
			return nil, fmt.Errorf(
				"%w: group %q model cannot refit in the background: set GroupSpec.NewModel or implement classify.Cloner (or disable refits)",
				ErrBadConfig, spec.ID)
		}
		// A replica without a fresh-instance source cannot refit even if it
		// is later promoted to leader; disable the cadence rather than reject
		// the spec (the shard still serves and installs syncs).
		refitEvery = -1
	}
	// The noise ladder's RNG is seeded from the group ID alone, so a group's
	// replicas (and its restarts) draw identical ladders for identical
	// snapshots — per-view model divergence across a cluster stays a matter
	// of replication lag, never of noise luck.
	seed := fnv.New64a()
	seed.Write([]byte(spec.ID))
	viewRng := rand.New(rand.NewSource(int64(seed.Sum64())))

	training := spec.Unified.Clone()
	viewSets, err := viewTrainingSets(viewRng, views, training)
	if err != nil {
		return nil, fmt.Errorf("%w: group %q views: %v", ErrBadConfig, spec.ID, err)
	}
	for i, vs := range viewSpecs {
		model := vs.Model
		if model == nil {
			if model = views[i].newModel(); model == nil {
				return nil, fmt.Errorf("%w: group %q model factory returned nil", ErrBadConfig, spec.ID)
			}
		}
		if err := model.Fit(viewSets[i]); err != nil {
			return nil, fmt.Errorf("protocol: train group %q model: %w", spec.ID, err)
		}
		views[i].model.Store(&model)
	}
	workers := spec.Workers
	if workers == 0 {
		workers = cfg.Workers
	}
	maxBatch := spec.MaxBatch
	if maxBatch == 0 {
		maxBatch = cfg.MaxBatch
	}
	members, err := memberSet(spec.ID, spec.Members)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	ingestDepth, jobDepth := shardIngestQueueDepth, shardJobQueueDepth
	if spec.QueueDepth > 0 {
		ingestDepth, jobDepth = spec.QueueDepth, spec.QueueDepth
	}
	ns := "service." + spec.ID + "."
	sh := &modelShard{
		id:            spec.ID,
		dim:           training.Dim(),
		workers:       workers,
		queueDepth:    ingestDepth,
		f32:           spec.Float32,
		views:         views,
		explicitViews: explicit,
		viewRng:       viewRng,
		canRefit:      canRefit,
		training:      training,
		jobs:          make(chan serviceJob, jobDepth),
		ingestQ:       make(chan serviceJob, ingestDepth),
		refitQ:        make(chan refitJob, 1),

		mRequests:      cfg.Metrics.Counter(ns + "requests"),
		mBatchSize:     cfg.Metrics.Histogram(ns + "batch_size"),
		mIngestChunks:  cfg.Metrics.Counter(ns + "ingest.chunks"),
		mIngestRecs:    cfg.Metrics.Counter(ns + "ingest.records"),
		mQueueDepth:    cfg.Metrics.Gauge(ns + "ingest.queue_depth"),
		mRefits:        cfg.Metrics.Counter(ns + "refit.count"),
		mRefitNanos:    cfg.Metrics.Histogram(ns + "refit.ns"),
		mRefitErrors:   cfg.Metrics.Counter(ns + "refit.errors"),
		mRefitInflight: cfg.Metrics.Gauge(ns + "refit.inflight"),
		mNotMember:     cfg.Metrics.Counter(ns + "rejects.not_member"),
		mBusy:          cfg.Metrics.Counter(ns + "rejects.busy"),
		mStaleness:     cfg.Metrics.Gauge(ns + "staleness_records"),
		mSyncInstalls:  cfg.Metrics.Counter(ns + "sync.installs"),
		mSyncRejects:   cfg.Metrics.Counter(ns + "sync.rejects"),
		mSyncSeq:       cfg.Metrics.Gauge(ns + "sync.seq"),
		mQuota:         cfg.Metrics.Counter(ns + "rejects.quota"),
		mRefitRetries:  cfg.Metrics.Counter(ns + "refit.retries"),
		mUnknownView:   cfg.Metrics.Counter(ns + "rejects.unknown_view"),
	}
	// Per-view instruments exist only for explicit multi-level groups;
	// implicit single-view groups keep their flat namespace unchanged.
	viewMetrics := metrics.Nop()
	if explicit {
		viewMetrics = cfg.Metrics
	}
	for _, v := range views {
		vns := ns + "view." + strconv.Itoa(v.level) + "."
		v.mRequests = viewMetrics.Counter(vns + "requests")
		v.mRefits = viewMetrics.Counter(vns + "refit.count")
		v.mSyncInstalls = viewMetrics.Counter(vns + "sync.installs")
		v.mSyncSeq = viewMetrics.Gauge(vns + "sync.seq")
	}
	sh.limits.Store(&shardLimits{
		maxBatch:   maxBatch,
		refitEvery: refitEvery,
		members:    members,
		quota:      newTokenBucket(spec.Quota),
		quotaCfg:   spec.Quota,
	})
	if cfg.OnModelSwap != nil {
		hook, group := cfg.OnModelSwap, spec.ID
		sh.onSwap = func(level int, m classify.Classifier) { hook(group, level, m) }
	}
	leader := spec.SyncFrom
	sh.syncFrom.Store(&leader)
	return sh, nil
}

// leader returns the endpoint this shard currently replicates from; empty
// when the shard leads its group.
func (sh *modelShard) leader() string { return *sh.syncFrom.Load() }

// admits reports whether the named peer may address this group.
func (sh *modelShard) admits(peer string) bool {
	members := sh.limits.Load().members
	if members == nil {
		return true
	}
	_, ok := members[peer]
	return ok
}

// stop drains and retires the shard's lanes: the ingest queue closes and
// drains first — queued chunks still fold in and answer — then the refit
// and prediction goroutines finish their queues and exit. Idempotent. Must
// not be called while new dispatches can still reach the shard (the caller
// removes it from the routing map first, under the service's write lock).
func (sh *modelShard) stop() {
	sh.stopOnce.Do(func() {
		close(sh.ingestQ)
		sh.ingestWg.Wait()
		// The ingest goroutine is the only refit scheduler; with it drained
		// the refit queue can close, and a scheduled refit still completes.
		close(sh.refitQ)
		close(sh.jobs)
		sh.workerWg.Wait()
		sh.refitWg.Wait()
	})
}

// MiningService is the miner-side classification endpoint: one model shard
// per serving group, each trained on that group's unified perturbed dataset,
// answering batched queries that arrive in the group's target space. This
// realizes the paper's service-oriented framing — the service provider
// "offers their data mining services to the contracted parties" — scaled to
// many contracts per process.
//
// Training sets are not frozen at construction: providers may keep pushing
// streamed chunks of perturbed, target-space records
// (ServiceClient.PushChunk feeding an internal/stream pipeline), which the
// addressed group folds into its training set and periodically refits on
// (ServiceConfig.RefitEvery, overridable per group). Refits run on a
// per-group background goroutine that fits a fresh model instance and
// atomically swaps it in, so a refit never blocks anyone's queries — not
// even the refitting group's own — and a group whose bounded queues
// overflow is answered with a typed busy rejection instead of stalling the
// shared receive loop.
type MiningService struct {
	conn transport.Conn
	cfg  ServiceConfig

	// mu guards the shard registry (shards, order) and the serve-lifecycle
	// flags: the receive loop holds the read lock across route + dispatch
	// (both non-blocking), while the admin control plane takes the write
	// lock to insert or remove a shard — so an evicted shard's queues close
	// only after every in-flight dispatch to it has finished.
	mu       sync.RWMutex
	shards   map[string]*modelShard
	order    []string // registration order, for Groups()
	stopping bool     // set by shutdown; registers are refused past it

	// out is the response channel into the single sender goroutine, set by
	// Serve before any shard starts; admin goroutines respond through it.
	out chan serviceOut
	// adminWg tracks in-flight admin register/evict goroutines so shutdown
	// waits them out before closing out.
	adminWg sync.WaitGroup

	// routes is the cluster routing table served to kindRoutes requests
	// (ServiceConfig.Routes, copied at construction; empty when standalone).
	routes []RouteEntry

	// mUnknownGroup counts frames addressed to groups this service does not
	// host — the one rejection with no shard namespace to land in.
	mUnknownGroup metrics.Counter
	// Admin control-plane instruments (service-wide).
	mAdminRegisters metrics.Counter // groups registered at runtime
	mAdminEvicts    metrics.Counter // groups evicted at runtime
	mAdminUpdates   metrics.Counter // in-place limit updates applied
	mAdminLists     metrics.Counter // list requests answered
	mAdminDenied    metrics.Counter // admin frames refused authentication
}

// NewMiningService trains the given classifier on the miner's unified
// dataset and binds a single-group service (under DefaultGroup) to a
// transport endpoint. The zero ServiceConfig selects the defaults.
func NewMiningService(conn transport.Conn, result *MinerResult, model classify.Classifier, cfg ServiceConfig) (*MiningService, error) {
	if result == nil || result.Unified == nil || result.Unified.Len() == 0 {
		return nil, fmt.Errorf("%w: no unified dataset", ErrBadConfig)
	}
	return NewGroupedMiningService(conn,
		[]GroupSpec{{ID: DefaultGroup, Unified: result.Unified, Model: model}}, cfg)
}

// NewGroupedMiningService trains one model shard per group and binds the
// sharded service to a transport endpoint. Group IDs must be unique; the
// zero ServiceConfig selects the defaults for every group.
func NewGroupedMiningService(conn transport.Conn, groups []GroupSpec, cfg ServiceConfig) (*MiningService, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no serving groups", ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	s := &MiningService{
		conn:            conn,
		cfg:             cfg,
		shards:          make(map[string]*modelShard, len(groups)),
		mUnknownGroup:   cfg.Metrics.Counter("service.rejects.unknown_group"),
		mAdminRegisters: cfg.Metrics.Counter("service.admin.registers"),
		mAdminEvicts:    cfg.Metrics.Counter("service.admin.evicts"),
		mAdminUpdates:   cfg.Metrics.Counter("service.admin.updates"),
		mAdminLists:     cfg.Metrics.Counter("service.admin.lists"),
		mAdminDenied:    cfg.Metrics.Counter("service.admin.denied"),
	}
	for _, r := range cfg.Routes {
		s.routes = append(s.routes, RouteEntry{
			Group: r.Group, Node: r.Node, Epoch: r.Epoch,
			Replicas: append([]string(nil), r.Replicas...)})
	}
	for _, spec := range groups {
		if _, dup := s.shards[spec.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate group id %q", ErrBadConfig, spec.ID)
		}
		sh, err := newModelShard(spec, cfg)
		if err != nil {
			return nil, err
		}
		s.shards[spec.ID] = sh
		s.order = append(s.order, spec.ID)
	}
	return s, nil
}

// Groups returns the hosted group IDs in registration order. Safe to call
// concurrently with Serve; the admin control plane may grow or shrink the
// set at runtime.
func (s *MiningService) Groups() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// shard looks a hosted group's shard up under the registry lock.
func (s *MiningService) shard(group string) (*modelShard, error) {
	s.mu.RLock()
	sh, ok := s.shards[group]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGroup, group)
	}
	return sh, nil
}

// Ingested returns the number of streamed records folded into training sets
// so far, summed over all groups. It is safe to call concurrently with
// Serve.
func (s *MiningService) Ingested() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sh := range s.shards {
		total += int(sh.ingested.Load())
	}
	return total
}

// GroupIngested returns one group's lifetime ingest count. It is safe to
// call concurrently with Serve.
func (s *MiningService) GroupIngested(group string) (int, error) {
	sh, err := s.shard(group)
	if err != nil {
		return 0, err
	}
	return int(sh.ingested.Load()), nil
}

// GroupModel returns one group's currently served primary-view classifier
// (the atomic the prediction workers load; multi-level groups' lower views
// come from GroupViewModels). The instance is never mutated after publish,
// so callers may encode it concurrently with serving; the cluster layer
// does, for anti-entropy re-pushes.
func (s *MiningService) GroupModel(group string) (classify.Classifier, error) {
	sh, err := s.shard(group)
	if err != nil {
		return nil, err
	}
	return *sh.primary().model.Load(), nil
}

// GroupViewModel pairs one trust view's level with its currently served
// classifier.
type GroupViewModel struct {
	Level int
	Model classify.Classifier
}

// GroupViewModels returns every view's currently served classifier in
// ascending level order. Levels follow the wire convention OnModelSwap
// uses: explicit multi-view groups report their real levels, single-view
// groups one entry at level 0, stampable on sync frames verbatim. The
// instances are never mutated after publish; the cluster layer encodes them
// concurrently with serving for per-view replication and anti-entropy
// re-pushes.
func (s *MiningService) GroupViewModels(group string) ([]GroupViewModel, error) {
	sh, err := s.shard(group)
	if err != nil {
		return nil, err
	}
	out := make([]GroupViewModel, len(sh.views))
	for i, v := range sh.views {
		out[i] = GroupViewModel{Level: sh.wireLevel(v), Model: *v.model.Load()}
	}
	return out, nil
}

// GroupSyncSeq returns the sequence of the last model sync one group
// installed across all of its views — the minimum per-view sequence, so a
// view that lagged the others is never skipped (0 if none). A promoted or
// restarted leader floors its own numbering at the sequences its replicas
// report. Safe to call concurrently with Serve.
func (s *MiningService) GroupSyncSeq(group string) (uint64, error) {
	sh, err := s.shard(group)
	if err != nil {
		return 0, err
	}
	return sh.minSyncSeq(), nil
}

// GroupSyncCovered returns the leader ingest count the group's last
// installed sync covered (the minimum across views). Safe to call
// concurrently with Serve.
func (s *MiningService) GroupSyncCovered(group string) (int64, error) {
	sh, err := s.shard(group)
	if err != nil {
		return 0, err
	}
	return sh.minSyncCovered(), nil
}

// SetGroupLead promotes one group's shard to leader at runtime: ingest is
// accepted again and model syncs are no longer authorized from anyone. The
// cluster layer calls it when failover elects this node, or when a
// higher-epoch row names it leader.
func (s *MiningService) SetGroupLead(group string) error {
	sh, err := s.shard(group)
	if err != nil {
		return err
	}
	leader := ""
	sh.syncFrom.Store(&leader)
	return nil
}

// SetGroupFollow demotes one group's shard to a read replica of the named
// leader at runtime: ingest is answered with ErrNotLeader and only the
// leader's model syncs install. The cluster layer calls it when a
// higher-epoch row demotes a restarted old leader.
func (s *MiningService) SetGroupFollow(group, leader string) error {
	if leader == "" {
		return fmt.Errorf("%w: empty sync source for group %q", ErrBadConfig, group)
	}
	sh, err := s.shard(group)
	if err != nil {
		return err
	}
	sh.syncFrom.Store(&leader)
	return nil
}

// ReportSyncLag sets one replica group's staleness_records gauge to the given
// record count. The cluster layer derives it from the gap between a leader
// hello's coverage and the replica's installed coverage; an install resets
// the gauge to zero.
func (s *MiningService) ReportSyncLag(group string, records int64) error {
	sh, err := s.shard(group)
	if err != nil {
		return err
	}
	if records < 0 {
		records = 0
	}
	sh.mStaleness.Set(records)
	return nil
}

// serviceJob is one accepted request travelling from the receive loop to the
// addressed shard's prediction pool (classify) or ingest goroutine (ingest).
type serviceJob struct {
	from string
	req  *serviceWire
}

// serviceOut is one encoded response travelling from a worker to the single
// sender goroutine (transport connections are not required to support
// concurrent writers).
type serviceOut struct {
	to      string
	payload []byte
}

// route resolves a request frame to its group's shard. A nil shard comes
// with a typed rejection response to send instead: the group is unknown, or
// the peer is not among the group's members.
func (s *MiningService) route(req *serviceWire, from string) (*modelShard, *serviceWire) {
	group := req.Group
	if group == "" {
		group = DefaultGroup
	}
	sh, ok := s.shards[group]
	if !ok {
		s.mUnknownGroup.Inc()
		return nil, &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
			Code: codeUnknownGroup, Err: fmt.Sprintf("no serving group %q", group)}
	}
	if req.Kind == kindModelSync {
		// Sync frames carry replacement models, so they are authorized
		// against the replica's current leader, not the Members ACL: only
		// the SyncFrom endpoint may install, and leader shards accept none.
		if leader := sh.leader(); leader == "" || from != leader {
			sh.mSyncRejects.Inc()
			return nil, suppressForSync(req, &serviceWire{
				ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
				Code: codeNotMember, Err: fmt.Sprintf("peer %q is not group %q's sync source", from, group)})
		}
		// The blob must name a view the group serves; view 0 installs to
		// the primary view (stamped here so installSync need not re-resolve,
		// but only on explicit multi-level groups — implicit groups keep
		// their frames untouched).
		if req.View != 0 && sh.viewAt(req.View) == nil {
			sh.mSyncRejects.Inc()
			sh.mUnknownView.Inc()
			return nil, suppressForSync(req, &serviceWire{
				ID: req.ID, Kind: req.Kind, Group: req.Group, View: req.View, Response: true,
				Code: codeUnknownView, Err: fmt.Sprintf("group %q has no view %d", group, req.View)})
		}
		if req.View == 0 && sh.explicitViews {
			req.View = sh.primary().level
		}
		return sh, nil
	}
	if !sh.admits(from) {
		sh.mNotMember.Inc()
		return nil, &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
			Code: codeNotMember, Err: fmt.Sprintf("peer %q is not a member of group %q", from, group)}
	}
	if req.Kind == kindIngest {
		if leader := sh.leader(); leader != "" {
			return nil, &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
				Code: codeNotLeader, Err: fmt.Sprintf("group %q is a read replica synced from %q", group, leader)}
		}
	}
	// Classify and ingest frames additionally resolve the trust view they
	// address — an explicit level must exist and admit the sender, level 0
	// routes to the sender's highest-authorized view.
	if code, msg := sh.resolveView(req, from); code != 0 {
		if code == codeUnknownView {
			sh.mUnknownView.Inc()
		} else {
			sh.mNotMember.Inc()
		}
		return nil, &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, View: req.View,
			Response: true, Code: code, Err: msg}
	}
	return sh, nil
}

// suppressForSync drops the response for fire-and-forget sync frames (ID 0)
// — their senders are not waiting — and passes it through otherwise.
func suppressForSync(req, resp *serviceWire) *serviceWire {
	if req.ID == 0 {
		return nil
	}
	return resp
}

// Serve answers classification and ingest requests until ctx is cancelled
// or the transport closes. Classify requests are dispatched to the
// addressed group's dedicated prediction pool (GroupSpec.Workers,
// defaulting to cfg.Workers goroutines per group) through a bounded
// per-group job queue; ingest requests are dispatched to the addressed
// group's dedicated ingest goroutine, so appends stay ordered within a
// group. When a group's queue is full the frame is answered immediately
// with a typed busy rejection (ErrBusy on the client) — the shared receive
// loop never blocks on one group's backlog, so a wedged group can never
// stall another group's traffic. Refits triggered by ingest run on a
// per-shard refit goroutine that fits a fresh model instance and atomically
// swaps it in (see modelShard), so the ingest lane stays responsive during
// even the slowest retrain. Responses funnel through one sender.
// Malformed frames are answered with a typed error response (or dropped
// when they cannot be attributed) rather than terminating the service.
func (s *MiningService) Serve(ctx context.Context) error {
	s.mu.Lock()
	// One response-buffer slot per prediction goroutine across all pools,
	// floored so runtime-registered shards (whose workers were unknown when
	// the channel was sized) still get slack.
	totalWorkers := 0
	for _, sh := range s.shards {
		totalWorkers += sh.workers
	}
	if totalWorkers < 64 {
		totalWorkers = 64
	}
	s.out = make(chan serviceOut, totalWorkers)
	out := s.out

	var senderWg sync.WaitGroup
	senderWg.Add(1)
	go func() {
		defer senderWg.Done()
		for o := range out {
			// Bound each response write so one peer that stops reading
			// cannot wedge the sender (and with it every worker) forever;
			// a timed-out connection is dropped by the transport and the
			// requester simply re-dials. The requester may also have gone
			// away entirely; either way, keep serving others.
			sendCtx, cancel := context.WithTimeout(ctx, serviceSendTimeout)
			_ = s.conn.Send(sendCtx, o.to, o.payload)
			cancel()
		}
	}()

	for _, sh := range s.shards {
		s.startShard(sh)
	}
	s.mu.Unlock()

	shutdown := func() {
		// Refuse new admin registrations, then wait out in-flight ones (they
		// respond through out, which is about to close).
		s.mu.Lock()
		s.stopping = true
		s.mu.Unlock()
		s.adminWg.Wait()
		s.mu.RLock()
		shards := make([]*modelShard, 0, len(s.shards))
		for _, sh := range s.shards {
			shards = append(shards, sh)
		}
		s.mu.RUnlock()
		// Per-shard stop drains each ingest queue before closing the refit
		// queue, so a scheduled refit still completes during shutdown —
		// refit counts stay deterministic for callers that stop the service
		// right after a push.
		for _, sh := range shards {
			sh.stop()
		}
		close(out)
		senderWg.Wait()
	}

	for {
		env, err := s.conn.Recv(ctx)
		if err != nil {
			shutdown()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
				errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		req, err := decodeServiceWire(env.Payload)
		switch {
		case req == nil && err == nil:
			continue // not a service frame; drop
		case errors.Is(err, ErrWireVersion):
			// Echo the routing context (ID, Kind, Group) whenever the frame
			// decoded, so ingest-side clients can attribute the rejection.
			resp := &serviceWire{Response: true, Code: codeWireVersion, Err: err.Error()}
			if req != nil {
				resp.ID, resp.Kind, resp.Group = req.ID, req.Kind, req.Group
			}
			if payload, encErr := encodeServiceWire(resp); encErr == nil {
				out <- serviceOut{to: env.From, payload: payload}
			}
			continue
		case err != nil || req.Response:
			continue // undecodable or stray response frame; drop
		}
		if req.Kind == kindRoutes {
			// Discovery is service-wide, not group-routed: any node answers
			// with the cluster table it was configured with (empty when
			// standalone), or a live epoch-stamped snapshot when the cluster
			// layer hooked RoutesFunc. Encoding a small table inline keeps the
			// admin path out of every shard's queues.
			entries, epoch := s.routes, uint64(0)
			if s.cfg.RoutesFunc != nil {
				entries, epoch = s.cfg.RoutesFunc()
			}
			resp := &serviceWire{ID: req.ID, Kind: kindRoutes, Response: true,
				Routes: entries, Epoch: epoch}
			if payload, encErr := encodeServiceWire(resp); encErr == nil {
				out <- serviceOut{to: env.From, payload: payload}
			}
			continue
		}
		if req.Kind == kindSyncHello || req.Kind == kindSyncState {
			// Durability gossip is cluster-layer business: hand the
			// observation to the hook (which must not block) and move on. A
			// standalone service without the hook just drops it — the frames
			// are fire-and-forget, nobody is waiting.
			if s.cfg.OnSyncGossip != nil {
				g := SyncGossip{
					Hello: req.Kind == kindSyncHello, From: env.From, Group: req.Group,
					Seq: req.Seq, Epoch: req.Epoch, Covered: req.Covered,
				}
				if len(req.Routes) > 0 {
					row := req.Routes[0]
					g.Row = &row
				}
				s.cfg.OnSyncGossip(g)
			}
			continue
		}
		if isAdminControl(req.Kind) {
			s.handleAdmin(req, env.From)
			continue
		}
		// The read lock spans route + dispatch (both non-blocking), so an
		// admin evict — which needs the write lock to unmap the shard —
		// cannot close the shard's queues while a dispatch to it is in
		// flight.
		s.mu.RLock()
		shard, reject := s.route(req, env.From)
		if shard != nil {
			reject = shard.dispatch(req, env.From)
		}
		s.mu.RUnlock()
		if reject != nil {
			if payload, encErr := encodeServiceWire(reject); encErr == nil {
				out <- serviceOut{to: env.From, payload: payload}
			}
		}
	}
}

// startShard spawns one shard's serving goroutines — prediction pool,
// ingest lane, refit loop — onto the shard's own wait groups, so the shard
// can later be stopped individually (admin evict) or collectively
// (shutdown). Called at Serve start for constructed shards and by the admin
// control plane for runtime registrations.
func (s *MiningService) startShard(sh *modelShard) {
	out := s.out
	for i := 0; i < sh.workers; i++ {
		sh.workerWg.Add(1)
		go func() {
			defer sh.workerWg.Done()
			for j := range sh.jobs {
				payload, err := encodeServiceWire(sh.handle(j.req))
				if err != nil {
					continue
				}
				out <- serviceOut{to: j.from, payload: payload}
			}
		}()
	}
	sh.ingestWg.Add(1)
	go func() {
		defer sh.ingestWg.Done()
		for j := range sh.ingestQ {
			if sh.ingestHold != nil {
				<-sh.ingestHold // test seam; see modelShard.ingestHold
			}
			// Paired with the enqueue-side Add(1): deltas stay exact
			// under concurrent enqueue/dequeue, where Set(len(chan))
			// from two goroutines could leave a stale last write.
			sh.mQueueDepth.Add(-1)
			// Model syncs share the ingest lane so installs stay ordered
			// with respect to each other; a nil response is a suppressed
			// fire-and-forget acknowledgement.
			var resp *serviceWire
			if j.req.Kind == kindModelSync {
				resp = sh.installSync(j.req)
				// route() admitted the frame only from the shard's
				// current sync source, so even a replayed sequence
				// proves the leader is alive and publishing.
				if s.cfg.OnModelSync != nil {
					s.cfg.OnModelSync(sh.id, j.from, j.req.Seq)
				}
			} else {
				resp = sh.ingest(j.req)
			}
			if resp == nil {
				continue
			}
			payload, err := encodeServiceWire(resp)
			if err != nil {
				continue
			}
			out <- serviceOut{to: j.from, payload: payload}
		}
	}()
	sh.refitWg.Add(1)
	go func() {
		defer sh.refitWg.Done()
		sh.refitLoop(s.cfg.RefitRetry)
	}()
}

// refitLoop drains the shard's refit queue. A failed refit is parked and
// re-attempted after the retry delay (refit.retries), so a transient fit
// failure heals without waiting for the next ingest to cross the cadence; a
// newer scheduled snapshot supersedes the parked one. Runs on the shard's
// refit goroutine until the queue closes.
func (sh *modelShard) refitLoop(retry time.Duration) {
	var pending *refitJob
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	defer stopTimer()
	run := func(job refitJob) {
		if sh.refit(job) || retry <= 0 {
			pending = nil
			stopTimer()
			return
		}
		pending = &job // the snapshot is this goroutine's own clone; retry re-fits it
		stopTimer()
		timer = time.NewTimer(retry)
		timerC = timer.C
	}
	for {
		select {
		case job, ok := <-sh.refitQ:
			if !ok {
				return
			}
			run(job)
		case <-timerC:
			timer, timerC = nil, nil
			if pending == nil {
				continue
			}
			sh.mRefitRetries.Inc()
			run(*pending)
		}
	}
}

// dispatch hands an accepted request to the shard's ingest goroutine or
// prediction pool without ever blocking the caller (the shared receive
// loop). A full queue returns an immediate typed busy rejection — the
// explicit backpressure answer: the client fails fast and retries with
// backoff instead of every group's traffic queueing behind one group's
// backlog.
func (sh *modelShard) dispatch(req *serviceWire, from string) *serviceWire {
	if req.Kind == kindIngest {
		// The quota gate runs before the queue, so an over-quota chunk answers
		// a typed ErrQuota within one round trip and never occupies queue
		// space a within-quota producer could use. Model syncs are exempt —
		// replication is the service's own traffic, not a tenant's.
		if q := sh.limits.Load().quota; q != nil && !q.take(float64(len(req.Batch))) {
			sh.mQuota.Inc()
			return &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
				Code: codeQuota, Err: fmt.Sprintf("group %q ingest quota exhausted", sh.id)}
		}
	}
	if req.Kind == kindIngest || req.Kind == kindModelSync {
		// Increment before the send so the dequeuer's Add(-1) — which can
		// only run after the send completes — never drives the gauge below
		// zero; the busy path undoes it. Model syncs ride the same lane so
		// installs serialize with each other; a busy rejection is silent
		// for fire-and-forget syncs (the leader re-publishes on the next
		// refit anyway).
		sh.mQueueDepth.Add(1)
		select {
		case sh.ingestQ <- serviceJob{from: from, req: req}:
			return nil
		default:
			sh.mQueueDepth.Add(-1)
			sh.mBusy.Inc()
			reject := &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
				Code: codeBusy, Err: fmt.Sprintf("group %q ingest queue full", sh.id)}
			if req.Kind == kindModelSync {
				return suppressForSync(req, reject)
			}
			return reject
		}
	}
	select {
	case sh.jobs <- serviceJob{from: from, req: req}:
		return nil
	default:
		sh.mBusy.Inc()
		return &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true,
			Code: codeBusy, Err: fmt.Sprintf("group %q prediction queue full", sh.id)}
	}
}

// ingest validates one streamed chunk, folds it into the shard's training
// set, and schedules a background refit when the refit cadence is reached —
// the fold is an append plus a snapshot handoff, so the ingest lane's
// latency stays flat no matter how slow the model's Fit is. Called only
// from the shard's ingest goroutine.
func (sh *modelShard) ingest(req *serviceWire) *serviceWire {
	// Ingest feeds the group's shared training set, so the resolved view
	// (stamped by route) only matters for authorization and the echo here.
	resp := &serviceWire{ID: req.ID, Kind: kindIngest, Group: req.Group, View: req.View, Response: true}
	lim := sh.limits.Load()
	if len(req.Batch) == 0 {
		resp.Code, resp.Err = codeBadChunk, "empty chunk"
		return resp
	}
	if len(req.Batch) > lim.maxBatch {
		resp.Code, resp.Err = codeBatchTooLarge,
			fmt.Sprintf("chunk has %d records, cap is %d", len(req.Batch), lim.maxBatch)
		return resp
	}
	if len(req.Labels) != len(req.Batch) {
		resp.Code, resp.Err = codeBadChunk,
			fmt.Sprintf("%d labels for %d records", len(req.Labels), len(req.Batch))
		return resp
	}
	for i, rec := range req.Batch {
		if len(rec) != sh.dim {
			resp.Code, resp.Err = codeBadChunk,
				fmt.Sprintf("record %d has %d features, want %d", i, len(rec), sh.dim)
			return resp
		}
		if req.Labels[i] < 0 {
			resp.Code, resp.Err = codeBadChunk, fmt.Sprintf("record %d has a negative label", i)
			return resp
		}
	}
	for i, rec := range req.Batch {
		sh.training.X = append(sh.training.X, append([]float64(nil), rec...))
		sh.training.Y = append(sh.training.Y, req.Labels[i])
	}
	sh.sinceRefit += len(req.Batch)
	sh.ingested.Add(int64(len(req.Batch)))
	sh.stale.Add(int64(len(req.Batch)))
	sh.mIngestChunks.Inc()
	sh.mIngestRecs.Add(int64(len(req.Batch)))
	sh.mStaleness.Add(int64(len(req.Batch)))
	resp.Accepted = sh.training.Len()
	// A background refit that failed since the last ingest answer is
	// reported exactly once, on the earliest ingest response: the chunk IS
	// in the training set (Accepted reflects that) but the live model lags
	// it, so the pusher learns not to re-push while the service keeps
	// serving on the previous fit. A successful refit clears the pending
	// report — the model caught up, there is no lag left to announce. The
	// check runs before this chunk's own scheduling, so a response never
	// reports the refit it just triggered, however fast that refit fails.
	if msg := sh.refitFail.Swap(nil); msg != nil {
		resp.Code, resp.Err = codeRefit, *msg
	}
	if lim.refitEvery > 0 && sh.sinceRefit >= lim.refitEvery && sh.scheduleRefit() {
		sh.sinceRefit = 0
	}
	return resp
}

// scheduleRefit hands a snapshot of the grown training set to the shard's
// refit goroutine. It never blocks: when the single-slot queue is already
// holding a pending refit the schedule is declined — the caller keeps
// sinceRefit accumulating and re-triggers on a later chunk, so refits
// coalesce instead of queueing without bound behind a slow Fit. Called only
// from the shard's ingest goroutine (the single producer, which makes the
// length check race-free).
func (sh *modelShard) scheduleRefit() bool {
	if len(sh.refitQ) == cap(sh.refitQ) {
		return false
	}
	// The snapshot covers every record appended so far, which is exactly
	// the current staleness count (both are written only by this
	// goroutine), so a successful fit can retire precisely that many
	// records from the gauge — records arriving during the fit stay stale.
	sh.refitQ <- refitJob{snapshot: sh.training.Clone(), stale: sh.stale.Load()}
	return true
}

// refit fits a fresh classifier instance per view on the snapshot — every
// view from the same coalesced snapshot under one jointly drawn noise ladder
// — and atomically publishes them on success (true). The live models are
// read-only throughout — workers keep predicting on the previous fits
// lock-free — and a failed fit (false) publishes nothing: either all views
// advance together or none does, so no coalition ever sees views fitted on
// different data rounds. The failure is recorded for the next ingest
// response (codeRefit), the refit.errors counter, and the refit loop's retry
// timer. Called only from the shard's refit goroutine.
func (sh *modelShard) refit(job refitJob) bool {
	sh.mRefitInflight.Set(1)
	defer sh.mRefitInflight.Set(0)
	start := time.Now()
	// Record the pending report before bumping the counter, so anyone who
	// observed the counter is guaranteed to find (or have raced another
	// reader for) the report.
	fail := func(msg string) bool {
		sh.refitFail.Store(&msg)
		sh.mRefitErrors.Inc()
		return false
	}
	viewSets, err := viewTrainingSets(sh.viewRng, sh.views, job.snapshot)
	if err != nil {
		return fail(fmt.Sprintf("protocol: refit group %q views: %v", sh.id, err))
	}
	fresh := make([]classify.Classifier, len(sh.views))
	for i, v := range sh.views {
		var model classify.Classifier
		if v.newModel != nil {
			model = v.newModel()
		}
		if model == nil {
			return fail(fmt.Sprintf("protocol: refit group %q model: factory returned nil", sh.id))
		}
		if err := model.Fit(viewSets[i]); err != nil {
			return fail(fmt.Sprintf("protocol: refit group %q model: %v", sh.id, err))
		}
		fresh[i] = model
	}
	// Publish every view, then fire the swap hooks: a replicator draining
	// the hooks always observes one consistent fit round.
	for i, v := range sh.views {
		m := fresh[i]
		v.model.Store(&m)
		v.mRefits.Inc()
	}
	sh.refitFail.Store(nil)
	// The fresh fits cover the snapshot's records: retire them from the
	// staleness gauge, leaving only what streamed in while they were
	// fitting.
	sh.stale.Add(-job.stale)
	sh.mStaleness.Add(-job.stale)
	// Count and time only completed refits, so refit.ns.sum/refit.count is
	// a true mean duration; failed attempts are visible via refit.errors.
	sh.mRefits.Inc()
	metrics.Time(sh.mRefitNanos, start)
	if sh.onSwap != nil {
		for i, v := range sh.views {
			sh.onSwap(sh.wireLevel(v), fresh[i])
		}
	}
	return true
}

// installSync installs one leader-replicated model on a replica shard:
// decode the blob, check the sequence is newer than the last install, and
// publish with the same atomic store a local refit would use — prediction
// workers never block. Stale or duplicate sequences are ignored (idempotent
// re-delivery), counted under sync.rejects. Called only from the shard's
// ingest goroutine, which serializes installs. A nil response means the
// frame was fire-and-forget (ID 0) and expects no answer.
func (sh *modelShard) installSync(req *serviceWire) *serviceWire {
	resp := &serviceWire{ID: req.ID, Kind: kindModelSync, Group: req.Group, View: req.View, Response: true}
	// route() already verified an explicit view exists and normalized view 0
	// on multi-level groups; the primary fallback covers implicit groups
	// (whose frames keep View 0 end to end).
	v := sh.viewAt(req.View)
	if v == nil {
		v = sh.primary()
	}
	if req.Seq <= v.syncSeq.Load() {
		// Re-delivered or reordered frame: the newer model is already live,
		// so this is an idempotent success, not an error.
		sh.mSyncRejects.Inc()
		return suppressForSync(req, resp)
	}
	model, err := classify.DecodeModel(req.Model)
	if err != nil {
		sh.mSyncRejects.Inc()
		resp.Code, resp.Err = codeBadChunk, fmt.Sprintf("model sync: %v", err)
		return suppressForSync(req, resp)
	}
	v.model.Store(&model)
	v.syncSeq.Store(req.Seq)
	v.syncCovered.Store(req.Covered)
	sh.mSyncInstalls.Inc()
	v.mSyncInstalls.Inc()
	v.mSyncSeq.Set(int64(req.Seq))
	// The group-level gauge tracks the low-water mark across views, the
	// same conservative cursor the restart handshake reports.
	sh.mSyncSeq.Set(int64(sh.minSyncSeq()))
	// An install catches the replica up to the leader's published fit: any
	// staleness a hello reported is covered now.
	sh.mStaleness.Set(0)
	resp.Accepted = sh.training.Len()
	return suppressForSync(req, resp)
}

// handle validates one classify request and predicts every record in its
// batch. The model is loaded once per batch with an atomic pointer read —
// no lock is shared with refits, which publish whole replacement instances.
func (sh *modelShard) handle(req *serviceWire) *serviceWire {
	sh.mRequests.Inc()
	sh.mBatchSize.Observe(int64(len(req.Batch)))
	// route() resolved and stamped the view; the primary fallback covers
	// implicit groups, whose frames keep View 0 end to end.
	view := sh.viewAt(req.View)
	if view == nil {
		view = sh.primary()
	}
	view.mRequests.Inc()
	resp := &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, View: req.View, Response: true}
	if len(req.Batch) == 0 {
		resp.Code, resp.Err = codeBadQuery, "empty batch"
		return resp
	}
	if maxBatch := sh.limits.Load().maxBatch; len(req.Batch) > maxBatch {
		resp.Code, resp.Err = codeBatchTooLarge,
			fmt.Sprintf("batch has %d records, cap is %d", len(req.Batch), maxBatch)
		return resp
	}
	labels := make([]int, len(req.Batch))
	model := *view.model.Load()
	for i, rec := range req.Batch {
		if len(rec) != sh.dim {
			resp.Code, resp.Err = codeBadQuery,
				fmt.Sprintf("record %d has %d features, want %d", i, len(rec), sh.dim)
			return resp
		}
		label, err := model.Predict(rec)
		if err != nil {
			resp.Code, resp.Err = codeInternal, err.Error()
			return resp
		}
		labels[i] = label
	}
	resp.Labels = labels
	return resp
}

// handleAdmin executes one authenticated admin control frame. List and
// update are cheap and answer inline on the receive loop; register (which
// fits a model) and evict (which drains queues) run on their own goroutine,
// tracked by adminWg so shutdown waits out their responses. Called only from
// the receive loop.
func (s *MiningService) handleAdmin(req *serviceWire, from string) {
	resp := &serviceWire{ID: req.ID, Kind: req.Kind, Group: req.Group, Response: true}
	if !adminTokenOK(s.cfg.AdminToken, req.Token) {
		s.mAdminDenied.Inc()
		resp.Code = codeAdminDenied
		if s.cfg.AdminToken == "" {
			resp.Err = "admin interface disabled (no admin token configured)"
		} else {
			resp.Err = "bad admin token"
		}
		s.respond(req, from, resp)
		return
	}
	switch req.Kind {
	case kindAdminList:
		s.mAdminLists.Inc()
		resp.Infos = s.listGroups()
		s.respond(req, from, resp)
	case kindAdminUpdate:
		s.adminUpdate(req, resp)
		s.respond(req, from, resp)
	case kindAdminRegister:
		s.adminWg.Add(1)
		go func() {
			defer s.adminWg.Done()
			s.adminRegister(req.Spec, resp)
			s.respond(req, from, resp)
		}()
	case kindAdminEvict:
		s.adminWg.Add(1)
		go func() {
			defer s.adminWg.Done()
			s.adminEvict(req.Group, resp)
			s.respond(req, from, resp)
		}()
	}
}

// respond encodes and queues one admin response toward its requester.
func (s *MiningService) respond(req *serviceWire, to string, resp *serviceWire) {
	if payload, err := encodeServiceWire(resp); err == nil {
		s.out <- serviceOut{to: to, payload: payload}
	}
}

// adminRegister stands a new group up at runtime: validate and fit off the
// registry lock (the expensive part — the receive loop keeps serving), then
// insert and start the shard under the write lock. The duplicate pre-check
// is advisory; the post-fit re-check under the lock is authoritative.
func (s *MiningService) adminRegister(spec *AdminGroupSpec, resp *serviceWire) {
	if spec == nil {
		resp.Code, resp.Err = codeBadQuery, "register without a group spec"
		return
	}
	s.mu.RLock()
	_, dup := s.shards[spec.ID]
	s.mu.RUnlock()
	if dup {
		resp.Code, resp.Err = codeGroupExists, fmt.Sprintf("group %q already hosted", spec.ID)
		return
	}
	gs, err := spec.groupSpec()
	if err != nil {
		resp.Code, resp.Err = codeBadQuery, err.Error()
		return
	}
	sh, err := newModelShard(gs, s.cfg)
	if err != nil {
		resp.Code, resp.Err = codeBadQuery, err.Error()
		return
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		resp.Code, resp.Err = codeInternal, "service shutting down"
		return
	}
	if _, dup := s.shards[sh.id]; dup {
		s.mu.Unlock()
		resp.Code, resp.Err = codeGroupExists, fmt.Sprintf("group %q already hosted", sh.id)
		return
	}
	s.shards[sh.id] = sh
	s.order = append(s.order, sh.id)
	s.startShard(sh)
	resp.Accepted = sh.training.Len()
	s.mu.Unlock()
	s.mAdminRegisters.Inc()
	if s.cfg.OnGroupRegistered != nil {
		s.cfg.OnGroupRegistered(sh.id, sh.f32)
	}
}

// adminEvict removes a group at runtime: unmap it under the write lock — the
// receive loop's read lock spans route + dispatch, so once the lock is ours
// no new frame can reach the shard — then drain and stop its goroutines
// outside any lock. Queued chunks still fold in before the shard dies.
func (s *MiningService) adminEvict(group string, resp *serviceWire) {
	if group == "" {
		resp.Code, resp.Err = codeBadQuery, "evict without a group"
		return
	}
	s.mu.Lock()
	sh, ok := s.shards[group]
	if ok {
		delete(s.shards, group)
		for i, id := range s.order {
			if id == group {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		resp.Code, resp.Err = codeUnknownGroup, fmt.Sprintf("no serving group %q", group)
		return
	}
	sh.stop()
	s.mAdminEvicts.Inc()
	if s.cfg.OnGroupEvicted != nil {
		s.cfg.OnGroupEvicted(group)
	}
}

// adminUpdate applies an in-place limits update to a live group. Cheap
// enough to run inline on the receive loop, which also makes it the single
// writer of every shard's limits pointer.
func (s *MiningService) adminUpdate(req, resp *serviceWire) {
	if req.Update == nil {
		resp.Code, resp.Err = codeBadQuery, "update without changes"
		return
	}
	s.mu.RLock()
	sh, ok := s.shards[req.Group]
	s.mu.RUnlock()
	if !ok {
		resp.Code, resp.Err = codeUnknownGroup, fmt.Sprintf("no serving group %q", req.Group)
		return
	}
	if err := sh.applyUpdate(req.Update); err != nil {
		resp.Code, resp.Err = codeBadQuery, err.Error()
		return
	}
	s.mAdminUpdates.Inc()
}

// listGroups snapshots every hosted group for a kindAdminList answer, in
// registration order.
func (s *MiningService) listGroups() []AdminGroupInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]AdminGroupInfo, 0, len(s.order))
	for _, id := range s.order {
		sh := s.shards[id]
		lim := sh.limits.Load()
		info := AdminGroupInfo{
			ID:         sh.id,
			Workers:    sh.workers,
			MaxBatch:   lim.maxBatch,
			RefitEvery: lim.refitEvery,
			QueueDepth: sh.queueDepth,
			Members:    sortedMembers(lim.members),
			SyncFrom:   sh.leader(),
			Float32:    sh.f32,
			Quota:      lim.quotaCfg,
			Ingested:   sh.ingested.Load(),
		}
		if sh.explicitViews {
			for _, v := range sh.views {
				info.Views = append(info.Views, AdminViewInfo{
					Level:      v.level,
					NoiseSigma: v.sigma,
					Members:    sortedMembers(*v.members.Load()),
				})
			}
		}
		infos = append(infos, info)
	}
	return infos
}
