package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// syncSendTimeout bounds one model-sync write to a replica so a wedged link
// cannot stall the publisher loop (and with it every other group's
// replication) indefinitely.
const syncSendTimeout = 10 * time.Second

// Durability defaults.
const (
	// DefaultAntiEntropyEvery is the gossip cadence applied when
	// NodeConfig.AntiEntropyEvery is zero: how often leaders hello their
	// replicas and replicas answer their installed state.
	DefaultAntiEntropyEvery = time.Second
	// DefaultFailoverGrace is the leader-silence window applied when
	// NodeConfig.FailoverGrace is zero: a group's first-ranked replica
	// assumes leadership after its leader has been silent this long (the
	// i-th ranked replica waits (i+1)× as long, so dead successors are
	// covered without an election).
	DefaultFailoverGrace = 10 * time.Second
)

// gossipQueueDepth bounds the hand-off queue between the serving loop
// (which must never block) and the node's syncer goroutine. A full queue
// drops the observation — the next anti-entropy round repeats it.
const gossipQueueDepth = 64

// NodeConfig assembles one cluster node.
type NodeConfig struct {
	// Name is this node's transport endpoint name; table rows naming it are
	// the groups it hosts. Required.
	Name string
	// Conn is the node's transport endpoint (its name must match Name so
	// peers' replies and the replicas' SyncFrom authorization line up).
	// Required. Both built-in transports (in-memory and TCP) are safe for the
	// concurrent senders a node runs: the serving loop's responder, the
	// leader's replication publisher and the durability syncer share this
	// conn.
	Conn transport.Conn
	// Table is the cluster routing table. Every node must be constructed from
	// the same table (rendezvous tables guarantee this by derivation);
	// Required.
	Table *Table
	// Groups is the full cluster group list — every node receives the same
	// slice and hosts only the groups whose table row names it, as leader
	// (row's Node) or read replica (listed in the row's Replicas). Specs must
	// not pre-set SyncFrom; the table decides roles. Required, and at least
	// one group must land on this node.
	Groups []protocol.GroupSpec
	// Service carries the serving knobs (workers, batch caps, refit cadence,
	// metrics) applied to the hosted groups. RoutesFunc is overwritten with
	// the node's live table snapshot; OnModelSwap and OnSyncGossip are
	// chained after the node's own hooks if set.
	Service protocol.ServiceConfig
	// AntiEntropyEvery is the durability-gossip cadence: leaders hello each
	// replica of their replicated groups with (seq, epoch, coverage, row),
	// replicas answer their installed state, and both sides repair from the
	// answers — the restart handshake, the anti-entropy re-push and failover
	// detection all ride these rounds. Zero selects
	// DefaultAntiEntropyEvery; negative disables the gossip entirely
	// (PR 6 behaviour: fire-and-forget replication only).
	AntiEntropyEvery time.Duration
	// FailoverGrace is how long a followed group's leader may stay silent
	// before this node considers it dead: the group's rank-i replica assumes
	// leadership after (i+1)×FailoverGrace without leader contact,
	// announcing the promoted row under a bumped table epoch. Zero selects
	// DefaultFailoverGrace; negative disables failover (groups park on a
	// dead leader, as before). Failover requires the gossip to be enabled.
	FailoverGrace time.Duration
}

// pendingSync is one group's latest unreplicated fit: per trust view, the
// classifier the refit just published (latest wins per view — a fresher
// swap for the same view replaces an unsent one), plus the leader's ingest
// count at publication, the coverage mark the lag gauge measures against.
// Views use the wire convention of ServiceConfig.OnModelSwap: real levels
// for explicit multi-view groups, 0 for a single-view group's sole implicit
// view — the level is stamped on the sync frame verbatim, so single-view
// groups keep their pre-view wire bytes.
type pendingSync struct {
	models   map[int]classify.Classifier
	ingested int64
}

// Node is one miner process in a cluster: a MiningService hosting the table's
// share of groups, a replication publisher that streams each successful
// refit's swapped classifier to the group's followers, and a durability
// syncer that keeps the cluster converging under restarts and partitions.
// The syncer runs three repairs over one gossip exchange (see
// ARCHITECTURE.md, "Cluster durability"):
//
//   - sequence handshake: replicas answer their installed Seq, and a
//     (re)started leader floors its numbering there, so its next publish
//     installs instead of being rejected;
//   - anti-entropy: a replica reporting an older Seq gets the current model
//     re-pushed immediately, driving staleness_records back to zero without
//     waiting for the next refit;
//   - failover: when a leader stays silent past the grace period, the
//     next-ranked replica promotes itself, re-announcing the group's row
//     under the row's epoch + 1; nodes and clients merge rows per group by
//     epoch (equal-epoch races settle by a deterministic tie-break), so
//     concurrent failovers of different groups never displace each other.
//
// Construct with NewNode, run with Serve.
type Node struct {
	name    string
	conn    transport.Conn
	svc     *protocol.MiningService
	aeEvery time.Duration // <= 0: durability gossip disabled
	grace   time.Duration // <= 0: failover disabled

	// Dynamic cluster state, all guarded by mu: the hosted-group list (table
	// order, grown and shrunk at runtime by the admin control plane's
	// register/evict hooks), the float32 payload preference per hosted group
	// (GroupSpec.Float32: their model syncs ship packed-float32 blobs), this
	// node's per-group rows (each carrying its own epoch; failover adoption
	// replaces individual rows), the leader-side sequence/coverage counters,
	// the handshake floor state, the replication queues and the
	// per-followed-group leader-contact clocks. base is the construction-time table, served
	// verbatim for the groups this node does not host.
	mu      sync.Mutex
	hosted  []string
	f32     map[string]bool
	base    []protocol.RouteEntry
	rows    map[string]protocol.RouteEntry
	seq     map[string]uint64
	covered map[string]int64
	// modelSeq/modelCov are the sequence and coverage the group's currently
	// served model actually corresponds to — set when this node publishes a
	// model it fitted, or floored at the installed sync state when a
	// promotion makes a replica's model the group's serving one. The seq
	// counter alone is not enough: a restarted leader floors seq at its
	// replicas' installed state while still serving its freshly constructed
	// model, and an anti-entropy push of that model under the floored
	// sequence would overwrite a replica's trained model with an untrained
	// one. Re-pushes only ever send a model at its own modelSeq.
	modelSeq map[string]uint64
	modelCov map[string]int64
	floored  map[string]bool      // led group's numbering confirmed by a replica state
	floorBy  map[string]time.Time // fallback: publish unfloored after this instant
	pending  map[string]pendingSync
	repush   map[string]map[string]struct{} // group -> replicas owed an anti-entropy push
	// lastSync records, per led group and replica, when a model sync was
	// last sent there. A state answer claiming the replica is behind is
	// ignored while a sync is this recent: gossip states are generated
	// asynchronously, so one produced while a just-published model is still
	// in flight (or queued behind the replica's ingest lane) reports the old
	// sequence — re-pushing on that evidence just earns an idempotent
	// reject. A publish stamps every replica under the same lock that
	// advances modelSeq, and again once each send returns, so no state
	// answer can fall between the two. A genuinely lost frame still reports
	// behind on the next round, after the window, and is repaired then.
	lastSync map[string]map[string]time.Time
	contact  map[string]time.Time // followed group -> last leader contact

	notify  chan struct{}
	gossipQ chan protocol.SyncGossip

	// lagBase is, per hosted group, the leader ingest count the last fully
	// replicated model covered; the replica-lag gauge reads current ingested
	// minus this for the groups this node currently leads with replicas.
	lagBase map[string]*atomic.Int64

	mSyncPublished metrics.Counter // model syncs sent (one per replica per fit)
	mSyncErrors    metrics.Counter // encode or send failures while replicating
	mAEPushes      metrics.Counter // anti-entropy re-pushes sent to lagging replicas
	mPromotions    metrics.Counter // groups this node assumed leadership of
	mDemotions     metrics.Counter // led groups a higher-epoch row took away
	mFloors        metrics.Counter // led groups whose numbering a replica state floored
}

// NewNode partitions cfg.Groups against the routing table and assembles this
// node's share: groups whose row names it as leader are hosted as ordinary
// refitting shards, groups listing it as a replica are hosted with
// SyncFrom pointed at the row's leader (ingest refused, model advanced by
// installed syncs). Groups routed elsewhere are skipped; a node the table
// assigns nothing is a configuration error (ErrNoGroups). Roles are initial:
// failover and higher-epoch gossip may flip them while the node serves.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty node name", ErrBadNode)
	}
	if cfg.Conn == nil {
		return nil, fmt.Errorf("%w: nil conn", ErrBadNode)
	}
	if cfg.Table == nil {
		return nil, fmt.Errorf("%w: nil routing table", ErrBadNode)
	}
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrBadNode)
	}
	aeEvery := cfg.AntiEntropyEvery
	if aeEvery == 0 {
		aeEvery = DefaultAntiEntropyEvery
	}
	grace := cfg.FailoverGrace
	if grace == 0 {
		grace = DefaultFailoverGrace
	}
	n := &Node{
		name:     cfg.Name,
		conn:     cfg.Conn,
		aeEvery:  aeEvery,
		grace:    grace,
		rows:     make(map[string]protocol.RouteEntry),
		seq:      make(map[string]uint64),
		covered:  make(map[string]int64),
		modelSeq: make(map[string]uint64),
		modelCov: make(map[string]int64),
		floored:  make(map[string]bool),
		floorBy:  make(map[string]time.Time),
		pending:  make(map[string]pendingSync),
		repush:   make(map[string]map[string]struct{}),
		lastSync: make(map[string]map[string]time.Time),
		contact:  make(map[string]time.Time),
		notify:   make(chan struct{}, 1),
		gossipQ:  make(chan protocol.SyncGossip, gossipQueueDepth),
		lagBase:  make(map[string]*atomic.Int64),
		f32:      make(map[string]bool),
	}
	for _, e := range cfg.Table.Entries() {
		n.base = append(n.base, copyRow(e))
	}

	var hosted []protocol.GroupSpec
	for _, spec := range cfg.Groups {
		if spec.SyncFrom != "" {
			return nil, fmt.Errorf("%w: group %q pre-sets SyncFrom; roles come from the table",
				ErrBadNode, spec.ID)
		}
		route, ok := cfg.Table.Route(spec.ID)
		if !ok {
			return nil, fmt.Errorf("%w: group %q has no routing-table row", ErrBadNode, spec.ID)
		}
		switch {
		case route.Node == cfg.Name:
			hosted = append(hosted, spec)
		case contains(route.Replicas, cfg.Name):
			spec.SyncFrom = route.Node
			hosted = append(hosted, spec)
		default:
			continue
		}
		n.hosted = append(n.hosted, spec.ID)
		n.rows[spec.ID] = route
		n.lagBase[spec.ID] = &atomic.Int64{}
		n.f32[spec.ID] = spec.Float32
	}
	if len(hosted) == 0 {
		return nil, fmt.Errorf("%w: table routes nothing to %q", ErrNoGroups, cfg.Name)
	}

	svcCfg := cfg.Service
	svcCfg.Routes = nil
	svcCfg.RoutesFunc = n.routesSnapshot
	prevSwap := svcCfg.OnModelSwap
	svcCfg.OnModelSwap = func(group string, view int, model classify.Classifier) {
		if prevSwap != nil {
			prevSwap(group, view, model)
		}
		n.enqueueSync(group, view, model)
	}
	prevGossip := svcCfg.OnSyncGossip
	svcCfg.OnSyncGossip = func(g protocol.SyncGossip) {
		if prevGossip != nil {
			prevGossip(g)
		}
		n.offerGossip(g)
	}
	prevSync := svcCfg.OnModelSync
	svcCfg.OnModelSync = func(group, from string, seq uint64) {
		if prevSync != nil {
			prevSync(group, from, seq)
		}
		n.noteSyncContact(group, from)
	}
	prevReg := svcCfg.OnGroupRegistered
	svcCfg.OnGroupRegistered = func(group string, f32 bool) {
		if prevReg != nil {
			prevReg(group, f32)
		}
		n.addGroup(group, f32)
	}
	prevEvict := svcCfg.OnGroupEvicted
	svcCfg.OnGroupEvicted = func(group string) {
		if prevEvict != nil {
			prevEvict(group)
		}
		n.dropGroup(group)
	}
	svc, err := protocol.NewGroupedMiningService(cfg.Conn, hosted, svcCfg)
	if err != nil {
		return nil, err
	}
	n.svc = svc

	m := svcCfg.Metrics
	if m == nil {
		m = metrics.Nop()
	}
	n.mSyncPublished = m.Counter("cluster.sync_published")
	n.mSyncErrors = m.Counter("cluster.sync_errors")
	n.mAEPushes = m.Counter("cluster.anti_entropy_pushes")
	n.mPromotions = m.Counter("cluster.failover_promotions")
	n.mDemotions = m.Counter("cluster.failover_demotions")
	n.mFloors = m.Counter("cluster.handshake_floors")
	if fg, ok := m.(metrics.FuncGauges); ok {
		fg.GaugeFunc("cluster.replica_lag_records", n.replicaLag)
	}
	return n, nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

func copyRow(e protocol.RouteEntry) protocol.RouteEntry {
	return protocol.RouteEntry{
		Group: e.Group, Node: e.Node, Epoch: e.Epoch,
		Replicas: append([]string(nil), e.Replicas...)}
}

// Name returns the node's endpoint name.
func (n *Node) Name() string { return n.name }

// addGroup folds a runtime-registered group (the admin control plane's
// OnGroupRegistered hook) into the node's cluster state: this node leads it
// with no replicas, under a row epoch above every row this node serves, so
// the new row outranks any stale assignment a peer or client may hold and
// spreads through the existing gossip/refresh machinery — clients discover
// the group on their next routes refresh, without any restart.
func (n *Node) addGroup(group string, f32 bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var max uint64
	for _, e := range n.base {
		if e.Epoch > max {
			max = e.Epoch
		}
	}
	for _, row := range n.rows {
		if row.Epoch > max {
			max = row.Epoch
		}
	}
	n.rows[group] = protocol.RouteEntry{Group: group, Node: n.name, Epoch: max + 1}
	if !contains(n.hosted, group) {
		n.hosted = append(n.hosted, group)
	}
	if n.lagBase[group] == nil {
		n.lagBase[group] = &atomic.Int64{}
	}
	n.f32[group] = f32
	// No replicas yet, so there is no installed numbering to handshake with:
	// publishes start floored.
	n.floored[group] = true
}

// dropGroup retires an evicted group (the admin control plane's
// OnGroupEvicted hook) from the node's cluster state. The routing row goes
// with it; a client still holding the stale row gets ErrUnknownGroup from
// the shard-less service, exactly as the admin contract promises.
func (n *Node) dropGroup(group string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.rows, group)
	delete(n.seq, group)
	delete(n.covered, group)
	delete(n.modelSeq, group)
	delete(n.modelCov, group)
	delete(n.floored, group)
	delete(n.floorBy, group)
	delete(n.pending, group)
	delete(n.repush, group)
	delete(n.lastSync, group)
	delete(n.contact, group)
	delete(n.lagBase, group)
	delete(n.f32, group)
	if i := indexOf(n.hosted, group); i >= 0 {
		n.hosted = append(n.hosted[:i], n.hosted[i+1:]...)
	}
}

// Service exposes the node's underlying MiningService (ingest totals, group
// listing) for operators and tests.
func (n *Node) Service() *protocol.MiningService { return n.svc }

// Epoch returns the highest row epoch this node serves (0 until a failover
// bumps a hosted row or a higher-epoch row is adopted).
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var max uint64
	for _, e := range n.base {
		if e.Epoch > max {
			max = e.Epoch
		}
	}
	// Hosted rows cover both overlays of base rows and runtime-registered
	// groups with no base row at all.
	for _, row := range n.rows {
		if row.Epoch > max {
			max = row.Epoch
		}
	}
	return max
}

// Leads returns the groups this node currently leads, in table order.
func (n *Node) Leads() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, g := range n.hosted {
		if n.rows[g].Node == n.name {
			out = append(out, g)
		}
	}
	return out
}

// Follows returns the groups this node currently serves as a read replica,
// in table order.
func (n *Node) Follows() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, g := range n.hosted {
		if n.rows[g].Node != n.name {
			out = append(out, g)
		}
	}
	return out
}

// routesSnapshot serves the node's current table to kindRoutes requests
// (ServiceConfig.RoutesFunc): the construction-time rows with this node's
// live hosted rows overlaid, so a served row can never be staler than what
// the node itself adopted — there is no separately rebuilt table to fall
// out of sync with the rows. Rows for groups this node does not host are
// served at their construction-time epochs; clients merge row-wise, so a
// fresher row from the group's own assignees always outranks them. The
// frame-level epoch is the highest served row epoch. Runs on the serving
// loop. The returned rows share their Replicas slices with n.rows, which
// only ever replaces whole entries, never mutates a slice in place.
func (n *Node) routesSnapshot() ([]protocol.RouteEntry, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	entries := make([]protocol.RouteEntry, 0, len(n.base))
	seen := make(map[string]bool, len(n.base))
	var max uint64
	for _, e := range n.base {
		if row, ok := n.rows[e.Group]; ok {
			e = row
		}
		seen[e.Group] = true
		entries = append(entries, e)
		if e.Epoch > max {
			max = e.Epoch
		}
	}
	// Runtime-registered groups have no base row; serve their live rows after
	// the table, in registration order.
	for _, g := range n.hosted {
		row, ok := n.rows[g]
		if !ok || seen[g] {
			continue
		}
		entries = append(entries, row)
		if row.Epoch > max {
			max = row.Epoch
		}
	}
	return entries, max
}

// noteSyncContact refreshes a followed group's leader-contact clock when an
// authenticated model sync arrives (ServiceConfig.OnModelSync): replication
// traffic proves the leader is alive even when its gossip frames are lost or
// its syncer stalls, so a leader that still publishes models is never
// deposed. Runs on the group's ingest goroutine.
func (n *Node) noteSyncContact(group, from string) {
	n.mu.Lock()
	if row, ok := n.rows[group]; ok && row.Node == from && row.Node != n.name {
		n.contact[group] = time.Now()
	}
	n.mu.Unlock()
}

// replicaLag derives the cluster.replica_lag_records gauge: across the
// currently led groups that have replicas, how many leader-ingested records
// the last fully replicated models do not cover. Zero means followers serve
// fits as fresh as the leader's.
func (n *Node) replicaLag() int64 {
	type lagRow struct {
		row  protocol.RouteEntry
		base *atomic.Int64
	}
	n.mu.Lock()
	rows := make([]lagRow, 0, len(n.hosted))
	for _, g := range n.hosted {
		// The pointer is captured under the lock: a concurrent evict deletes
		// the map entry, never the counter it pointed to.
		rows = append(rows, lagRow{row: n.rows[g], base: n.lagBase[g]})
	}
	n.mu.Unlock()
	var lag int64
	for _, r := range rows {
		if r.row.Node != n.name || len(r.row.Replicas) == 0 || r.base == nil {
			continue
		}
		ingested, err := n.svc.GroupIngested(r.row.Group)
		if err != nil {
			continue
		}
		if d := int64(ingested) - r.base.Load(); d > 0 {
			lag += d
		}
	}
	return lag
}

// enqueueSync records one freshly swapped view classifier for replication.
// It runs on the group's refit goroutine and must not block: it parks the
// model in the latest-wins pending map (per view — a multi-view refit fires
// the hook once per view, and all of one fit round's views accumulate into
// the same pending entry, so followers receive the whole consistent set)
// and nudges the publisher. Swaps in groups this node does not currently
// lead, or leads without replicas, have nowhere to go and are dropped here.
func (n *Node) enqueueSync(group string, view int, model classify.Classifier) {
	ingested, _ := n.svc.GroupIngested(group)
	n.mu.Lock()
	row, ok := n.rows[group]
	if !ok || row.Node != n.name || len(row.Replicas) == 0 {
		n.mu.Unlock()
		return
	}
	ps, ok := n.pending[group]
	if !ok {
		ps = pendingSync{models: make(map[int]classify.Classifier)}
	}
	ps.models[view] = model
	if int64(ingested) > ps.ingested {
		ps.ingested = int64(ingested)
	}
	n.pending[group] = ps
	n.mu.Unlock()
	n.nudge()
}

// offerGossip hands one gossip observation from the serving loop to the
// syncer without blocking; a full queue drops it (the next anti-entropy
// round repeats the exchange).
func (n *Node) offerGossip(g protocol.SyncGossip) {
	select {
	case n.gossipQ <- g:
	default:
	}
}

func (n *Node) nudge() {
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// floorGrace is how long a led group's publishes wait for a replica to
// answer the sequence handshake before going out unfloored (a cold cluster
// has no installed state to wait for).
func (n *Node) floorGrace() time.Duration {
	return 3 * n.aeEvery
}

// Serve runs the node: the mining service, the replication publisher and —
// unless the gossip is disabled — the durability syncer. It blocks until ctx
// is cancelled or the transport fails, with the same error contract as
// MiningService.Serve.
func (n *Node) Serve(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	now := time.Now()
	n.mu.Lock()
	for _, g := range n.hosted {
		row := n.rows[g]
		if row.Node == n.name {
			if n.aeEvery > 0 && len(row.Replicas) > 0 {
				// Hold the first publish until a replica answers its installed
				// Seq (the restart handshake) or the grace passes (cold start).
				n.floorBy[g] = now.Add(n.floorGrace())
			} else {
				n.floored[g] = true
			}
		} else {
			n.contact[g] = now
		}
	}
	n.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.publishLoop(ctx)
	}()
	if n.aeEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.syncerLoop(ctx)
		}()
	}
	err := n.svc.Serve(ctx)
	cancel()
	wg.Wait()
	return err
}

// publishLoop drains pending models and replicates each to its group's
// followers, one publisher per node so replication never competes with
// serving goroutines for anything but the conn.
func (n *Node) publishLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.notify:
		}
		n.publishPending(ctx)
	}
}

// publishPending replicates every pending model once and serves any queued
// anti-entropy re-pushes. Encode and send failures are counted and dropped —
// the next refit enqueues a fresher model anyway, and the lag gauge stays
// elevated until a publish lands.
func (n *Node) publishPending(ctx context.Context) {
	now := time.Now()
	n.mu.Lock()
	batch := n.pending
	n.pending = make(map[string]pendingSync)
	rep := n.repush
	n.repush = make(map[string]map[string]struct{})
	hosted := append([]string(nil), n.hosted...)
	n.mu.Unlock()

	for _, group := range hosted { // table order, for determinism
		ps, ok := batch[group]
		if !ok {
			continue
		}
		n.mu.Lock()
		row := n.rows[group]
		if row.Node != n.name || len(row.Replicas) == 0 {
			n.mu.Unlock()
			continue // demoted (or evicted) between enqueue and publish
		}
		if !n.floored[group] && now.Before(n.floorBy[group]) {
			// Handshake pending: park the models so a restarted leader's
			// first publish cannot collide with the replicas' installed
			// numbering. Merge per view — a fresher swap enqueued meanwhile
			// wins its view, parked views it did not refresh are kept.
			fresher, ok := n.pending[group]
			if !ok {
				n.pending[group] = ps
			} else {
				for view, model := range ps.models {
					if _, refreshed := fresher.models[view]; !refreshed {
						fresher.models[view] = model
					}
				}
				if ps.ingested > fresher.ingested {
					fresher.ingested = ps.ingested
				}
				n.pending[group] = fresher
			}
			n.mu.Unlock()
			continue
		}
		n.seq[group]++
		seq := n.seq[group]
		if ps.ingested > n.covered[group] {
			n.covered[group] = ps.ingested
		}
		cov := n.covered[group]
		// The models being published are the ones the service now serves (the
		// swap hooks fired after the atomic publishes), so this sequence is
		// the one anti-entropy may re-offer the served models under. One
		// sequence covers the whole round: every view of one fit advances
		// together, and the per-view install guards on the replica treat the
		// shared number independently.
		n.modelSeq[group] = seq
		n.modelCov[group] = cov
		replicas := append([]string(nil), row.Replicas...)
		// Stamp every replica before the lock drops: a state answer that
		// arrives while these sends are in flight reports the previous
		// sequence, and must not read as a replica owed a re-push.
		for _, replica := range replicas {
			n.noteSyncSentLocked(group, replica)
		}
		f32 := n.f32[group]
		lagBase := n.lagBase[group]
		n.mu.Unlock()

		views := sortedViews(ps.models)
		allSent := true
		for _, view := range views {
			blob, err := encodeSyncBlob(ps.models[view], f32)
			if err != nil {
				n.mSyncErrors.Inc()
				allSent = false
				continue
			}
			for _, replica := range replicas {
				sctx, scancel := context.WithTimeout(ctx, syncSendTimeout)
				err := protocol.SendModelSync(sctx, n.conn, replica, group, view, seq, cov, blob)
				scancel()
				if err != nil {
					n.mSyncErrors.Inc()
					allSent = false
					continue
				}
				n.mSyncPublished.Inc()
				n.noteSyncSent(group, replica)
			}
		}
		if allSent && lagBase != nil {
			lagBase.Store(ps.ingested)
		}
	}

	// Anti-entropy: re-push the currently served models — every trust view,
	// at the sequence they were actually published or installed under, never
	// the handshake-floored counter — to the replicas whose state answers
	// reported an older one. A zero modelSeq means the served models are
	// this process's freshly constructed ones, which no replica should ever
	// regress to: the repair then waits for the next refit's publish
	// instead. Replicas at or above modelSeq reject the re-push
	// idempotently, per view.
	for group, targets := range rep {
		n.mu.Lock()
		row := n.rows[group]
		seq := n.modelSeq[group]
		cov := n.modelCov[group]
		f32 := n.f32[group]
		n.mu.Unlock()
		if row.Node != n.name || seq == 0 {
			continue
		}
		views, err := n.svc.GroupViewModels(group)
		if err != nil {
			continue
		}
		for _, vm := range views {
			blob, err := encodeSyncBlob(vm.Model, f32)
			if err != nil {
				n.mSyncErrors.Inc()
				continue
			}
			for replica := range targets {
				if !contains(row.Replicas, replica) {
					continue
				}
				sctx, scancel := context.WithTimeout(ctx, syncSendTimeout)
				err := protocol.SendModelSync(sctx, n.conn, replica, group, vm.Level, seq, cov, blob)
				scancel()
				if err != nil {
					n.mSyncErrors.Inc()
					continue
				}
				n.mAEPushes.Inc()
				n.noteSyncSent(group, replica)
			}
		}
	}
}

// sortedViews returns one pending entry's view levels ascending, so a
// publish round's frames go out in a deterministic order.
func sortedViews(models map[int]classify.Classifier) []int {
	out := make([]int, 0, len(models))
	for v := range models {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// encodeSyncBlob encodes one replicated model, once per publish round, as
// the packed-float32 blob when the group chose float32 payloads and as the
// float64 blob otherwise. Every replica decodes both forms.
func encodeSyncBlob(model classify.Classifier, f32 bool) ([]byte, error) {
	if f32 {
		return classify.EncodeModelFloat32(model)
	}
	return classify.EncodeModel(model)
}

// noteSyncSent stamps the last model-sync send to one replica (see lastSync).
func (n *Node) noteSyncSent(group, replica string) {
	n.mu.Lock()
	n.noteSyncSentLocked(group, replica)
	n.mu.Unlock()
}

// noteSyncSentLocked is noteSyncSent with mu held.
func (n *Node) noteSyncSentLocked(group, replica string) {
	if n.lastSync[group] == nil {
		n.lastSync[group] = make(map[string]time.Time)
	}
	n.lastSync[group][replica] = time.Now()
}

// syncerLoop is the durability coordinator: it runs a gossip round
// immediately (the startup handshake) and then on every tick, drains
// observations the serving loop handed off, and checks followed groups for
// failover. One goroutine per node, so gossip sends never race each other.
func (n *Node) syncerLoop(ctx context.Context) {
	ticker := time.NewTicker(n.aeEvery)
	defer ticker.Stop()
	n.gossipRound(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case g := <-n.gossipQ:
			n.handleGossip(ctx, g)
		case <-ticker.C:
			n.gossipRound(ctx)
			n.checkFailover(ctx)
			n.nudge() // retry parked publishes and queued re-pushes
		}
	}
}

// sendCtx bounds one gossip send so a dead peer costs the syncer a bounded
// wait, not a stall: the next round retries anyway.
func (n *Node) sendCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	timeout := n.aeEvery
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	return context.WithTimeout(ctx, timeout)
}

// gossipRound sends one durability exchange: a hello per (led group,
// replica) announcing this leader's sequence, row epoch, coverage and row,
// and a state per followed group answering this replica's installed
// sequence. Each frame carries the epoch of its own group's row — rows are
// versioned individually, so gossip about one group can never misrepresent
// the freshness of another's assignment. Sends are best-effort; failures
// surface as missing answers, which the next round repeats.
func (n *Node) gossipRound(ctx context.Context) {
	type helloSend struct {
		group string
		seq   uint64
		cov   int64
		row   protocol.RouteEntry
	}
	type stateSend struct {
		group string
		to    string
		row   protocol.RouteEntry
	}
	n.mu.Lock()
	var hellos []helloSend
	var states []stateSend
	for _, g := range n.hosted {
		row := n.rows[g]
		if row.Node == n.name {
			if len(row.Replicas) == 0 {
				continue
			}
			hellos = append(hellos, helloSend{group: g, seq: n.seq[g], cov: n.covered[g], row: row})
		} else {
			states = append(states, stateSend{group: g, to: row.Node, row: row})
		}
	}
	n.mu.Unlock()

	for _, h := range hellos {
		for _, to := range h.row.Replicas {
			sctx, cancel := n.sendCtx(ctx)
			_ = protocol.SendSyncHello(sctx, n.conn, to, h.group, h.seq, h.row.Epoch, h.cov, h.row)
			cancel()
		}
	}
	for _, s := range states {
		seq, err := n.svc.GroupSyncSeq(s.group)
		if err != nil {
			continue
		}
		cov, _ := n.svc.GroupSyncCovered(s.group)
		sctx, cancel := n.sendCtx(ctx)
		_ = protocol.SendSyncState(sctx, n.conn, s.to, s.group, seq, s.row.Epoch, cov, s.row)
		cancel()
	}
}

// handleGossip processes one hello or state observation on the syncer
// goroutine. Row epochs rank first, per group: a higher-epoch row is adopted
// verbatim (failover announcement), a lower-epoch sender is answered with
// this node's newer row, and an equal-epoch row that disagrees with ours is
// resolved by the deterministic tie-break (rowOutranks) — the losing side
// adopts, so two replicas that promoted themselves to the same epoch during
// a partition converge on one leader as soon as they hear each other, with
// no further epoch bump. Only then does the normal handshake and
// anti-entropy logic run.
func (n *Node) handleGossip(ctx context.Context, g protocol.SyncGossip) {
	n.mu.Lock()
	ours, hosted := n.rows[g.Group]
	if !hosted {
		n.mu.Unlock()
		return
	}
	theirs := g.Epoch
	var theirRow *protocol.RouteEntry
	if g.Row != nil && g.Row.Group == g.Group {
		theirRow = g.Row
		if theirRow.Epoch > theirs {
			theirs = theirRow.Epoch
		}
	}
	switch {
	case theirs > ours.Epoch:
		if theirRow != nil {
			row := copyRow(*theirRow)
			row.Epoch = theirs
			n.adoptRowLocked(row)
		}
	case theirs < ours.Epoch:
		// The sender is behind (a restarted old leader, or a replica that
		// missed the failover announcement): teach it the newer row.
		n.teachLocked(ctx, g.From, g.Group)
		return
	default:
		if theirRow != nil && !sameAssignment(*theirRow, ours) {
			if rowOutranks(*theirRow, ours) {
				row := copyRow(*theirRow)
				row.Epoch = theirs
				n.adoptRowLocked(row)
			} else {
				// Our row wins the tie-break: answer with it so the other
				// promoter yields.
				n.teachLocked(ctx, g.From, g.Group)
				return
			}
		}
	}

	row := n.rows[g.Group]
	if g.Hello {
		// A leader's announcement. Only meaningful when the row agrees the
		// sender leads the group and this node follows it.
		if row.Node != g.From || row.Node == n.name {
			n.mu.Unlock()
			return
		}
		n.contact[g.Group] = time.Now()
		n.mu.Unlock()
		mySeq, err := n.svc.GroupSyncSeq(g.Group)
		if err != nil {
			return
		}
		myCov, _ := n.svc.GroupSyncCovered(g.Group)
		if g.Seq > mySeq {
			_ = n.svc.ReportSyncLag(g.Group, g.Covered-myCov)
		} else {
			_ = n.svc.ReportSyncLag(g.Group, 0)
		}
		n.mu.Lock()
		myRow := n.rows[g.Group]
		n.mu.Unlock()
		sctx, cancel := n.sendCtx(ctx)
		_ = protocol.SendSyncState(sctx, n.conn, g.From, g.Group, mySeq, myRow.Epoch, myCov, myRow)
		cancel()
		return
	}

	// A replica's state answer. Only meaningful when this node leads the
	// group and the sender is one of its replicas.
	if row.Node != n.name || !contains(row.Replicas, g.From) {
		n.mu.Unlock()
		return
	}
	if g.Seq > n.seq[g.Group] {
		// The handshake: resume numbering above the replica's installed
		// sequence, so the next publish installs instead of being rejected.
		n.seq[g.Group] = g.Seq
	}
	if g.Covered > n.covered[g.Group] {
		n.covered[g.Group] = g.Covered
	}
	if !n.floored[g.Group] {
		n.floored[g.Group] = true
		n.mFloors.Inc()
	}
	// A replica is owed a repair only when it is behind the model this node
	// can actually offer (modelSeq), not merely behind the floored counter:
	// a restarted leader serving its freshly constructed model has nothing
	// trustworthy to re-push until its next refit publishes. And only when
	// the last sync sent there has had two full gossip rounds to land —
	// states race in-flight installs, and a re-push on that stale evidence
	// would be a pointless duplicate (see lastSync).
	behind := g.Seq < n.modelSeq[g.Group] &&
		time.Since(n.lastSync[g.Group][g.From]) >= 2*n.aeEvery
	if behind {
		if n.repush[g.Group] == nil {
			n.repush[g.Group] = make(map[string]struct{})
		}
		n.repush[g.Group][g.From] = struct{}{}
	}
	n.mu.Unlock()
	if behind {
		n.nudge()
	}
}

// teachLocked answers a sender whose row for the group is older — or lost
// the equal-epoch tie-break — with this node's row: a hello when this node
// leads the group, a state answer otherwise. The sender runs the same
// comparison on receipt and adopts. Called with mu held; unlocks it.
func (n *Node) teachLocked(ctx context.Context, to, group string) {
	row := n.rows[group]
	seq := n.seq[group]
	cov := n.covered[group]
	iLead := row.Node == n.name
	n.mu.Unlock()
	sctx, cancel := n.sendCtx(ctx)
	defer cancel()
	if iLead {
		_ = protocol.SendSyncHello(sctx, n.conn, to, group, seq, row.Epoch, cov, row)
		return
	}
	mySeq, err := n.svc.GroupSyncSeq(group)
	if err != nil {
		return
	}
	myCov, _ := n.svc.GroupSyncCovered(group)
	_ = protocol.SendSyncState(sctx, n.conn, to, group, mySeq, row.Epoch, myCov, row)
}

// adoptRowLocked installs a fresher (or tie-break-winning) row for one
// hosted group. Only that group's row is replaced — other groups' rows and
// epochs are unrelated, so concurrent failovers compose — and the group's
// shard flips role if the row moved leadership. Called with mu held.
func (n *Node) adoptRowLocked(row protocol.RouteEntry) {
	old := n.rows[row.Group]
	n.rows[row.Group] = row
	now := time.Now()
	if row.Node == n.name {
		if old.Node != n.name {
			n.mPromotions.Inc()
		}
		// Floor the new leadership's numbering at what this node installed
		// as a replica, and wait for the other replicas' states before the
		// first publish. The installed model is the one this node now
		// serves, so anti-entropy may re-offer it under that sequence.
		if s, err := n.svc.GroupSyncSeq(row.Group); err == nil {
			if s > n.seq[row.Group] {
				n.seq[row.Group] = s
			}
			if s > n.modelSeq[row.Group] {
				n.modelSeq[row.Group] = s
				if c, err := n.svc.GroupSyncCovered(row.Group); err == nil {
					n.modelCov[row.Group] = c
				}
			}
		}
		if c, err := n.svc.GroupSyncCovered(row.Group); err == nil && c > n.covered[row.Group] {
			n.covered[row.Group] = c
		}
		if len(row.Replicas) > 0 && n.aeEvery > 0 {
			n.floored[row.Group] = false
			n.floorBy[row.Group] = now.Add(n.floorGrace())
		} else {
			n.floored[row.Group] = true
		}
		_ = n.svc.SetGroupLead(row.Group)
	} else {
		if old.Node == n.name {
			n.mDemotions.Inc()
		}
		n.contact[row.Group] = now
		_ = n.svc.SetGroupFollow(row.Group, row.Node)
	}
}

// checkFailover promotes this node for any followed group whose leader has
// been silent past the node's rank-scaled grace: the first-ranked replica
// waits one grace period, the second two, and so on — dead successors are
// covered without an election, at the cost of a longer outage.
func (n *Node) checkFailover(ctx context.Context) {
	if n.grace <= 0 {
		return
	}
	now := time.Now()
	var stale []string
	n.mu.Lock()
	for _, g := range n.hosted {
		row := n.rows[g]
		if row.Node == n.name {
			continue
		}
		rank := indexOf(row.Replicas, n.name)
		if rank < 0 {
			continue
		}
		last, ok := n.contact[g]
		if !ok {
			n.contact[g] = now
			continue
		}
		if now.Sub(last) > n.grace*time.Duration(rank+1) {
			stale = append(stale, g)
		}
	}
	n.mu.Unlock()
	for _, g := range stale {
		n.promote(ctx, g)
	}
}

// promote assumes leadership of one followed group: the old leader is
// demoted to the row's last-ranked replica, the row is re-announced under
// its own epoch + 1 (hello to every new replica, the demoted leader
// included) — other groups' rows are untouched, so a node that led several
// groups failing over concurrently on different successors produces rows
// that merge cleanly everywhere — and this node's numbering resumes above
// its installed sequence.
func (n *Node) promote(ctx context.Context, group string) {
	n.mu.Lock()
	row := n.rows[group]
	if row.Node == n.name {
		n.mu.Unlock()
		return
	}
	promoted := promoteRow(row, n.name)
	n.adoptRowLocked(promoted)
	seq := n.seq[group]
	cov := n.covered[group]
	n.mu.Unlock()

	for _, to := range promoted.Replicas {
		sctx, cancel := n.sendCtx(ctx)
		_ = protocol.SendSyncHello(sctx, n.conn, to, group, seq, promoted.Epoch, cov, promoted)
		cancel()
	}
}

// promoteRow derives the failover row under the old row's epoch + 1: the
// successor leads, the remaining replicas keep their ranks, and the old
// leader re-enters as the last-ranked replica (it rejoins as a follower
// when it restarts).
func promoteRow(row protocol.RouteEntry, successor string) protocol.RouteEntry {
	replicas := make([]string, 0, len(row.Replicas))
	for _, r := range row.Replicas {
		if r != successor {
			replicas = append(replicas, r)
		}
	}
	replicas = append(replicas, row.Node)
	return protocol.RouteEntry{
		Group: row.Group, Node: successor, Epoch: row.Epoch + 1, Replicas: replicas}
}
