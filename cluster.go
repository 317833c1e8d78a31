package sap

// Cluster serving: contract groups partitioned across several miner
// processes with no proxy hop. Each process runs ServeCluster with the same
// group list and a shared routing table (rendezvous-derived from
// WithClusterNodes, or pinned with NewStaticTable); the table names one
// leader per group — the only node ingesting for it — plus read replicas
// that serve extra classify capacity and receive the leader's refits over
// model-sync frames. Providers use NewClusterClient, which discovers the
// table from any node and routes every call itself.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

type (
	// RouteEntry maps one serving group to its leader node and read replicas.
	RouteEntry = protocol.RouteEntry
	// ClusterTable is an immutable group→node routing table shared by every
	// node of a cluster.
	ClusterTable = cluster.Table
)

// NewRendezvousTable derives a routing table from the group and node names
// alone using rendezvous hashing: every process derives the identical table,
// and adding or removing a node only remaps the groups that ranked it. Each
// group gets the given number of read replicas (0 ≤ replicas < nodes).
func NewRendezvousTable(groups, nodes []string, replicas int) (*ClusterTable, error) {
	return cluster.NewRendezvousTable(groups, nodes, replicas)
}

// NewStaticTable pins an operator-chosen group placement verbatim. Every
// node of the cluster must be handed the same table.
func NewStaticTable(entries []RouteEntry) (*ClusterTable, error) {
	return cluster.NewStaticTable(entries)
}

// WithClusterNodes names the cluster's miner endpoints for ServeCluster,
// which derives the routing table from these names and the groups' IDs by
// rendezvous hashing. Configure it (with WithClusterReplicas) on one session
// per deployment; the first session carrying it wins, like WithMetrics.
func WithClusterNodes(nodes ...string) Option {
	return func(c *config) error {
		if len(nodes) == 0 {
			return fmt.Errorf("%w: empty cluster node list", ErrBadInput)
		}
		for i, n := range nodes {
			if n == "" {
				return fmt.Errorf("%w: cluster node %d has an empty name", ErrBadInput, i)
			}
		}
		c.clusterNodes = append([]string(nil), nodes...)
		return nil
	}
}

// WithClusterReplicas sets how many read replicas each group gets in the
// table ServeCluster derives (default 0: leader-only). It rides the session
// that carries WithClusterNodes.
func WithClusterReplicas(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: negative replica count %d", ErrBadInput, n)
		}
		c.clusterReplicas = n
		return nil
	}
}

// WithDownFor sets how long a ClusterClient skips a node that failed a
// request before retrying it in read rotation (default 500ms). It rides any
// of the client's sessions; the first session carrying it wins.
func WithDownFor(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: non-positive down-mark window %v", ErrBadInput, d)
		}
		c.downFor = d
		return nil
	}
}

// WithFailoverGrace sets how long a group's leader may stay silent before the
// group's first-ranked replica assumes leadership — lower-ranked replicas
// wait proportionally longer so exactly one steps up (default 10s; negative
// disables failover). It rides the session carrying WithClusterNodes.
func WithFailoverGrace(d time.Duration) Option {
	return func(c *config) error {
		if d == 0 {
			return fmt.Errorf("%w: zero failover grace (omit the option for the default, negative disables)", ErrBadInput)
		}
		c.failoverGrace = d
		return nil
	}
}

// WithAntiEntropyEvery sets the cluster durability-gossip cadence: how often
// leaders hello their replicas and replicas report installed state back
// (default 1s; negative disables the gossip, and with it handshake flooring,
// anti-entropy re-push and failover detection). It rides the session carrying
// WithClusterNodes.
func WithAntiEntropyEvery(d time.Duration) Option {
	return func(c *config) error {
		if d == 0 {
			return fmt.Errorf("%w: zero anti-entropy cadence (omit the option for the default, negative disables)", ErrBadInput)
		}
		c.antiEntropyEvery = d
		return nil
	}
}

// ServeCluster serves this process's share of the given groups: the routing
// table is derived by rendezvous hashing from the sessions' WithClusterNodes
// option (first session carrying it wins, its WithClusterReplicas rides
// along), and nodeName — this process's transport endpoint name — selects
// which rows to host. Groups this node leads refit and replicate as usual;
// groups it holds as a read replica refuse ingest and follow the leader's
// published fits. Run the same call, same group list, on every node of the
// cluster.
func ServeCluster(ctx context.Context, conn Conn, nodeName string, groups ...Group) error {
	var nodes []string
	replicas := 0
	for _, g := range groups {
		if g.Session == nil {
			continue // groupSpecs reports the configuration error
		}
		if len(g.Session.cfg.clusterNodes) > 0 {
			nodes = g.Session.cfg.clusterNodes
			replicas = g.Session.cfg.clusterReplicas
			break
		}
	}
	if len(nodes) == 0 {
		return fmt.Errorf("%w: no session carries WithClusterNodes", ErrBadInput)
	}
	ids := make([]string, 0, len(groups))
	for _, g := range groups {
		if g.Session != nil {
			ids = append(ids, g.Session.GroupID())
		}
	}
	table, err := cluster.NewRendezvousTable(ids, nodes, replicas)
	if err != nil {
		return err
	}
	return ServeClusterTable(ctx, conn, nodeName, table, groups...)
}

// ServeClusterTable is ServeCluster with an explicit routing table, for
// deployments that pin placement with NewStaticTable (or pre-derive a
// rendezvous table to share with tooling).
func ServeClusterTable(ctx context.Context, conn Conn, nodeName string, table *ClusterTable, groups ...Group) error {
	specs, cfg, err := groupSpecs(groups)
	if err != nil {
		return err
	}
	var grace, aeEvery time.Duration
	for _, g := range groups {
		if g.Session == nil {
			continue
		}
		if grace == 0 {
			grace = g.Session.cfg.failoverGrace
		}
		if aeEvery == 0 {
			aeEvery = g.Session.cfg.antiEntropyEvery
		}
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		Name: nodeName, Conn: conn, Table: table, Groups: specs, Service: cfg,
		AntiEntropyEvery: aeEvery, FailoverGrace: grace})
	if err != nil {
		return err
	}
	return node.Serve(ctx)
}

// ClusterClient queries a cluster of mining services: it discovers the
// routing table from a seed node, rotates each group's classify load over
// the group's leader and read replicas (flowing around downed nodes with no
// caller-visible error), and sends each group's pushes to its leader only.
// Queries and pushed records are given in clear space and transformed into
// each group's target space with its session's G_t before they leave the
// provider, exactly like Client. Safe for concurrent use.
type ClusterClient struct {
	inner   *cluster.Client
	targets map[string]*Perturbation
}

// NewClusterClient connects a cluster client over conn, bootstrapping table
// discovery from the seed node names. Each session supplies one group's
// target space (and must have run); the first session with WithMetrics
// provides the client's instrumentation sink (cluster.route_misses,
// cluster.failovers), and the first with WithDownFor sets the down-mark
// window.
func NewClusterClient(conn Conn, seeds []string, sessions ...*Session) (*ClusterClient, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("%w: no sessions", ErrBadInput)
	}
	targets := make(map[string]*Perturbation, len(sessions))
	var sink MetricsSink
	var downFor time.Duration
	var float32Payloads bool
	for i, s := range sessions {
		if s == nil {
			return nil, fmt.Errorf("%w: session %d is nil", ErrBadInput, i)
		}
		if err := s.requireRun(); err != nil {
			return nil, fmt.Errorf("group %q: %w", s.GroupID(), err)
		}
		id := s.GroupID()
		if _, dup := targets[id]; dup {
			return nil, fmt.Errorf("%w: duplicate group id %q", ErrBadInput, id)
		}
		targets[id] = s.Target()
		if sink == nil {
			sink = s.cfg.metrics
		}
		if downFor == 0 {
			downFor = s.cfg.downFor
		}
		// The payload format is per client connection, so any session
		// carrying WithFloat32Payloads switches the shared client on.
		float32Payloads = float32Payloads || s.cfg.float32Payloads
	}
	inner, err := cluster.NewClient(cluster.ClientConfig{
		Conn: conn, Seeds: seeds, Metrics: sink, DownFor: downFor,
		Float32: float32Payloads})
	if err != nil {
		return nil, err
	}
	return &ClusterClient{inner: inner, targets: targets}, nil
}

// Classify predicts the label of one clear-space record through the group's
// assigned nodes.
func (c *ClusterClient) Classify(ctx context.Context, group string, features []float64) (int, error) {
	labels, err := c.ClassifyBatch(ctx, group, [][]float64{features})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// ClassifyBatch predicts labels for a batch of clear-space records in one
// round trip to one of the group's assigned nodes.
func (c *ClusterClient) ClassifyBatch(ctx context.Context, group string, batch [][]float64) ([]int, error) {
	target, err := c.targetOf(group)
	if err != nil {
		return nil, err
	}
	transformed, err := transformRecords(target, batch)
	if err != nil {
		return nil, err
	}
	return c.inner.ClassifyBatch(ctx, group, transformed)
}

// Push streams one chunk of labeled clear-space training records into the
// group's leader, which folds them into the group's training set and refits
// on its cadence (replicating the fresh fit to the group's replicas).
// Records are transformed with G_t like queries; the streaming pipeline
// (Session.Stream) remains the noisy perturb-and-adapt ingest route. Returns
// the group's training-set size after the chunk landed, with PushChunk's
// ErrRefit contract intact.
func (c *ClusterClient) Push(ctx context.Context, group string, batch [][]float64, labels []int) (int, error) {
	target, err := c.targetOf(group)
	if err != nil {
		return 0, err
	}
	transformed, err := transformRecords(target, batch)
	if err != nil {
		return 0, err
	}
	return c.inner.Push(ctx, group, transformed, labels)
}

// Routes returns the discovered routing table, fetching it first if needed.
func (c *ClusterClient) Routes(ctx context.Context) ([]RouteEntry, error) {
	return c.inner.Routes(ctx)
}

// Close releases the client's demultiplexer and fails in-flight requests.
func (c *ClusterClient) Close() error { return c.inner.Close() }

func (c *ClusterClient) targetOf(group string) (*Perturbation, error) {
	target, ok := c.targets[group]
	if !ok {
		return nil, fmt.Errorf("%w: no session for group %q", ErrBadInput, group)
	}
	return target, nil
}
