package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Client defaults.
const (
	// DefaultDownFor is how long a node that failed a request is skipped in
	// read rotation before it is probed again.
	DefaultDownFor = 500 * time.Millisecond
	// DefaultAttemptTimeout bounds one per-node request attempt so a hung
	// node costs a bounded slice of the caller's deadline before failover
	// moves on.
	DefaultAttemptTimeout = 5 * time.Second
)

// ClientConfig assembles a cluster client.
type ClientConfig struct {
	// Conn is the client's own transport endpoint; one connection (and one
	// response demultiplexer) carries traffic to every node. Required.
	Conn transport.Conn
	// Seeds are node endpoint names to bootstrap table discovery from; any
	// cluster member works, and after the first successful discovery the
	// whole table's node set becomes the refresh candidate pool. Required,
	// at least one.
	Seeds []string
	// Metrics receives the client's routing instruments
	// (cluster.route_misses, cluster.failovers). Nil discards them.
	Metrics metrics.Metrics
	// Backoff overrides the busy-retry policy inherited by every request
	// (zero value: protocol defaults).
	Backoff protocol.Backoff
	// DownFor overrides how long a failed node is skipped in read rotation
	// (zero: DefaultDownFor; negative is rejected).
	DownFor time.Duration
	// AttemptTimeout overrides the per-node attempt bound (default
	// DefaultAttemptTimeout; it never extends the caller's deadline).
	AttemptTimeout time.Duration
	// Float32 packs outgoing record batches as float32 (see
	// protocol.WireOptions).
	Float32 bool
}

// Client routes mining traffic across a cluster without a proxy hop: it
// discovers the routing table from a seed node, sends each group's ingest to
// the group's leader, and spreads the group's classify load round-robin over
// the leader and its read replicas. A node that fails a request is marked
// down briefly and traffic flows around it (for reads, the remaining
// assignees — degrading to leader-only serving with no caller-visible
// error); an ErrUnknownGroup from an assigned node means the table went
// stale, so the client re-discovers and retries once. Safe for concurrent
// use.
type Client struct {
	sc             *protocol.ServiceClient
	seeds          []string
	downFor        time.Duration
	attemptTimeout time.Duration

	mRouteMisses metrics.Counter // stale-table events (refresh-and-retry)
	mFailovers   metrics.Counter // node attempts skipped past after a failure

	mu    sync.Mutex
	table *Table               // nil until the first discovery
	pool  []string             // refresh candidates: table nodes ∪ seeds
	rr    map[string]uint64    // per-group read rotation
	down  map[string]time.Time // node -> skip-in-rotation deadline
}

// NewClient connects a cluster client over conn. Discovery is lazy: the
// first routed call fetches the table from the seeds.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Conn == nil {
		return nil, fmt.Errorf("%w: nil conn", protocol.ErrBadConfig)
	}
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("%w: no seed nodes", protocol.ErrBadConfig)
	}
	for _, s := range cfg.Seeds {
		if s == "" {
			return nil, fmt.Errorf("%w: empty seed node name", protocol.ErrBadConfig)
		}
	}
	sc, err := protocol.NewServiceClient(cfg.Conn, cfg.Seeds[0])
	if err != nil {
		return nil, err
	}
	if cfg.Backoff != (protocol.Backoff{}) {
		sc.SetBackoff(cfg.Backoff)
	}
	sc.SetWireOptions(protocol.WireOptions{Float32: cfg.Float32})
	m := cfg.Metrics
	if m == nil {
		m = metrics.Nop()
	}
	if cfg.DownFor < 0 {
		return nil, fmt.Errorf("%w: negative down-mark window %v", protocol.ErrBadConfig, cfg.DownFor)
	}
	downFor := cfg.DownFor
	if downFor == 0 {
		downFor = DefaultDownFor
	}
	attempt := cfg.AttemptTimeout
	if attempt <= 0 {
		attempt = DefaultAttemptTimeout
	}
	return &Client{
		sc:             sc,
		seeds:          append([]string(nil), cfg.Seeds...),
		downFor:        downFor,
		attemptTimeout: attempt,
		mRouteMisses:   m.Counter("cluster.route_misses"),
		mFailovers:     m.Counter("cluster.failovers"),
		rr:             make(map[string]uint64),
		down:           make(map[string]time.Time),
	}, nil
}

// Close tears down the client's connection demultiplexer. In-flight calls
// fail with ErrServiceClosed.
func (c *Client) Close() error { return c.sc.Close() }

// Routes returns the discovered routing table, fetching it first if this
// client has not discovered yet.
func (c *Client) Routes(ctx context.Context) ([]protocol.RouteEntry, error) {
	t, err := c.ensureTable(ctx)
	if err != nil {
		return nil, err
	}
	return t.Entries(), nil
}

// ensureTable returns the current table, discovering it on first use.
func (c *Client) ensureTable(ctx context.Context) (*Table, error) {
	c.mu.Lock()
	t := c.table
	c.mu.Unlock()
	if t != nil {
		return t, nil
	}
	return c.refresh(ctx)
}

// refresh re-discovers the routing table. The whole candidate pool is asked
// concurrently, so discovery costs one attempt timeout even when most of the
// pool is unreachable — exactly the failover scenario that triggers
// refreshes — instead of pool × timeout. The answers are merged into the
// installed table row-wise by row epoch: for each group the highest-epoch
// row wins, equal-epoch disagreements settle by the same deterministic
// tie-break nodes use, and an installed row is never replaced by a
// lower-epoch answer — a stale seed cannot roll the table back, not even
// for a single group, and after concurrent failovers of different groups
// the client composes the promoted rows regardless of which nodes have
// adopted which. Answers whose rows carry no per-row epochs take the
// answer's table-level epoch (static and RoutesFunc-pinned tables version
// the whole table at once).
func (c *Client) refresh(ctx context.Context) (*Table, error) {
	c.mu.Lock()
	pool := append([]string(nil), c.pool...)
	if len(pool) == 0 {
		pool = append(pool, c.seeds...)
	}
	c.mu.Unlock()

	type answer struct {
		entries []protocol.RouteEntry
		err     error
	}
	answers := make([]answer, len(pool))
	var wg sync.WaitGroup
	for i, node := range pool {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
			defer cancel()
			entries, epoch, err := c.sc.TableAt(actx, node)
			if err != nil {
				answers[i].err = err
				return
			}
			if len(entries) == 0 {
				answers[i].err = fmt.Errorf("%w: node %q serves no routing table", ErrNoRoute, node)
				return
			}
			// Validate per answer so one malformed table poisons nothing.
			if _, err := NewStaticTable(entries); err != nil {
				answers[i].err = err
				return
			}
			answers[i].entries = stampRowEpochs(entries, epoch)
		}(i, node)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	merged := make(map[string]protocol.RouteEntry)
	var order []string
	fold := func(entries []protocol.RouteEntry) {
		for _, e := range entries {
			cur, ok := merged[e.Group]
			switch {
			case !ok:
				merged[e.Group] = e
				order = append(order, e.Group)
			case e.Epoch > cur.Epoch,
				e.Epoch == cur.Epoch && !sameAssignment(e, cur) && rowOutranks(e, cur):
				merged[e.Group] = e
			}
		}
	}
	if c.table != nil {
		fold(c.table.Entries())
	}
	answered := false
	var lastErr error
	for _, a := range answers {
		if a.err != nil {
			lastErr = a.err
			continue
		}
		fold(a.entries)
		answered = true
	}
	if !answered {
		if lastErr == nil {
			lastErr = ErrNoNodes
		}
		return nil, fmt.Errorf("cluster: table discovery failed: %w", lastErr)
	}
	entries := make([]protocol.RouteEntry, 0, len(order))
	for _, g := range order {
		entries = append(entries, merged[g])
	}
	best, err := NewStaticTable(entries)
	if err != nil {
		return nil, fmt.Errorf("cluster: merged routing table: %w", err)
	}
	c.table = best
	c.pool = mergePool(best.Nodes(), c.seeds)
	return best, nil
}

// mergePool unions the table's nodes with the configured seeds, table nodes
// first, preserving order and dropping duplicates.
func mergePool(nodes, seeds []string) []string {
	seen := make(map[string]struct{}, len(nodes)+len(seeds))
	pool := make([]string, 0, len(nodes)+len(seeds))
	for _, lists := range [][]string{nodes, seeds} {
		for _, n := range lists {
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
			pool = append(pool, n)
		}
	}
	return pool
}

// readOrder returns the candidate nodes for one classify call: the group's
// leader and replicas rotated by the group's round-robin counter, with
// down-marked nodes moved to the back (still tried last rather than dropped,
// so a fully down assignment set surfaces real errors, not a silent skip).
func (c *Client) readOrder(e protocol.RouteEntry) []string {
	nodes := append([]string{e.Node}, e.Replicas...)
	c.mu.Lock()
	k := c.rr[e.Group]
	c.rr[e.Group]++
	now := time.Now()
	up := make([]string, 0, len(nodes))
	var skipped []string
	for i := range nodes {
		node := nodes[(int(k)+i)%len(nodes)]
		if until, marked := c.down[node]; marked && now.Before(until) {
			skipped = append(skipped, node)
			continue
		}
		up = append(up, node)
	}
	c.mu.Unlock()
	return append(up, skipped...)
}

func (c *Client) markDown(node string) {
	c.mu.Lock()
	c.down[node] = time.Now().Add(c.downFor)
	c.mu.Unlock()
}

func (c *Client) markUp(node string) {
	c.mu.Lock()
	delete(c.down, node)
	c.mu.Unlock()
}

// nodeDown reports whether err means the node (not the request) failed:
// the frame could not be delivered or the attempt timed out with the
// caller's own deadline still standing.
func nodeDown(err error, ctx context.Context) bool {
	if errors.Is(err, protocol.ErrServiceClosed) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
}

// ClassifyBatch labels a batch against the group's current model on one of
// the group's assigned nodes. Reads rotate over the leader and its replicas;
// failed nodes are skipped past (cluster.failovers) and a stale routing
// table triggers one re-discovery (cluster.route_misses) before the error
// surfaces.
func (c *Client) ClassifyBatch(ctx context.Context, group string, batch [][]float64) ([]int, error) {
	t, err := c.ensureTable(ctx)
	if err != nil {
		return nil, err
	}
	refreshed := false
	for {
		entry, ok := t.Route(group)
		if !ok {
			if refreshed {
				return nil, fmt.Errorf("%w: %q", ErrNoRoute, group)
			}
			c.mRouteMisses.Inc()
			if t, err = c.refresh(ctx); err != nil {
				return nil, err
			}
			refreshed = true
			continue
		}
		var lastErr error
		for _, node := range c.readOrder(entry) {
			actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
			labels, err := c.sc.ClassifyBatchAt(actx, node, group, batch)
			cancel()
			switch {
			case err == nil:
				c.markUp(node)
				return labels, nil
			case errors.Is(err, protocol.ErrUnknownGroup):
				// The node is alive but no longer hosts the group: the table
				// is stale. Re-discover and retry the whole call once.
				if refreshed {
					return nil, err
				}
				c.mRouteMisses.Inc()
				if t, err = c.refresh(ctx); err != nil {
					return nil, err
				}
				refreshed = true
				lastErr = nil
			case nodeDown(err, ctx):
				c.markDown(node)
				c.mFailovers.Inc()
				lastErr = err
			default:
				// A typed serving error (bad query, busy after retries, …):
				// another node would answer the same.
				return nil, err
			}
			if lastErr == nil {
				break // stale-table retry: leave the node loop
			}
		}
		if lastErr != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrNoNodes, group, lastErr)
		}
		if !refreshed {
			// Unreachable: the node loop only exits without error or lastErr
			// on the stale-table path, which sets refreshed.
			return nil, fmt.Errorf("%w: %q", ErrNoRoute, group)
		}
	}
}

// Classify is ClassifyBatch for a single record.
func (c *Client) Classify(ctx context.Context, group string, features []float64) (int, error) {
	labels, err := c.ClassifyBatch(ctx, group, [][]float64{features})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// Push streams one chunk of training records into the group's leader — the
// only node ingesting for the group; replicas answer ErrNotLeader and are
// never tried. A stale table (unknown group, or a demoted leader answering
// ErrNotLeader) triggers one re-discovery and retry; so does an unreachable
// leader, because a silent leader is what failover replaces — the refreshed
// table may name the promoted successor under a higher epoch. Returns the
// group's training-set size after the chunk landed, with PushChunk's
// ErrRefit contract intact.
func (c *Client) Push(ctx context.Context, group string, batch [][]float64, labels []int) (int, error) {
	t, err := c.ensureTable(ctx)
	if err != nil {
		return 0, err
	}
	refreshed := false
	for {
		entry, ok := t.Route(group)
		if !ok {
			if refreshed {
				return 0, fmt.Errorf("%w: %q", ErrNoRoute, group)
			}
			c.mRouteMisses.Inc()
			if t, err = c.refresh(ctx); err != nil {
				return 0, err
			}
			refreshed = true
			continue
		}
		actx, cancel := context.WithTimeout(ctx, c.attemptTimeout)
		accepted, err := c.sc.PushChunkAt(actx, entry.Node, group, batch, labels)
		cancel()
		switch {
		case err == nil:
			c.markUp(entry.Node)
			return accepted, nil
		case errors.Is(err, protocol.ErrUnknownGroup) || errors.Is(err, protocol.ErrNotLeader):
			if refreshed {
				return 0, err
			}
			c.mRouteMisses.Inc()
			if t, err = c.refresh(ctx); err != nil {
				return 0, err
			}
			refreshed = true
		case nodeDown(err, ctx):
			c.markDown(entry.Node)
			c.mFailovers.Inc()
			if refreshed {
				return 0, fmt.Errorf("%w: %q: %v", ErrNoNodes, group, err)
			}
			if t, err = c.refresh(ctx); err != nil {
				return 0, err
			}
			refreshed = true
		default:
			return accepted, err
		}
	}
}
