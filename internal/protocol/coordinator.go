package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/perturb"
	"repro/internal/transport"
)

// CoordinatorConfig configures the coordinating data provider DP_k.
type CoordinatorConfig struct {
	// Providers lists the non-coordinator provider names (k−1 of them).
	Providers []string
	// Miner is the mining service provider's endpoint name.
	Miner string
	// Data is the coordinator's own local (normalized) dataset — the
	// coordinator is itself a data provider.
	Data *dataset.Dataset
	// Perturbation is the coordinator's locally optimized G_k.
	Perturbation *perturb.Perturbation
	// Rng drives the target selection, permutation and redirect. Required.
	Rng *rand.Rand
	// Audit optionally records protocol events (nil disables).
	Audit *AuditLog
}

// Coordinator runs DP_k: coordination duties plus its own provider duties.
type Coordinator struct {
	cfg  CoordinatorConfig
	conn transport.Conn

	// Plan captures the exchange plan for audit/testing; populated by Run.
	plan *ExchangePlan
}

// ExchangePlan records the coordinator's randomized decisions.
type ExchangePlan struct {
	// Target is the unified target perturbation G_t (no noise).
	Target *perturb.Perturbation
	// Perm maps receiver position i (0-based over all k parties) to the
	// 0-based index of the provider whose dataset DP_i receives: the
	// paper's τ.
	Perm []int
	// Redirect is the 0-based non-coordinator index that receives the
	// dataset originally destined for the coordinator.
	Redirect int
	// Slots assigns each provider (by name) the slot ID labelling its
	// dataset through the exchange.
	Slots map[string]uint64
	// Receivers maps each provider name to the receiver of its dataset.
	Receivers map[string]string
}

// NewCoordinator validates the configuration and binds the coordinator to a
// transport endpoint.
func NewCoordinator(conn transport.Conn, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("%w: coordinator needs an rng", ErrBadConfig)
	}
	if cfg.Data == nil || cfg.Data.Len() == 0 {
		return nil, fmt.Errorf("%w: coordinator has no data", ErrBadConfig)
	}
	if cfg.Perturbation == nil {
		return nil, fmt.Errorf("%w: coordinator has no local perturbation", ErrBadConfig)
	}
	if cfg.Perturbation.Dim() != cfg.Data.Dim() {
		return nil, fmt.Errorf("%w: perturbation dim %d vs data dim %d",
			ErrBadConfig, cfg.Perturbation.Dim(), cfg.Data.Dim())
	}
	if cfg.Miner == "" {
		return nil, fmt.Errorf("%w: no miner endpoint", ErrBadConfig)
	}
	// k = len(Providers) + 1 parties overall; anonymity needs k ≥ 3 so that
	// π = 1/(k−1) < 1.
	if len(cfg.Providers) < 2 {
		return nil, fmt.Errorf("%w: got %d non-coordinator providers", ErrTooFewParty, len(cfg.Providers))
	}
	seen := make(map[string]bool, len(cfg.Providers)+2)
	seen[conn.Name()] = true
	seen[cfg.Miner] = true
	for _, p := range cfg.Providers {
		if p == "" || seen[p] {
			return nil, fmt.Errorf("%w: duplicate or empty provider name %q", ErrBadConfig, p)
		}
		seen[p] = true
	}
	return &Coordinator{cfg: cfg, conn: conn}, nil
}

// Plan returns the exchange plan after Run (nil before).
func (c *Coordinator) Plan() *ExchangePlan { return c.plan }

// Run executes the coordinator's side of SAP.
func (c *Coordinator) Run(ctx context.Context) error {
	plan, err := c.makePlan()
	if err != nil {
		return err
	}
	c.plan = plan
	c.cfg.Audit.Record(c.conn.Name(), EventTargetSelected, "", fmt.Sprintf("dim=%d", plan.Target.Dim()))
	c.cfg.Audit.Record(c.conn.Name(), EventPlanComputed, "", fmt.Sprintf("k=%d redirect=%d", len(plan.Perm), plan.Redirect))

	targetRaw, err := plan.Target.MarshalBinary()
	if err != nil {
		return fmt.Errorf("protocol: encode target: %w", err)
	}

	// Count how many datasets each receiver must forward.
	expect := make(map[string]int, len(c.cfg.Providers))
	for _, recv := range plan.Receivers {
		expect[recv]++
	}

	// Step 1+2: distribute the target and the exchange assignments.
	for _, name := range c.cfg.Providers {
		w := &wire{
			Kind:        MsgTarget,
			Target:      targetRaw,
			SlotID:      plan.Slots[name],
			SendTo:      plan.Receivers[name],
			ExpectCount: expect[name],
		}
		payload, err := encodeWire(w)
		if err != nil {
			return err
		}
		if err := c.conn.Send(ctx, name, payload); err != nil {
			return fmt.Errorf("protocol: assignment to %s: %w", name, err)
		}
		c.cfg.Audit.Record(c.conn.Name(), EventAssignmentSent, name,
			fmt.Sprintf("sendTo=%s expect=%d", plan.Receivers[name], expect[name]))
	}

	// Provider duties: perturb own data and send it to the assigned
	// receiver under the coordinator's own slot.
	if err := c.sendOwnData(ctx, plan); err != nil {
		return err
	}

	// Own adaptor is computed locally (never crosses the network).
	ownAdaptor, err := perturb.NewAdaptor(c.cfg.Perturbation, plan.Target)
	if err != nil {
		return fmt.Errorf("protocol: own adaptor: %w", err)
	}
	ownAdaptorRaw, err := ownAdaptor.MarshalBinary()
	if err != nil {
		return err
	}

	// Step 4: collect adaptors from every other provider. The coordinator
	// must refuse datasets — receiving one would break the privacy
	// argument.
	adaptors := map[string][]byte{c.conn.Name(): ownAdaptorRaw}
	for len(adaptors) < len(c.cfg.Providers)+1 {
		env, err := c.conn.Recv(ctx)
		if err != nil {
			return fmt.Errorf("%w: waiting for adaptors: %v", ErrMissingPiece, err)
		}
		w, err := decodeWire(env.Payload)
		if err != nil {
			return err
		}
		switch w.Kind {
		case MsgAdaptor:
			if _, ok := plan.Slots[env.From]; !ok {
				c.cfg.Audit.Record(c.conn.Name(), EventViolationDetected, env.From, "adaptor from unknown party")
				return fmt.Errorf("%w: adaptor from unknown party %q", ErrViolation, env.From)
			}
			if _, dup := adaptors[env.From]; dup {
				c.cfg.Audit.Record(c.conn.Name(), EventViolationDetected, env.From, "duplicate adaptor")
				return fmt.Errorf("%w: duplicate adaptor from %q", ErrViolation, env.From)
			}
			// Validate before accepting.
			if _, err := decodeAdaptor(w.Adaptor); err != nil {
				return fmt.Errorf("adaptor from %q: %w", env.From, err)
			}
			adaptors[env.From] = w.Adaptor
			c.cfg.Audit.Record(c.conn.Name(), EventAdaptorReceived, env.From, "")
		case MsgDataset, MsgSubmission:
			c.cfg.Audit.Record(c.conn.Name(), EventViolationDetected, env.From, "dataset sent to coordinator")
			return fmt.Errorf("%w: coordinator received a dataset from %q", ErrViolation, env.From)
		default:
			c.cfg.Audit.Record(c.conn.Name(), EventViolationDetected, env.From, "unexpected "+w.Kind.String())
			return fmt.Errorf("%w: unexpected %v from %q", ErrViolation, w.Kind, env.From)
		}
	}

	// Step 5: map adaptors through the slots and hand them to the miner.
	slots := make([]SlotAdaptor, 0, len(adaptors))
	for name, raw := range adaptors {
		slots = append(slots, SlotAdaptor{SlotID: plan.Slots[name], Adaptor: raw})
	}
	// Map order would make the miner's unified record order differ run to
	// run; slot order pins it. The miner knows every slot ID already, so
	// the order reveals nothing new.
	sort.Slice(slots, func(i, j int) bool { return slots[i].SlotID < slots[j].SlotID })
	payload, err := encodeWire(&wire{Kind: MsgAdaptorMap, Slots: slots})
	if err != nil {
		return err
	}
	if err := c.conn.Send(ctx, c.cfg.Miner, payload); err != nil {
		return fmt.Errorf("protocol: adaptor map to miner: %w", err)
	}
	c.cfg.Audit.Record(c.conn.Name(), EventAdaptorMapSent, c.cfg.Miner, fmt.Sprintf("slots=%d", len(slots)))
	return nil
}

// makePlan draws G_t, τ, the redirect and the slot IDs.
func (c *Coordinator) makePlan() (*ExchangePlan, error) {
	rng := c.cfg.Rng
	dim := c.cfg.Data.Dim()
	targetFull, err := perturb.NewRandom(rng, dim, 0)
	if err != nil {
		return nil, fmt.Errorf("protocol: target selection: %w", err)
	}
	target := targetFull.WithoutNoise()

	// Party order: providers 0..k−2 are the non-coordinators, k−1 is the
	// coordinator itself.
	all := append(append([]string(nil), c.cfg.Providers...), c.conn.Name())
	k := len(all)
	perm := rng.Perm(k) // τ: receiver position i gets dataset of all[perm[i]]
	redirect := rng.Intn(k - 1)

	slots := make(map[string]uint64, k)
	for i, name := range all {
		// Slot IDs are drawn from the rng (not sequential) so they carry no
		// ordering information about the providers.
		slots[name] = uint64(rng.Int63())<<8 | uint64(i)
	}
	receivers := make(map[string]string, k)
	for i := 0; i < k; i++ {
		sender := all[perm[i]]
		if i == k-1 {
			// The coordinator's receiving slot is redirected.
			receivers[sender] = all[redirect]
			continue
		}
		receivers[sender] = all[i]
	}
	return &ExchangePlan{
		Target:    target,
		Perm:      perm,
		Redirect:  redirect,
		Slots:     slots,
		Receivers: receivers,
	}, nil
}

// sendOwnData perturbs the coordinator's local data and ships it to its
// assigned receiver.
func (c *Coordinator) sendOwnData(ctx context.Context, plan *ExchangePlan) error {
	perturbed := c.cfg.Data.Clone()
	y, _, err := c.cfg.Perturbation.Apply(c.cfg.Rng, c.cfg.Data.FeaturesT())
	if err != nil {
		return fmt.Errorf("protocol: perturb own data: %w", err)
	}
	if err := perturbed.ReplaceFeaturesT(y); err != nil {
		return err
	}
	features, labels, err := encodeDatasetPayload(perturbed)
	if err != nil {
		return err
	}
	w := &wire{
		Kind:     MsgDataset,
		DataSlot: plan.Slots[c.conn.Name()],
		Features: features,
		Labels:   labels,
	}
	payload, err := encodeWire(w)
	if err != nil {
		return err
	}
	recv := plan.Receivers[c.conn.Name()]
	if err := c.conn.Send(ctx, recv, payload); err != nil {
		return fmt.Errorf("protocol: own dataset to %s: %w", recv, err)
	}
	c.cfg.Audit.Record(c.conn.Name(), EventDatasetSent, recv, fmt.Sprintf("records=%d", c.cfg.Data.Len()))
	return nil
}
