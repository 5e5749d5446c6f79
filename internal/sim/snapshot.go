package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"

	"repro/internal/ratelimit"
	"repro/internal/safeio"
	"repro/internal/worm"
)

// SnapshotVersion is the checkpoint payload version this build writes
// and reads. The rule: any change to the payload schema, to what the
// engine stores versus recomputes, or to the meaning of a stored field
// bumps the version; old files are then rejected with a versioned
// error rather than misread. There is no cross-version migration — a
// checkpoint is a mid-run artifact, not an archive format.
//
// Version 2: the engine RNG became a per-node counter-mode stream
// table; checkpoints stored the stream states (RNGStates) instead of a
// single sequential draw count, and version-1 files were rejected.
//
// Version 3: the engine's hot-path state went compact (DESIGN.md §14).
// Node states are packed four to a byte (StatesPacked replaces the
// byte-per-node States), RNG streams are stored sparsely — only the
// counters that have advanced past their seed-derived initial value
// (RNGIdx/RNGVal replace the dense RNGStates) — and the deferred
// link-recharge count rides along (RechargeDebt). Version-2 files are
// rejected.
//
// Version 4: trace-replay workloads (DESIGN.md §17). The workload
// stream position rides along (ReplayRecords — restore re-creates the
// stream from the config and fast-forwards it, cross-checking the
// skipped contact count), as do the per-tick benign-traffic counters
// (BenignThisTick/BenignThrottledThisTick), and queued packets may
// carry a fourth kind (benign background traffic). Version-3 files are
// rejected.
const SnapshotVersion = 4

// snapshotFormat identifies checkpoint files regardless of version.
const snapshotFormat = "wormsim-checkpoint"

// ErrSnapshot marks every snapshot decode/restore failure: wrong
// format, wrong version, checksum mismatch, or a payload inconsistent
// with the restoring configuration. Corrupted checkpoints surface as
// errors.Is(err, ErrSnapshot) — never a panic, never a silent resume
// from garbage.
var ErrSnapshot = errors.New("sim: invalid snapshot")

// Snapshot is a complete serialized engine state at a tick boundary:
// restoring it into an engine built from the identical Config resumes
// the run with byte-identical remaining series. Only state that cannot
// be recomputed is stored; active-set bitmaps, per-subnet counts, and
// link budgets are rebuilt on restore. Fields are exported for JSON
// only — treat the struct as opaque.
type Snapshot struct {
	// Identity of the run this snapshot belongs to; Restore rejects a
	// snapshot whose identity does not match the rebuilding Config.
	Nodes    int   `json:"nodes"`
	Links    int   `json:"links"`
	Ticks    int   `json:"ticks"`
	Seed     int64 `json:"seed"`
	NextTick int   `json:"next_tick"`

	// RNGIdx/RNGVal are the engine's RNG stream table stored sparsely:
	// RNGVal[k] is the current counter of stream RNGIdx[k], listed in
	// strictly ascending index order, and only for streams whose counter
	// differs from its seed-derived initial value. A counter-mode stream
	// advances by the odd constant rngGamma per draw, so it can never
	// return to its initial value: "differs" is exactly "has drawn".
	// Stream n (nodes) is the run-level stream. FaultState is the fault
	// injector's RNG state.
	RNGIdx     []uint32 `json:"rng_idx,omitempty"`
	RNGVal     []uint64 `json:"rng_val,omitempty"`
	FaultState uint64   `json:"fault_state,omitempty"`

	// StatesPacked holds the 2-bit node states four to a byte, node u at
	// bits 2*(u%4) of byte u/4; trailing bits of the last byte are zero.
	StatesPacked []byte `json:"states_packed"`

	Infected int `json:"infected"`
	Ever     int `json:"ever"`
	Removed  int `json:"removed"`

	Immunizing        bool `json:"immunizing"`
	ImmunizePending   int  `json:"immunize_pending"`
	DefenseActive     bool `json:"defense_active"`
	TriggerTick       int  `json:"trigger_tick"`
	ActivatedTick     int  `json:"activated_tick"`
	ScansThisTick     int  `json:"scans_this_tick"`
	ThrottledThisTick int  `json:"throttled_this_tick"`

	// Replay state: the benign-traffic counterparts of the scan
	// counters, and the workload stream position — the total contacts
	// consumed before NextTick, which restore verifies against a
	// re-created stream (resuming over a different trace must fail, not
	// silently diverge).
	BenignThisTick          int   `json:"benign_this_tick,omitempty"`
	BenignThrottledThisTick int   `json:"benign_throttled_this_tick,omitempty"`
	ReplayRecords           int64 `json:"replay_records,omitempty"`

	GenCount    uint64 `json:"gen_count"`
	DelivCount  uint64 `json:"deliv_count"`
	DropCount   uint64 `json:"drop_count"`
	PrevGen     uint64 `json:"prev_gen"`
	PrevDeliv   uint64 `json:"prev_deliv"`
	PrevDrop    uint64 `json:"prev_drop"`
	PrevEver    int    `json:"prev_ever"`
	PrevRemoved int    `json:"prev_removed"`

	// LinkCredit holds the fractional credit of each limited link, in
	// limited-index (= rank) order; RechargeDebt is the number of
	// recharge sweeps deferred across trailing quiescent ticks (see
	// Engine.rechargeLinks). RRPos is the per-node round-robin resume
	// position when node caps are configured.
	LinkCredit   []float64 `json:"link_credit,omitempty"`
	RechargeDebt int       `json:"recharge_debt,omitempty"`
	RRPos        []int32   `json:"rr_pos,omitempty"`

	Queues   []queueSnap   `json:"queues,omitempty"`
	Limiters []limiterSnap `json:"limiters,omitempty"`
	Pickers  []pickerSnap  `json:"pickers,omitempty"`

	Infections []Infection `json:"infections,omitempty"`

	Series seriesSnap `json:"series"`
}

// queueSnap is one non-empty link queue: packets flattened as
// (src, dst, kind, birth) quads.
type queueSnap struct {
	Link int32   `json:"link"`
	Pkts []int32 `json:"pkts"`
}

// limiterSnap is one host contact limiter's serialized state.
type limiterSnap struct {
	Node  int             `json:"node"`
	State json.RawMessage `json:"state"`
}

// pickerSnap is one infected node's stateful-picker state.
type pickerSnap struct {
	Node  int             `json:"node"`
	State json.RawMessage `json:"state"`
}

// seriesSnap is the partial per-tick series recorded so far.
type seriesSnap struct {
	Infected     []float64 `json:"infected"`
	EverInfected []float64 `json:"ever_infected"`
	Immunized    []float64 `json:"immunized"`
	Backlog      []int     `json:"backlog"`
	WithinSubnet []float64 `json:"within_subnet,omitempty"`
	MeanLatency  []float64 `json:"mean_latency,omitempty"`
}

// snapshotEnvelope is the on-disk container: the payload plus enough
// framing to reject foreign files, future versions, and corruption.
type snapshotEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Encode serializes the snapshot into its checksummed file format.
func (s *Snapshot) Encode() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("sim: encode snapshot: %w", err)
	}
	sum := sha256.Sum256(payload)
	return json.Marshal(snapshotEnvelope{
		Format:  snapshotFormat,
		Version: SnapshotVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	})
}

// DecodeSnapshot parses and verifies a checkpoint file. Every failure
// — not a checkpoint, a different version, a corrupted payload —
// returns an error matching ErrSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var env snapshotEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: not a checkpoint file: %v", ErrSnapshot, err)
	}
	if env.Format != snapshotFormat {
		return nil, fmt.Errorf("%w: format %q, want %q", ErrSnapshot, env.Format, snapshotFormat)
	}
	if env.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads version %d)",
			ErrSnapshot, env.Version, SnapshotVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("%w: payload checksum mismatch (file corrupted or truncated)", ErrSnapshot)
	}
	var s Snapshot
	if err := json.Unmarshal(env.Payload, &s); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrSnapshot, err)
	}
	return &s, nil
}

// WriteSnapshot writes the snapshot to path crash-safely (temp file in
// the same directory, fsync, atomic rename): a crash mid-write leaves
// the previous checkpoint intact, never a half-written file.
func WriteSnapshot(path string, s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return safeio.WriteFile(path, data, 0o644)
}

// ReadSnapshot reads and verifies the checkpoint at path.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data)
}

// Snapshot captures the engine's complete state at the current tick
// boundary. It fails if a configured host limiter or stateful picker
// cannot serialize its state; stateless pickers are skipped (the
// strategy factory rebuilds them).
func (e *Engine) Snapshot() (*Snapshot, error) {
	s := &Snapshot{
		Nodes:    e.n,
		Links:    e.links.Count(),
		Ticks:    e.cfg.Ticks,
		Seed:     e.cfg.Seed,
		NextTick: e.nextTick,

		StatesPacked: e.packStates(),

		Infected: e.infected,
		Ever:     e.ever,
		Removed:  e.removed,

		Immunizing:        e.immunizing,
		ImmunizePending:   e.immunizePending,
		DefenseActive:     e.defenseActive,
		TriggerTick:       e.triggerTick,
		ActivatedTick:     e.activatedTick,
		ScansThisTick:     e.scansThisTick,
		ThrottledThisTick: e.throttledThisTick,

		BenignThisTick:          e.benignThisTick,
		BenignThrottledThisTick: e.benignThrottledThisTick,
		ReplayRecords:           e.replayRecords,

		GenCount:    e.genCount,
		DelivCount:  e.delivCount,
		DropCount:   e.dropCount,
		PrevGen:     e.prevGen,
		PrevDeliv:   e.prevDeliv,
		PrevDrop:    e.prevDrop,
		PrevEver:    e.prevEver,
		PrevRemoved: e.prevRemoved,
	}
	// Sparse RNG: walk the materialized pages and record every counter
	// that moved off its initial value. Unmaterialized pages hold only
	// initial values by construction.
	for pi, page := range e.streams.pages {
		if page == nil {
			continue
		}
		base := pi << streamPageShift
		for k, cur := range page {
			i := base + k
			if i > e.n {
				break
			}
			if cur != e.streams.initial(i) {
				s.RNGIdx = append(s.RNGIdx, uint32(i))
				s.RNGVal = append(s.RNGVal, cur)
			}
		}
	}
	if e.faults != nil {
		s.FaultState = e.faults.State()
	}
	if len(e.limitedIdx) > 0 {
		s.LinkCredit = append([]float64(nil), e.linkCredit...)
		s.RechargeDebt = e.rechargeDebt
	}
	if e.rrPos != nil {
		s.RRPos = append([]int32(nil), e.rrPos...)
	}
	// Non-empty queues, in ascending link order via the active set (the
	// materialization order of queueTab is first-use order, which is
	// not canonical).
	for w, word := range e.queueBits {
		for word != 0 {
			li := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			q := e.queueTab[e.queueSlot[li]]
			pkts := make([]int32, 0, len(q)*4)
			for _, p := range q {
				pkts = append(pkts, p.src, p.dst, int32(p.kind), p.birth)
			}
			s.Queues = append(s.Queues, queueSnap{Link: int32(li), Pkts: pkts})
		}
	}
	// Host limiters, ascending by node (limiterTab is in configuration
	// order, so scan the slot directory instead).
	if e.limiterSlot != nil {
		for u := 0; u < e.n; u++ {
			ls := e.limiterSlot[u]
			if ls < 0 {
				continue
			}
			l := e.limiterTab[ls]
			m, ok := l.(ratelimit.StateMarshaler)
			if !ok {
				return nil, fmt.Errorf("sim: host limiter of node %d (%T) does not support snapshots", u, l)
			}
			data, err := m.MarshalState()
			if err != nil {
				return nil, fmt.Errorf("sim: snapshot limiter of node %d: %w", u, err)
			}
			s.Limiters = append(s.Limiters, limiterSnap{Node: u, State: data})
		}
	}
	// Stateful pickers of infected nodes, ascending via the active set.
	for w, word := range e.infectedBits {
		for word != 0 {
			u := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			m, ok := e.pickerTab[e.pickerSlot[u]].(worm.StateMarshaler)
			if !ok {
				continue // stateless picker: the factory rebuilds it exactly
			}
			data, err := m.MarshalState()
			if err != nil {
				return nil, fmt.Errorf("sim: snapshot picker of node %d: %w", u, err)
			}
			s.Pickers = append(s.Pickers, pickerSnap{Node: u, State: data})
		}
	}
	if e.cfg.RecordInfections {
		s.Infections = append([]Infection(nil), e.infections...)
	}
	if e.res != nil {
		s.Series = seriesSnap{
			Infected:     append([]float64(nil), e.res.Infected...),
			EverInfected: append([]float64(nil), e.res.EverInfected...),
			Immunized:    append([]float64(nil), e.res.Immunized...),
			Backlog:      append([]int(nil), e.res.Backlog...),
			WithinSubnet: append([]float64(nil), e.res.WithinSubnet...),
			MeanLatency:  append([]float64(nil), e.res.MeanLatency...),
		}
	}
	return s, nil
}

// packStates serializes the packed state words into the snapshot's
// four-nodes-per-byte layout (byte u/4, bits 2*(u%4) — the
// little-endian bytes of Engine.stateBits, truncated to ⌈n/4⌉).
func (e *Engine) packStates() []byte {
	b := make([]byte, (e.n+3)/4)
	for i := range b {
		b[i] = byte(e.stateBits[i>>3] >> (uint(i&7) * 8))
	}
	return b
}

// Restore builds an engine from cfg positioned at the snapshot's tick
// boundary. cfg must be the configuration the snapshot was taken under
// (same graph, parameters, seed); mismatches that are cheap to detect
// are rejected with ErrSnapshot, the rest are the caller's contract.
// The restored engine's RunContext continues at snapshot.NextTick and
// produces the byte-identical remaining series of an uninterrupted run.
func Restore(cfg Config, snap *Snapshot) (*Engine, error) {
	return restoreEngine(cfg, snap, nil)
}

// restoreEngine is Restore with an optional shared netState (MultiRun
// resumes replicas over the routing state it already built).
func restoreEngine(cfg Config, snap *Snapshot, ns *netState) (*Engine, error) {
	e, err := newEngine(cfg, ns)
	if err != nil {
		return nil, err
	}
	if err := e.restore(snap); err != nil {
		return nil, err
	}
	return e, nil
}

// restore overwrites a freshly built engine's mutable state with the
// snapshot's, validating everything the configuration lets it check.
func (e *Engine) restore(s *Snapshot) error {
	if s.Nodes != e.n || s.Links != e.links.Count() {
		return fmt.Errorf("%w: snapshot of %d nodes / %d links, config builds %d / %d",
			ErrSnapshot, s.Nodes, s.Links, e.n, e.links.Count())
	}
	if s.Seed != e.cfg.Seed {
		return fmt.Errorf("%w: snapshot of seed %d, config has seed %d", ErrSnapshot, s.Seed, e.cfg.Seed)
	}
	if s.Ticks != e.cfg.Ticks {
		return fmt.Errorf("%w: snapshot of a %d-tick run, config has %d", ErrSnapshot, s.Ticks, e.cfg.Ticks)
	}
	if s.NextTick < 0 || s.NextTick > e.cfg.Ticks {
		return fmt.Errorf("%w: next tick %d out of [0,%d]", ErrSnapshot, s.NextTick, e.cfg.Ticks)
	}
	if len(s.StatesPacked) != (e.n+3)/4 {
		return fmt.Errorf("%w: %d packed state bytes for %d nodes (want %d)",
			ErrSnapshot, len(s.StatesPacked), e.n, (e.n+3)/4)
	}
	if e.n%4 != 0 && len(s.StatesPacked) > 0 {
		if last := s.StatesPacked[len(s.StatesPacked)-1]; last>>(uint(e.n%4)*2) != 0 {
			return fmt.Errorf("%w: trailing state bits beyond node %d are set", ErrSnapshot, e.n-1)
		}
	}
	if len(s.RNGIdx) != len(s.RNGVal) {
		return fmt.Errorf("%w: %d RNG stream indexes with %d values",
			ErrSnapshot, len(s.RNGIdx), len(s.RNGVal))
	}
	for k, idx := range s.RNGIdx {
		if int(idx) > e.n {
			return fmt.Errorf("%w: RNG stream index %d beyond run stream %d", ErrSnapshot, idx, e.n)
		}
		if k > 0 && idx <= s.RNGIdx[k-1] {
			return fmt.Errorf("%w: RNG stream indexes not strictly ascending at %d", ErrSnapshot, idx)
		}
	}
	if len(s.Series.Infected) != s.NextTick || len(s.Series.EverInfected) != s.NextTick ||
		len(s.Series.Immunized) != s.NextTick || len(s.Series.Backlog) != s.NextTick {
		return fmt.Errorf("%w: series length != %d completed ticks", ErrSnapshot, s.NextTick)
	}
	if e.cfg.TrackSubnets && len(s.Series.WithinSubnet) != s.NextTick {
		return fmt.Errorf("%w: within-subnet series length %d != %d (was the snapshot taken without TrackSubnets?)",
			ErrSnapshot, len(s.Series.WithinSubnet), s.NextTick)
	}
	if e.cfg.TrackLatency && len(s.Series.MeanLatency) != s.NextTick {
		return fmt.Errorf("%w: latency series length %d != %d (was the snapshot taken without TrackLatency?)",
			ErrSnapshot, len(s.Series.MeanLatency), s.NextTick)
	}

	// Node states. The snapshot must agree with the configuration on
	// which nodes are excluded: exclusion is config-derived (HostsOnly ×
	// Roles), and the fresh engine's packed words hold exactly the
	// config's exclusion set (plus seed infections, which are never
	// excluded). Then the packed words are rebuilt wholesale, with the
	// derived counts and active sets cross-checked against the stored
	// totals.
	snapState := func(u int) uint8 {
		return s.StatesPacked[u>>2] >> (uint(u&3) * 2) & 3
	}
	for u := 0; u < e.n; u++ {
		if (snapState(u) == stateExcluded) != (e.stateOf(u) == stateExcluded) {
			return fmt.Errorf("%w: node %d exclusion disagrees with config (HostsOnly/Roles changed?)",
				ErrSnapshot, u)
		}
	}
	clear(e.stateBits)
	clear(e.infectedBits)
	for i := range e.subnetInfected {
		e.subnetInfected[i] = 0
	}
	nInfected, nRemoved := 0, 0
	for u := 0; u < e.n; u++ {
		st := snapState(u)
		switch st {
		case stateSusceptible:
			continue
		case stateInfected:
			nInfected++
			e.infectedBits[u>>6] |= 1 << (uint(u) & 63)
			if e.cfg.TrackSubnets {
				if sub := e.env.Subnet[u]; sub >= 0 {
					e.subnetInfected[sub]++
				}
			}
		case stateRemoved:
			nRemoved++
		}
		e.setState(u, st)
	}
	if nInfected != s.Infected || nRemoved != s.Removed {
		return fmt.Errorf("%w: stored counts (%d infected, %d removed) disagree with states (%d, %d)",
			ErrSnapshot, s.Infected, s.Removed, nInfected, nRemoved)
	}
	if s.Ever < nInfected || s.Ever > e.n {
		return fmt.Errorf("%w: ever-infected count %d out of [%d,%d]", ErrSnapshot, s.Ever, nInfected, e.n)
	}
	e.infected, e.ever, e.removed = s.Infected, s.Ever, s.Removed

	// Pickers: rebuild via the strategy factory for the restored
	// infected set (ascending node order; the table's slot order is not
	// observable), then overlay recorded stateful-picker state.
	e.pickerTab = e.pickerTab[:0]
	for u := 0; u < e.n; u++ {
		e.pickerSlot[u] = -1
		if e.stateOf(u) == stateInfected {
			e.pickerSlot[u] = int32(len(e.pickerTab))
			e.pickerTab = append(e.pickerTab, e.cfg.Strategy(e.env, u))
		}
	}
	for _, ps := range s.Pickers {
		if ps.Node < 0 || ps.Node >= e.n || e.stateOf(ps.Node) != stateInfected {
			return fmt.Errorf("%w: picker state for node %d which is not infected", ErrSnapshot, ps.Node)
		}
		m, ok := e.pickerTab[e.pickerSlot[ps.Node]].(worm.StateMarshaler)
		if !ok {
			return fmt.Errorf("%w: picker state recorded for node %d but the configured strategy is stateless",
				ErrSnapshot, ps.Node)
		}
		if err := m.UnmarshalState(ps.State); err != nil {
			return fmt.Errorf("%w: picker of node %d: %v", ErrSnapshot, ps.Node, err)
		}
	}

	// Link queues: drop every materialized queue and rebuild from the
	// snapshot (slot order is restore order here, first-use order on a
	// live run; neither is observable).
	nLinks := e.links.Count()
	for i := range e.queueSlot {
		e.queueSlot[i] = -1
	}
	e.queueTab = e.queueTab[:0]
	e.queueLink = e.queueLink[:0]
	clear(e.queueBits)
	e.backlog = 0
	for _, qs := range s.Queues {
		li := int(qs.Link)
		if li < 0 || li >= nLinks {
			return fmt.Errorf("%w: queue for link %d out of [0,%d)", ErrSnapshot, li, nLinks)
		}
		if len(qs.Pkts)%4 != 0 || len(qs.Pkts) == 0 {
			return fmt.Errorf("%w: link %d queue has %d values (not non-empty quads)", ErrSnapshot, li, len(qs.Pkts))
		}
		if e.queueSlot[li] >= 0 {
			return fmt.Errorf("%w: duplicate queue entry for link %d", ErrSnapshot, li)
		}
		q := make([]packet, 0, len(qs.Pkts)/4)
		for i := 0; i < len(qs.Pkts); i += 4 {
			p := packet{src: qs.Pkts[i], dst: qs.Pkts[i+1], kind: packetKind(qs.Pkts[i+2]), birth: qs.Pkts[i+3]}
			if p.src < 0 || int(p.src) >= e.n || p.dst < 0 || int(p.dst) >= e.n {
				return fmt.Errorf("%w: link %d carries packet with endpoints %d->%d", ErrSnapshot, li, p.src, p.dst)
			}
			if p.kind > kindBenign {
				return fmt.Errorf("%w: link %d carries packet of unknown kind %d", ErrSnapshot, li, p.kind)
			}
			q = append(q, p)
		}
		e.queueSlot[li] = int32(len(e.queueTab))
		e.queueTab = append(e.queueTab, q)
		e.queueLink = append(e.queueLink, int32(li))
		e.queueBits[li>>6] |= 1 << (uint(li) & 63)
		e.backlog += len(q)
	}

	// Host limiter state: every configured limiter must have been
	// recorded, and every recorded limiter must still be configured.
	if len(s.Limiters) != len(e.limiterTab) {
		return fmt.Errorf("%w: %d limiter states for %d configured host limiters",
			ErrSnapshot, len(s.Limiters), len(e.limiterTab))
	}
	for _, ls := range s.Limiters {
		if ls.Node < 0 || ls.Node >= e.n || e.limiterSlot == nil || e.limiterSlot[ls.Node] < 0 {
			return fmt.Errorf("%w: limiter state for node %d which has no host limiter", ErrSnapshot, ls.Node)
		}
		l := e.limiterTab[e.limiterSlot[ls.Node]]
		m, ok := l.(ratelimit.StateMarshaler)
		if !ok {
			return fmt.Errorf("%w: host limiter of node %d (%T) does not support snapshots",
				ErrSnapshot, ls.Node, l)
		}
		if err := m.UnmarshalState(ls.State); err != nil {
			return fmt.Errorf("%w: limiter of node %d: %v", ErrSnapshot, ls.Node, err)
		}
	}

	// Link credits, deferred recharges, and round-robin positions.
	if len(s.LinkCredit) != len(e.limitedIdx) {
		return fmt.Errorf("%w: %d link credits for %d limited links", ErrSnapshot, len(s.LinkCredit), len(e.limitedIdx))
	}
	if s.RechargeDebt < 0 {
		return fmt.Errorf("%w: negative recharge debt %d", ErrSnapshot, s.RechargeDebt)
	}
	copy(e.linkCredit, s.LinkCredit)
	e.rechargeDebt = s.RechargeDebt
	if (e.rrPos == nil) != (len(s.RRPos) == 0) {
		return fmt.Errorf("%w: node-cap scheduler state disagrees with configured NodeCaps", ErrSnapshot)
	}
	if e.rrPos != nil {
		if len(s.RRPos) != e.n {
			return fmt.Errorf("%w: %d round-robin positions for %d nodes", ErrSnapshot, len(s.RRPos), e.n)
		}
		copy(e.rrPos, s.RRPos)
		for u := range e.cappedServed {
			e.cappedServed[u] = -1
		}
	}

	// Defense, immunization, and counter state.
	e.immunizing = s.Immunizing
	e.immunizePending = s.ImmunizePending
	e.defenseActive = s.DefenseActive
	e.triggerTick = s.TriggerTick
	e.activatedTick = s.ActivatedTick
	e.scansThisTick = s.ScansThisTick
	e.throttledThisTick = s.ThrottledThisTick
	e.benignThisTick = s.BenignThisTick
	e.benignThrottledThisTick = s.BenignThrottledThisTick
	e.genCount, e.delivCount, e.dropCount = s.GenCount, s.DelivCount, s.DropCount
	e.prevGen, e.prevDeliv, e.prevDrop = s.PrevGen, s.PrevDeliv, s.PrevDrop
	e.prevEver, e.prevRemoved = s.PrevEver, s.PrevRemoved
	e.latSum, e.latCount = 0, 0

	if e.cfg.RecordInfections {
		e.infections = append(e.infections[:0], s.Infections...)
	}
	if e.faults != nil {
		e.faults.SetState(s.FaultState)
	}

	// Replay workload: the fresh engine's stream sits at tick 0;
	// fast-forward it to the snapshot boundary and verify it yields
	// exactly the contact count the snapshot consumed — a different
	// trace (edited file, changed generator profile) fails here instead
	// of silently diverging from the checkpointed run.
	if e.workload != nil {
		skipped, err := e.workload.Skip(s.NextTick)
		if err != nil {
			return fmt.Errorf("%w: replay skip to tick %d: %v", ErrSnapshot, s.NextTick, err)
		}
		if skipped != s.ReplayRecords {
			return fmt.Errorf("%w: replay stream yields %d contacts before tick %d, snapshot consumed %d (different trace?)",
				ErrSnapshot, skipped, s.NextTick, s.ReplayRecords)
		}
		e.replayRecords = s.ReplayRecords
	} else if s.ReplayRecords != 0 {
		return fmt.Errorf("%w: snapshot of a trace-replay run, but the config has no replay workload", ErrSnapshot)
	}

	// RNG: reset the lazily-materialized stream table, re-materialize
	// the pages the restored run will draw from — the run stream, every
	// infected node's page, and the whole table once immunization is
	// rolling — then overlay the checkpointed counters (ensuring each
	// one's page: a counter may belong to a node that drew and was since
	// patched). The engine's rand.Rand aliases the table, so it sees the
	// restored positions immediately.
	e.streams.reset()
	e.streams.ensure(e.n)
	if e.immunizing {
		e.streams.ensureAll()
	} else {
		for w, word := range e.infectedBits {
			for word != 0 {
				u := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e.streams.ensure(u)
			}
		}
	}
	for k, idx := range s.RNGIdx {
		e.streams.ensure(int(idx))
		e.streams.pages[idx>>streamPageShift][idx&(streamPageLen-1)] = s.RNGVal[k]
	}

	// Partial series; RunContext appends the remaining ticks.
	e.res = &Result{
		Infected:     append(make([]float64, 0, e.cfg.Ticks), s.Series.Infected...),
		EverInfected: append(make([]float64, 0, e.cfg.Ticks), s.Series.EverInfected...),
		Immunized:    append(make([]float64, 0, e.cfg.Ticks), s.Series.Immunized...),
		Backlog:      append(make([]int, 0, e.cfg.Ticks), s.Series.Backlog...),
	}
	if e.cfg.TrackSubnets {
		e.res.WithinSubnet = append(make([]float64, 0, e.cfg.Ticks), s.Series.WithinSubnet...)
	}
	if e.cfg.TrackLatency {
		e.res.MeanLatency = append(make([]float64, 0, e.cfg.Ticks), s.Series.MeanLatency...)
	}
	e.nextTick = s.NextTick
	e.tick = s.NextTick - 1
	return nil
}
