package sim

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/ratelimit"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/worm"
)

// Node states, stored as 2-bit fields packed 32 per uint64 word
// (Engine.stateBits): a 10M-node run keeps all S/I/R state in 2.5 MB
// instead of a byte slice plus a separate susceptibility mask.
const (
	stateSusceptible uint8 = iota
	stateInfected
	stateRemoved // patched/immunized
	// stateExcluded marks nodes outside the susceptible population
	// (HostsOnly routers): never infectable, never patched. Folding the
	// exclusion into the state field replaces the old susceptibleMask
	// byte-per-node slice.
	stateExcluded
)

// packetKind distinguishes the stages of a probe-first infection.
type packetKind uint8

const (
	// kindExploit is a direct infection attempt (the default worm).
	kindExploit packetKind = iota
	// kindProbe is a Welchia-style ICMP echo: the target must reply
	// before the exploit is sent.
	kindProbe
	// kindReply is the probe response travelling back to the scanner.
	kindReply
	// kindBenign is background (normal/server/P2P) traffic injected by a
	// trace-replay workload: it competes for queues and link budgets but
	// never infects — delivery is the end of its life.
	kindBenign
)

// packet is an in-flight worm packet: src is the scanning host (for
// the infection genealogy), dst the target, birth the tick the packet
// entered the network (for latency accounting).
type packet struct {
	src   int32
	dst   int32
	kind  packetKind
	birth int32
}

// queued is one arena entry: a packet waiting on directed link link.
type queued struct {
	link int32
	pkt  packet
}

// Engine executes one simulation run. Construct with New; it is not safe
// for concurrent use (run replicas in separate engines).
//
// All per-tick state is dense and index-addressed: directed links carry
// small-integer indexes (routing.Links, ascending by source then
// destination — the deterministic iteration order every series depends
// on), and nodes index flat slices. The hot path performs no map
// lookups; maps appear only at the construction boundary, translating
// Config's map-shaped options into slices. Sparse activity is tracked
// by two bitsets — infected nodes and non-empty link queues — scanned
// in ascending order, so idle nodes and idle links cost nothing while
// the visit order stays identical to a full scan.
type Engine struct {
	cfg Config
	// streams is the per-node counter-mode RNG table (index n is the
	// run-level stream), materialized lazily in 64-stream pages; rng is
	// one reusable rand.Rand whose source is re-pointed at the stream of
	// the node being simulated (see rng.go).
	streams *streamTable
	rngSrc  streamSource
	rng     *rand.Rand
	links   *routing.Links
	// structural names the directed link of u's next hop toward any
	// destination: the entire routing decision of the per-packet path.
	structural *routing.Structural
	n          int

	// stateBits packs every node's S/I/R/excluded state into 2 bits
	// (32 nodes per word); read through stateOf, written through
	// setState.
	stateBits []uint64
	env       *worm.Env

	// pickerSlot[u] indexes node u's target picker in pickerTab (-1
	// before u's first infection). Pickers are two-word interface
	// values; keeping them in an ever-infected-order table instead of a
	// dense slice cuts 16 B/node to 4 B/node plus the infected set.
	pickerSlot []int32
	pickerTab  []worm.Picker

	// infectedBits is the infected-node active set (bit u set iff
	// stateOf(u) == stateInfected), maintained by infect/immunize and
	// scanned ascending by generate.
	infectedBits []uint64

	// arena holds every queued packet as a (link, packet) entry, in
	// arrival order; its length is the backlog. queueLen[li] counts
	// link li's entries — the DropTail check reads it — and transmit
	// turns the counts into offsets for a stable counting sort of the
	// arena into sorted, where each link's segment is its FIFO queue
	// (DESIGN.md §9). sendOrder lists the sorted entries transmit sent,
	// in send order, for deliver. All three buffers are reused across
	// ticks and sized by the packets in flight, not by the link count.
	arena     []queued
	sorted    []queued
	sendOrder []int32
	queueLen  []int32
	// queueBits is the non-empty-queue active set (bit li set iff
	// queueLen[li] > 0), scanned ascending by transmit.
	queueBits []uint64

	// linkLimitedBits marks rate-limited directed links (bit li).
	// Limited links are rank-indexed: rank r = limitedRankBase of li's
	// word + popcount of the lower bits, and limitedIdx[r] = li
	// (ascending). linkRate[r] is the per-tick packet rate; fractional
	// rates accumulate in linkCredit[r], and linkBudget[r] is the
	// whole-packet allowance recomputed by rechargeLinks. rechargeDebt
	// counts recharges deferred across quiescent ticks (nothing queued
	// ⇒ nothing to spend against); the next tick with a backlog replays
	// them sequentially, so the credit trajectory is bit-identical to a
	// per-tick sweep. The rank slices are nil when nothing is limited.
	linkLimitedBits []uint64
	limitedRankBase []int32
	linkRate        []float64
	linkCredit      []float64
	linkBudget      []int32
	limitedIdx      []int32
	rechargeDebt    int

	// betaByNode folds Config.Beta and ScanRateOverride into one dense
	// per-node scan probability; nil without overrides (the scalar
	// cfg.Beta then serves every node).
	betaByNode []float64

	popSize int // nodes not stateExcluded

	// nodeCap[u] is u's per-tick forwarding cap, -1 when uncapped; nil
	// when no node caps are configured. rrPos[u] is the round-robin
	// resume index for capped routers, and cappedServed[u] marks the
	// tick u's capped scheduler already ran (transmit encounters a
	// capped node once per non-empty queue, but must serve it once).
	nodeCap      []int32
	rrPos        []int32
	cappedServed []int32

	infected   int
	ever       int
	removed    int
	immunizing bool
	// immunizePending is the tick at which a fault-delayed immunization
	// process actually starts (-1 = no delayed start scheduled).
	immunizePending int

	// Dynamic quarantine state: the configured limits only bite once
	// defenseActive is set. scansThisTick counts scan attempts at the
	// monitor point (post β roll and self-target skip, pre host limiter):
	// the pre-throttle stream a detector at the backbone would observe.
	// The trigger is evaluated at the *start* of a tick against the
	// previous tick's completed counters, so a tick is either fully open
	// or fully defended — detection can never react to traffic of the
	// tick it gates.
	defenseActive     bool
	triggerTick       int // tick at which activation is scheduled (-1 = not yet)
	activatedTick     int // tick at which the defense engaged (-1 = never)
	scansThisTick     int
	throttledThisTick int // contacts a host limiter blocked this tick

	// Trace-replay state (Config.Replay non-nil, see replay.go):
	// workload is this run's contact stream, replayHosts maps trace host
	// indices onto nodes, and replayRecords is the stream position —
	// total contacts consumed — snapshotted so a restore can verify it
	// resumes over the same trace. workloadErr aborts the run at the
	// next tick boundary (the tick loop has no error channel inside
	// generate). benignThisTick / benignThrottledThisTick are the
	// benign-traffic counterparts of scansThisTick / throttledThisTick:
	// the per-tick collateral-damage signal.
	workload                Workload
	replayHosts             []int32
	replayRecords           int64
	workloadErr             error
	benignThisTick          int
	benignThrottledThisTick int

	// faults is the domain fault injector (nil when Config.Faults is nil
	// or inert). It draws from its own RNG, never the engine's, so a
	// faulted run consumes the identical engine RNG stream as the
	// fault-free run. limitsDown marks ticks inside a limiter outage
	// window; limitsActive is the effective per-tick defense state
	// (defenseActive minus outages) the transmit path checks.
	faults       *fault.Injector
	limitsDown   bool
	limitsActive bool

	// Cumulative packet-flow counters (plain increments, kept with or
	// without a collector so the invariant audit can always check
	// conservation: genCount == delivCount + dropCount + backlog).
	genCount   uint64
	delivCount uint64
	dropCount  uint64

	// collector receives per-tick metrics and events when non-nil; the
	// prev* fields turn the cumulative counters into per-tick deltas.
	collector   obs.Collector
	prevGen     uint64
	prevDeliv   uint64
	prevDrop    uint64
	prevEver    int
	prevRemoved int

	// auditedEver is ever-infected as of the last audit, so the audit
	// can check that it never decreases.
	auditedEver int

	// limiterSlot[u] indexes node u's contact limiter in limiterTab
	// (-1 for unfiltered nodes); nil slice means no host limiting at
	// all. Same sparse-table layout as the pickers.
	limiterSlot []int32
	limiterTab  []ratelimit.ContactLimiter

	// subnetSize and subnetInfected track per-subnet infection when
	// TrackSubnets is on; dense slices indexed by subnet id so the
	// per-tick within-subnet average sums in a fixed order (float
	// addition is not associative; map iteration would make the series
	// nondeterministic across runs).
	subnetSize     []int32
	subnetInfected []int32

	// infections is the genealogy log when RecordInfections is on.
	infections []Infection
	tick       int

	// nextTick is the first tick RunContext still has to simulate: 0 for
	// a fresh engine, the checkpointed boundary after a restore. res is
	// the (possibly restored, partial) series RunContext appends to.
	nextTick int
	res      *Result

	// latSum/latCount accumulate this tick's delivered-packet latency.
	latSum   int64
	latCount int64

	// capScratch is transmitCapped's per-adjacency-slot view of the
	// sorted arena, reused across ticks.
	capScratch []capSlot
}

// stateOf reads node u's packed 2-bit state.
func (e *Engine) stateOf(u int) uint8 {
	return uint8(e.stateBits[u>>5]>>(uint(u&31)*2)) & 3
}

// setState writes node u's packed state. Serial contexts only: the
// read-modify-write touches the word shared by u's 31 neighbours.
func (e *Engine) setState(u int, s uint8) {
	sh := uint(u&31) * 2
	w := &e.stateBits[u>>5]
	*w = *w&^(3<<sh) | uint64(s)<<sh
}

// linkLimited reports whether directed link li is rate limited.
func (e *Engine) linkLimited(li int) bool {
	return e.linkLimitedBits[li>>6]&(1<<(uint(li)&63)) != 0
}

// limitedRank returns limited link li's index into the rank-ordered
// rate/credit/budget slices: the number of limited links before it,
// from the per-word prefix counts plus a popcount of the lower bits.
func (e *Engine) limitedRank(li int) int {
	w := li >> 6
	return int(e.limitedRankBase[w]) +
		bits.OnesCount64(e.linkLimitedBits[w]&(1<<(uint(li)&63)-1))
}

// New builds an engine from cfg. The topology must be connected. The
// engine routes over cfg.Net, or over a private Net built from
// cfg.Graph when that is nil.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Graph.Connected() {
		return nil, topology.ErrDisconnected
	}
	if cfg.Net == nil {
		cfg.Net = BuildNet(cfg.Graph)
	}
	n := cfg.Graph.N()
	e := &Engine{
		cfg:          cfg,
		streams:      newStreamTable(cfg.Seed, n),
		links:        cfg.Net.links,
		structural:   cfg.Net.structural,
		n:            n,
		stateBits:    make([]uint64, (n+31)/32),
		pickerSlot:   make([]int32, n),
		infectedBits: make([]uint64, (n+63)/64),
	}
	for i := range e.pickerSlot {
		e.pickerSlot[i] = -1
	}
	// The run-level stream draws during construction (seed placement);
	// node pages materialize as nodes are infected.
	e.streams.ensure(n)
	e.rngSrc.t = e.streams
	e.rng = rand.New(&e.rngSrc)
	if e.cfg.BaseRate == 0 {
		e.cfg.BaseRate = DefaultBaseRate
	}

	e.buildEnv()
	e.buildStates()
	e.buildBeta()
	e.buildLinkState()
	e.buildNodeCaps()
	if len(cfg.HostLimiterNodes) > 0 {
		e.limiterSlot = make([]int32, n)
		for i := range e.limiterSlot {
			e.limiterSlot[i] = -1
		}
		for _, u := range cfg.HostLimiterNodes {
			if s := e.limiterSlot[u]; s >= 0 {
				e.limiterTab[s] = cfg.HostLimiterFactory()
				continue
			}
			e.limiterSlot[u] = int32(len(e.limiterTab))
			e.limiterTab = append(e.limiterTab, cfg.HostLimiterFactory())
		}
	}
	if cfg.TrackSubnets {
		maxSubnet := int32(-1)
		for _, s := range e.env.Subnet {
			if s > maxSubnet {
				maxSubnet = s
			}
		}
		e.subnetSize = make([]int32, maxSubnet+1)
		e.subnetInfected = make([]int32, maxSubnet+1)
		for _, s := range e.env.Subnet {
			if s >= 0 {
				e.subnetSize[s]++
			}
		}
	}
	e.defenseActive = cfg.Quarantine == nil
	e.triggerTick = -1
	e.activatedTick = -1
	if e.defenseActive {
		e.activatedTick = 0
	}
	e.faults = fault.NewInjector(cfg.Faults)
	e.immunizePending = -1
	e.collector = cfg.Collector
	if cfg.Replay != nil {
		if err := e.buildReplay(); err != nil {
			return nil, err
		}
	}
	e.tick = -1 // seed infections predate tick 0
	if err := e.seedInfections(); err != nil {
		return nil, err
	}
	// Seeds predate tick 0: NewInfections at tick 0 reports propagation
	// only, not the initial compromise.
	e.prevEver = e.ever
	return e, nil
}

// buildEnv assembles the worm.Env the strategy factories consume.
func (e *Engine) buildEnv() {
	subnet := make([]int32, e.n)
	switch {
	case e.cfg.Subnet != nil:
		for i, s := range e.cfg.Subnet {
			subnet[i] = int32(s)
		}
	case e.cfg.Roles != nil:
		for i, s := range topology.Subnets(e.cfg.Graph, e.cfg.Roles) {
			subnet[i] = int32(s)
		}
	default:
		// Zero-valued: one flat subnet.
	}
	e.env = &worm.Env{N: e.n, Subnet: subnet}
}

// buildStates seeds the packed state words: every node starts
// susceptible except the excluded (never-infectable) ones.
func (e *Engine) buildStates() {
	if e.cfg.HostsOnly && e.cfg.Roles != nil {
		for u := 0; u < e.n; u++ {
			if e.cfg.Roles[u] != topology.RoleHost {
				e.setState(u, stateExcluded)
			} else {
				e.popSize++
			}
		}
		return
	}
	e.popSize = e.n
}

// buildBeta folds per-node scan-rate overrides into a dense slice; with
// no overrides the slice stays nil and the scalar Config.Beta serves
// every node (8 B/node saved on homogeneous populations).
func (e *Engine) buildBeta() {
	if len(e.cfg.ScanRateOverride) == 0 {
		return
	}
	e.betaByNode = make([]float64, e.n)
	for u := range e.betaByNode {
		e.betaByNode[u] = e.cfg.Beta
	}
	for u, b := range e.cfg.ScanRateOverride {
		e.betaByNode[u] = b
	}
}

// buildLinkState sizes the per-link queue counts and assigns per-tick
// packet rates to every directed link incident to a rate-limited node.
// Rate/credit/budget live in rank-indexed slices sized by the
// limited-link count, not the link count.
func (e *Engine) buildLinkState() {
	nLinks := e.links.Count()
	e.queueLen = make([]int32, nLinks)
	e.queueBits = make([]uint64, (nLinks+63)/64)
	e.linkLimitedBits = make([]uint64, (nLinks+63)/64)

	limited := make(map[int]bool, len(e.cfg.LimitedNodes))
	for _, u := range e.cfg.LimitedNodes {
		limited[u] = true
	}
	limitedLinks := make(map[routing.LinkID]bool, len(e.cfg.LimitedLinks))
	for _, l := range e.cfg.LimitedLinks {
		limitedLinks[routing.MakeLinkID(l.U, l.V)] = true
	}
	if len(limited) == 0 && len(limitedLinks) == 0 {
		return
	}
	for li := 0; li < nLinks; li++ {
		u, v := e.links.From(li), e.links.To(li)
		if !limited[u] && !limited[v] && !limitedLinks[routing.MakeLinkID(u, v)] {
			continue
		}
		w := 1.0
		if e.cfg.LinkWeights != nil {
			if lw, ok := e.cfg.LinkWeights[routing.MakeLinkID(u, v)]; ok {
				w = lw
			}
		}
		rate := e.cfg.BaseRate * w
		if rate <= 0 {
			rate = e.cfg.BaseRate
		}
		e.linkLimitedBits[li>>6] |= 1 << (uint(li) & 63)
		e.linkRate = append(e.linkRate, rate)
		e.limitedIdx = append(e.limitedIdx, int32(li))
	}
	e.limitedRankBase = make([]int32, len(e.linkLimitedBits))
	rank := int32(0)
	for w, word := range e.linkLimitedBits {
		e.limitedRankBase[w] = rank
		rank += int32(bits.OnesCount64(word))
	}
	e.linkCredit = make([]float64, len(e.limitedIdx))
	e.linkBudget = make([]int32, len(e.limitedIdx))
}

// buildNodeCaps converts the NodeCaps map into the dense cap slice and
// allocates the round-robin scheduler state.
func (e *Engine) buildNodeCaps() {
	if len(e.cfg.NodeCaps) == 0 {
		return
	}
	e.nodeCap = make([]int32, e.n)
	for u := range e.nodeCap {
		e.nodeCap[u] = -1
	}
	for u, c := range e.cfg.NodeCaps {
		e.nodeCap[u] = int32(c)
	}
	e.rrPos = make([]int32, e.n)
	e.cappedServed = make([]int32, e.n)
	for u := range e.cappedServed {
		e.cappedServed[u] = -1
	}
}

// rechargeLinks rebuilds every limited link's whole-packet budget for
// the coming tick from its accumulated fractional credit. On a
// quiescent tick — no packet queued anywhere, so transmit cannot spend
// — the sweep is deferred: rechargeDebt counts the owed recharges and
// the next busy tick replays them sequentially. The replay repeats the
// exact per-tick operation (add, then clamp) instead of adding
// rate×debt in one step: float addition is not associative, and the
// credit trajectory is pinned by the golden fixtures. The loop is
// bounded regardless of debt, because credit clamps at burst and stays
// there — once clamped, the remaining replays are identities.
func (e *Engine) rechargeLinks() {
	if len(e.limitedIdx) == 0 {
		return
	}
	if len(e.arena) == 0 {
		e.rechargeDebt++
		return
	}
	steps := e.rechargeDebt + 1
	e.rechargeDebt = 0
	for r := range e.limitedIdx {
		rate := e.linkRate[r]
		burst := rate + 1
		c := e.linkCredit[r]
		for j := 0; j < steps; j++ {
			c += rate
			if c > burst {
				c = burst // minimal bursting: banked credit caps at rate+1
				break     // fixed point: further recharges are identities
			}
		}
		e.linkCredit[r] = c
		e.linkBudget[r] = int32(c)
	}
}

// spendLink records n packets sent on the limited link of rank r this
// tick. Callers check linkLimited first: unlimited links carry no
// budget state.
func (e *Engine) spendLink(r int, n int) {
	e.linkBudget[r] -= int32(n)
	e.linkCredit[r] -= float64(n)
}

// settle closes link li's segment of the sorted arena after transmit
// sent everything before index sent: the unsent rest, up to end, is
// dropped under PolicyDrop and otherwise carried back into the arena,
// where it stays ahead of anything routed later.
func (e *Engine) settle(li int, sent, end int32) {
	left := e.sorted[sent:end]
	if e.cfg.Policy == PolicyDrop {
		e.dropCount += uint64(len(left))
		left = nil
	}
	e.arena = append(e.arena, left...)
	e.queueLen[li] = int32(len(left))
	if len(left) == 0 {
		e.queueBits[li>>6] &^= 1 << (uint(li) & 63)
	}
}

// seedInfections infects InitialInfected distinct susceptible nodes —
// or, on a replay run with a declared infected class, exactly the
// mapped worm hosts (no RNG draw; see seedReplayInfections).
func (e *Engine) seedInfections() error {
	if rc := e.cfg.Replay; rc != nil && len(rc.WormHosts) > 0 {
		return e.seedReplayInfections(rc.WormHosts)
	}
	candidates := make([]int32, 0, e.popSize)
	for u := 0; u < e.n; u++ {
		if e.stateOf(u) == stateSusceptible {
			candidates = append(candidates, int32(u))
		}
	}
	if len(candidates) < e.cfg.InitialInfected {
		return fmt.Errorf("sim: %d susceptible nodes < %d initial infections",
			len(candidates), e.cfg.InitialInfected)
	}
	// Seed placement is run-level, not attributable to any node: it
	// draws from the dedicated run stream (table index n).
	e.runRand().Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	for _, u := range candidates[:e.cfg.InitialInfected] {
		e.infect(int(u), -1)
	}
	return nil
}

// infect transitions node u to the infected state; source is the
// scanning host responsible (-1 for seed infections). It materializes
// u's stream page for the generate sweep to draw from.
func (e *Engine) infect(u, source int) {
	if e.stateOf(u) != stateSusceptible {
		return
	}
	e.setState(u, stateInfected)
	e.infectedBits[u>>6] |= 1 << (uint(u) & 63)
	e.infected++
	e.ever++
	e.streams.ensure(u)
	p := e.cfg.Strategy(e.env, u)
	e.pickerSlot[u] = int32(len(e.pickerTab))
	e.pickerTab = append(e.pickerTab, p)
	if e.cfg.TrackSubnets {
		if s := e.env.Subnet[u]; s >= 0 {
			e.subnetInfected[s]++
		}
	}
	if e.cfg.RecordInfections {
		e.infections = append(e.infections, Infection{
			Tick: int32(e.tick), Victim: int32(u), Source: int32(source),
		})
	}
}

// Run executes the configured number of ticks and returns the series.
// With Config.Check set, an invariant-audit failure panics: it means
// the engine corrupted its own state, and Run has no error channel.
// Use RunContext to handle audit failures as errors.
func (e *Engine) Run() *Result {
	res, err := e.RunContext(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// RunContext executes the configured number of ticks, checking ctx
// between ticks. On cancellation it returns the partial series
// simulated so far together with ctx's error; the per-tick slices then
// hold fewer than Config.Ticks entries. With Config.Check set, every
// tick ends with an invariant audit; a violation stops the run and
// returns the partial series with an error matching ErrInvariant.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if e.res == nil {
		e.res = &Result{
			Infected:     make([]float64, 0, e.cfg.Ticks),
			EverInfected: make([]float64, 0, e.cfg.Ticks),
			Immunized:    make([]float64, 0, e.cfg.Ticks),
			Backlog:      make([]int, 0, e.cfg.Ticks),
		}
	}
	res := e.res
	if c, ok := e.workload.(io.Closer); ok {
		// A file-backed workload stream ends with the run.
		defer c.Close() //nolint:errcheck // read-only stream
	}
	var err error
	for tick := e.nextTick; tick < e.cfg.Ticks; tick++ {
		if err = ctx.Err(); err != nil {
			// A cancelled run (shutdown drain, replica timeout) leaves a
			// final checkpoint at this boundary, best-effort: the resumed
			// run re-simulates zero ticks instead of up to
			// CheckpointEvery-1. Results are unaffected either way —
			// resume from any boundary is byte-identical.
			if e.cfg.CheckpointEvery > 0 && e.cfg.Checkpoint != nil && e.nextTick > 0 {
				if snap, serr := e.Snapshot(); serr == nil {
					e.cfg.Checkpoint(snap) //nolint:errcheck // already aborting
				}
			}
			break
		}
		e.tick = tick
		// Quarantine state updates at the tick boundary, judging the
		// previous tick's completed counters: detection cannot see the
		// traffic of the tick it is gating.
		e.updateQuarantine()
		// The effective defense state for this tick: an injected limiter
		// outage bypasses the whole rate-limiting deployment without
		// touching the trigger state machine.
		e.limitsDown = e.faults != nil && e.faults.LimiterDown(tick)
		e.limitsActive = e.defenseActive && !e.limitsDown
		e.scansThisTick = 0
		e.throttledThisTick = 0
		e.benignThisTick = 0
		e.benignThrottledThisTick = 0
		e.generate()
		if e.workloadErr != nil {
			// The replay stream failed (read error, out-of-order trace):
			// abort with the partial series, like an audit violation.
			err = e.workloadErr
			break
		}
		e.rechargeLinks()
		e.transmit()
		e.deliver()
		e.immunize(tick)
		e.record(res)
		e.observe()
		if e.cfg.Check {
			if err = e.audit(); err != nil {
				break
			}
		}
		e.nextTick = tick + 1
		if e.cfg.CheckpointEvery > 0 && e.cfg.Checkpoint != nil && e.nextTick%e.cfg.CheckpointEvery == 0 {
			snap, serr := e.Snapshot()
			if serr == nil {
				serr = e.cfg.Checkpoint(snap)
			}
			if serr != nil {
				err = fmt.Errorf("sim: checkpoint after tick %d: %w", tick, serr)
				break
			}
		}
	}
	res.Infections = e.infections
	res.QuarantineTick = e.activatedTick
	return res, err
}

// updateQuarantine evaluates the dynamic-defense trigger and activates
// the configured limits once the detection condition (plus deployment
// delay) is met. It runs at the start of a tick, before the tick's
// counters are reset: the scan-rate trigger judges the previous tick's
// pre-throttle attempt stream, and the level trigger the infection
// state as of the previous tick's deliveries. With Delay == 0 the
// defense is therefore active for the whole first tick after the
// threshold crossing — never retroactively for the tick that crossed.
func (e *Engine) updateQuarantine() {
	q := e.cfg.Quarantine
	if q == nil || e.defenseActive {
		return
	}
	if e.triggerTick < 0 {
		fired := false
		if q.TriggerScansPerTick > 0 && e.scansThisTick >= q.TriggerScansPerTick {
			fired = true
		}
		if q.TriggerLevel > 0 && float64(e.infected)/float64(e.popSize) >= q.TriggerLevel {
			fired = true
		}
		if e.faults != nil {
			// Detector imperfections: a false alarm is drawn every armed
			// tick; a miss suppresses a genuine threshold crossing (the
			// detector gets another chance next tick). The false-alarm
			// draw happens unconditionally so the fault RNG stream does
			// not depend on whether the genuine condition held.
			falseAlarm := e.faults.FalseAlarm()
			if fired && e.faults.MissDetection() {
				fired = false
			}
			if falseAlarm {
				fired = true
			}
		}
		if fired {
			e.triggerTick = e.tick + q.Delay
			if e.collector != nil {
				e.collector.Event(obs.Event{
					Tick: e.tick, Kind: obs.EventQuarantineTriggered,
					Detail: fmt.Sprintf("activation scheduled for tick %d", e.triggerTick),
				})
			}
		}
	}
	if e.triggerTick >= 0 && e.tick >= e.triggerTick {
		e.defenseActive = true
		e.activatedTick = e.tick
		if e.collector != nil {
			e.collector.Event(obs.Event{Tick: e.tick, Kind: obs.EventQuarantineActivated})
		}
	}
}

// generate lets every infected node attempt one infection, sweeping
// the infected bitset in ascending node order and drawing every node's
// randomness from that node's own stream. Emitted packets are staged
// at the arena's tail and routed after the sweep, in emission order.
// Routing touches only link queues, which no picker or limiter reads,
// so routing each packet as it is emitted would give the same output —
// but keeping the sweep's working set (pickers, RNG pages, limiters)
// apart from routing's (router records, link queues) measured ~7%
// faster on the 1M-host internet workload.
func (e *Engine) generate() {
	if e.workload != nil {
		// Trace-replay run: the workload is the scan source, dispatched
		// before the sparse shortcut — benign background traffic flows
		// even with zero infections.
		e.generateReplay()
		return
	}
	if e.infected == 0 {
		// Sparse-phase shortcut: no scanners means no draws and no
		// emissions — byte-identical to sweeping an empty bitset, at
		// O(1) instead of O(n/64).
		return
	}
	scans := e.cfg.ScansPerTick
	if scans == 0 {
		scans = 1
	}
	kind := kindExploit
	if e.cfg.ProbeFirst {
		kind = kindProbe
	}
	tick := int32(e.tick)
	start := len(e.arena)
	for wi, word := range e.infectedBits {
		for word != 0 {
			u := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			beta := e.cfg.Beta
			if e.betaByNode != nil {
				beta = e.betaByNode[u]
			}
			var limiter ratelimit.ContactLimiter
			if e.limiterSlot != nil {
				if ls := e.limiterSlot[u]; ls >= 0 {
					limiter = e.limiterTab[ls]
				}
			}
			picker := e.pickerTab[e.pickerSlot[u]]
			rng := e.nodeRand(u)
			for s := 0; s < scans; s++ {
				if beta < 1 && rng.Float64() >= beta {
					continue
				}
				target := picker.Pick(rng, u)
				if target < 0 || target == u {
					continue
				}
				// Monitor point: the attempt is counted before the host
				// limiter so the quarantine trigger sees the pre-throttle
				// scan stream. Host contact limiters are host-side filters
				// and apply whenever installed (like ScanRateOverride),
				// independent of the network-side quarantine state.
				e.scansThisTick++
				if limiter != nil && !e.limitsDown && !limiter.Allow(int64(tick), ratelimit.IP(target)) {
					e.throttledThisTick++
					continue // throttled: contact blocked this tick
				}
				e.arena = append(e.arena, queued{pkt: packet{
					src: int32(u), dst: int32(target), kind: kind, birth: tick,
				}})
			}
		}
	}
	// Route the staged tail in place: each packet appends at most one
	// entry, so the write position never passes the read position.
	staged := e.arena[start:]
	e.arena = e.arena[:start]
	e.genCount += uint64(len(staged))
	for _, q := range staged {
		e.routePacket(q.pkt.src, q.pkt)
	}
}

// routePacket places a packet at node u heading for its destination:
// delivery if already there, otherwise the arena, queued on u's
// next-hop link.
func (e *Engine) routePacket(u int32, pkt packet) {
	if u == pkt.dst {
		e.deliverAt(pkt)
		return
	}
	li := e.structural.HopLink(int(u), int(pkt.dst))
	n := e.queueLen[li]
	if e.cfg.MaxQueue > 0 && int(n) >= e.cfg.MaxQueue {
		e.dropCount++
		return // DropTail: buffer full, packet lost
	}
	e.queueLen[li] = n + 1
	e.queueBits[li>>6] |= 1 << (uint(li) & 63)
	e.arena = append(e.arena, queued{link: int32(li), pkt: pkt})
}

// sortArena moves the arena into sorted by a stable counting sort on
// the link index, so each non-empty link's entries form one segment
// in arrival order: its FIFO queue, with a limited link's leftovers
// ahead of newly routed packets. Afterwards queueLen[li] holds the end
// offset of li's segment; the segment starts where the previous
// non-empty link's ends. The arena is left empty for transmit to
// refill with leftovers.
func (e *Engine) sortArena() {
	off := int32(0)
	for w, word := range e.queueBits {
		for word != 0 {
			li := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			n := e.queueLen[li]
			e.queueLen[li] = off
			off += n
		}
	}
	e.sorted = slices.Grow(e.sorted[:0], int(off))[:off]
	for _, q := range e.arena {
		e.sorted[e.queueLen[q.link]] = q
		e.queueLen[q.link]++
	}
	e.arena = e.arena[:0]
}

// transmit moves packets across every directed link, respecting link
// caps and node forwarding caps, and lists the sent packets for
// deliver. Only non-empty queues are visited, via the queue bitset;
// ascending link index order equals the (source asc, destination asc)
// order the series determinism contract fixes. Links of a node-capped
// router are served together by its round-robin scheduler the first
// time one of its queues is encountered.
func (e *Engine) transmit() {
	e.sendOrder = e.sendOrder[:0]
	if len(e.arena) == 0 {
		// Sparse-phase shortcut: nothing queued anywhere, so there is
		// nothing to move and no budget to spend — O(1) instead of a
		// sweep over the queue bitset.
		return
	}
	e.sortArena()
	tick := int32(e.tick)
	capped := e.limitsActive && e.nodeCap != nil
	start := int32(0) // the current link's segment start in sorted
	for w, word := range e.queueBits {
		for word != 0 {
			li := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if capped {
				if u := e.links.From(li); e.nodeCap[u] >= 0 {
					if e.cappedServed[u] != tick {
						e.cappedServed[u] = tick
						start = e.transmitCapped(u, int(e.nodeCap[u]), start)
					}
					// Later queues of u were settled with the first; the
					// served mark skips the ones that kept their bits.
					continue
				}
			}
			end := e.queueLen[li]
			sent := end
			if e.linkLimited(li) {
				lr := e.limitedRank(li)
				if e.limitsActive {
					sent = min(sent, start+max(e.linkBudget[lr], 0))
				}
				e.spendLink(lr, int(sent-start))
			}
			for i := start; i < sent; i++ {
				e.sendOrder = append(e.sendOrder, i)
			}
			e.settle(li, sent, end)
			start = end
		}
	}
}

// capSlot is one output link of a capped router during its transmit:
// the link's segment [start, end) of the sorted arena, the next unsent
// packet, and stop, where the link's own budget ends sending.
type capSlot struct{ start, next, stop, end int32 }

// transmitCapped serves a node-capped router: its per-tick forwarding
// budget is spread round-robin across its non-empty output queues (one
// packet per queue per pass, resuming each tick where the last left
// off), mirroring a fair shared output scheduler. Without this, a
// strict low-ID-first drain lets one stale queue starve every other
// destination. start is the sorted-arena offset of u's first non-empty
// queue; transmitCapped settles all of u's queues and returns the end
// of its last segment.
func (e *Engine) transmitCapped(u, budget int, start int32) int32 {
	base := e.links.OutStart(u)
	deg := len(e.links.Outgoing(u))
	if cap(e.capScratch) < deg {
		e.capScratch = make([]capSlot, deg)
	}
	slots := e.capScratch[:deg]
	for k := range slots {
		li := base + k
		end := start
		if e.queueBits[li>>6]&(1<<(uint(li)&63)) != 0 {
			end = e.queueLen[li]
		}
		stop := end
		if e.linkLimited(li) {
			stop = min(stop, start+max(e.linkBudget[e.limitedRank(li)], 0))
		}
		slots[k] = capSlot{start: start, next: start, stop: stop, end: end}
		start = end
	}
	pos := int(e.rrPos[u])
	for served := true; budget > 0 && served; {
		served = false
		for k := 0; k < deg && budget > 0; k++ {
			idx := (pos + k) % deg
			s := &slots[idx]
			if s.next >= s.stop {
				continue
			}
			e.sendOrder = append(e.sendOrder, s.next)
			s.next++
			budget--
			served = true
			e.rrPos[u] = int32((idx + 1) % deg)
		}
	}
	for k, s := range slots {
		li := base + k
		if e.linkLimited(li) {
			e.spendLink(e.limitedRank(li), int(s.next-s.start))
		}
		if s.end > s.start {
			e.settle(li, s.next, s.end)
		}
	}
	return start
}

// deliver moves every packet transmit sent across its link, in send
// order: handling at the destination, or routing onto the next link
// (crossing at most one link per tick).
func (e *Engine) deliver() {
	for _, i := range e.sendOrder {
		q := e.sorted[i]
		e.routePacket(int32(e.links.To(int(q.link))), q.pkt)
	}
}

// deliverAt handles a packet that reached its destination.
func (e *Engine) deliverAt(pkt packet) {
	e.delivCount++
	if e.cfg.TrackLatency {
		e.latSum += int64(e.tick) - int64(pkt.birth)
		e.latCount++
	}
	switch pkt.kind {
	case kindBenign:
		// Background traffic: delivery is the end of its life.
	case kindExploit:
		e.attemptInfect(int(pkt.dst), int(pkt.src))
	case kindProbe:
		// The probed target answers the ping; the echo reply travels
		// back to the scanner. Patched hosts still answer pings — only
		// the exploit fails against them.
		e.genCount++
		e.routePacket(pkt.dst, packet{
			src: pkt.dst, dst: pkt.src, kind: kindReply, birth: int32(e.tick),
		})
	case kindReply:
		// The scanner receives the echo reply and fires the exploit —
		// if it is still infected (it may have been patched meanwhile).
		scanner := pkt.dst
		target := pkt.src
		if e.stateOf(int(scanner)) == stateInfected {
			e.genCount++
			e.routePacket(scanner, packet{
				src: scanner, dst: target, kind: kindExploit, birth: int32(e.tick),
			})
		}
	}
}

// attemptInfect infects the destination if it is still susceptible.
func (e *Engine) attemptInfect(u, source int) {
	if e.stateOf(u) == stateSusceptible {
		e.infect(u, source)
	}
}

// immunize runs the delayed patching process for this tick.
func (e *Engine) immunize(tick int) {
	im := e.cfg.Immunize
	if im == nil {
		return
	}
	if !e.immunizing {
		if e.immunizePending >= 0 {
			// An injected dissemination lag: the trigger condition already
			// fired; patching waits out the delay.
			if tick < e.immunizePending {
				return
			}
		} else {
			met := false
			switch {
			case im.StartTick >= 0 && tick >= im.StartTick:
				met = true
			case im.StartTick < 0 && float64(e.infected)/float64(e.popSize) >= im.StartLevel:
				met = true
			}
			if !met {
				return
			}
			if e.faults != nil {
				if d := e.faults.ImmunizationDelay(); d > 0 {
					e.immunizePending = tick + d
					return
				}
			}
		}
		e.immunizing = true
		// From here on every live node rolls µ each tick: the whole
		// stream table becomes hot, so materialize it once.
		e.streams.ensureAll()
		if e.collector != nil {
			e.collector.Event(obs.Event{Tick: tick, Kind: obs.EventImmunizationStarted})
		}
	}
	// Sparse-phase shortcut: with no candidates left (everyone patched,
	// or only infected hosts remain under SusceptibleOnly) the sweep
	// draws nothing and changes nothing — skip the O(n) sweep.
	draws := e.popSize - e.removed - e.infected
	if !im.SusceptibleOnly {
		draws += e.infected
	}
	if draws == 0 {
		return
	}
	// Candidates roll µ in ascending node order, each from its own
	// stream. The engine-RNG roll happens for every candidate exactly as
	// in a fault-free run; the loss fault draws from the injector's own
	// stream, leaving the engine streams untouched.
	for u := 0; u < e.n; u++ {
		switch e.stateOf(u) {
		case stateExcluded, stateRemoved:
			continue
		case stateInfected:
			if im.SusceptibleOnly {
				continue
			}
		}
		if e.nodeRand(u).Float64() >= im.Mu {
			continue
		}
		if e.faults != nil && e.faults.DropImmunization() {
			continue
		}
		if e.stateOf(u) == stateInfected {
			e.infected--
			e.infectedBits[u>>6] &^= 1 << (uint(u) & 63)
			if e.cfg.TrackSubnets {
				if s := e.env.Subnet[u]; s >= 0 {
					e.subnetInfected[s]--
				}
			}
		}
		e.setState(u, stateRemoved)
		e.removed++
	}
}

// record appends this tick's metrics.
func (e *Engine) record(res *Result) {
	pop := float64(e.popSize)
	res.Infected = append(res.Infected, float64(e.infected)/pop)
	res.EverInfected = append(res.EverInfected, float64(e.ever)/pop)
	res.Immunized = append(res.Immunized, float64(e.removed)/pop)
	res.Backlog = append(res.Backlog, len(e.arena))
	if e.cfg.TrackSubnets {
		within := 0.0
		if e.infected > 0 { // no infections ⇒ no infected subnets
			var sum float64
			n := 0
			for s, inf := range e.subnetInfected {
				if inf > 0 {
					sum += float64(inf) / float64(e.subnetSize[s])
					n++
				}
			}
			if n > 0 {
				within = sum / float64(n)
			}
		}
		res.WithinSubnet = append(res.WithinSubnet, within)
	}
	if e.cfg.TrackLatency {
		lat := 0.0
		if e.latCount > 0 {
			lat = float64(e.latSum) / float64(e.latCount)
		}
		res.MeanLatency = append(res.MeanLatency, lat)
		e.latSum, e.latCount = 0, 0
	}
}

// observe hands this tick's structured metrics to the collector. With
// no collector configured the method is a single nil check: the hot
// path's observability overhead is the handful of plain integer
// increments feeding the cumulative counters.
func (e *Engine) observe() {
	if e.collector == nil {
		return
	}
	e.collector.Tick(obs.TickMetrics{
		Tick:              e.tick,
		ScanAttempts:      e.scansThisTick,
		ThrottledContacts: e.throttledThisTick,
		BenignContacts:    e.benignThisTick,
		BenignThrottled:   e.benignThrottledThisTick,
		PacketsGenerated:  int(e.genCount - e.prevGen),
		PacketsDelivered:  int(e.delivCount - e.prevDeliv),
		PacketsDropped:    int(e.dropCount - e.prevDrop),
		Backlog:           len(e.arena),
		Infected:          e.infected,
		EverInfected:      e.ever,
		Immunized:         e.removed,
		NewInfections:     e.ever - e.prevEver,
		NewImmunized:      e.removed - e.prevRemoved,
		QuarantineActive:  e.defenseActive,
	})
	e.prevGen, e.prevDeliv, e.prevDrop = e.genCount, e.delivCount, e.dropCount
	e.prevEver, e.prevRemoved = e.ever, e.removed
}
