package sim

import (
	"slices"
	"testing"

	"repro/internal/topology"
	"repro/internal/worm"
)

func TestActiveSetInvariantsAfterRun(t *testing.T) {
	for name, cfg := range goldenScenarios(t) {
		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng.Run()
		if err := eng.audit(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// starConfig wires a small star topology (center 0) for cap tests.
func starConfig(t *testing.T, n int) Config {
	t.Helper()
	g, err := topology.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph: g, Beta: 1, ScansPerTick: 2,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 1, Ticks: 40, Seed: 3,
	}
}

// A zero-budget node cap must freeze forwarding through the hub while
// packets keep queueing (PolicyQueue): the worm reaches at most the hub
// itself (delivery to the hub crosses no hub-owned queue) and the
// backlog grows without bound.
func TestNodeCapZeroBudgetQueues(t *testing.T) {
	cfg := starConfig(t, 12)
	cfg.NodeCaps = map[int]int{0: 0}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	pop := float64(cfg.Graph.N())
	if got := res.FinalEverInfected(); got > 2/pop+1e-12 {
		t.Errorf("ever infected %v, want <= %v (seed + hub only)", got, 2/pop)
	}
	last := res.Backlog[len(res.Backlog)-1]
	if last == 0 {
		t.Fatal("backlog empty despite a zero-budget hub")
	}
	for i := 1; i < len(res.Backlog); i++ {
		if res.Backlog[i] < res.Backlog[i-1] {
			t.Fatalf("backlog shrank at tick %d (%d -> %d) with no drain path",
				i, res.Backlog[i-1], res.Backlog[i])
		}
	}
	if err := eng.audit(); err != nil {
		t.Error(err)
	}
}

// With PolicyDrop the same zero-budget hub discards its queues every
// tick instead: the backlog stays bounded by one tick's arrivals and
// the infection is equally frozen.
func TestNodeCapZeroBudgetDrops(t *testing.T) {
	cfg := starConfig(t, 12)
	cfg.NodeCaps = map[int]int{0: 0}
	cfg.Policy = PolicyDrop
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	pop := float64(cfg.Graph.N())
	if got := res.FinalEverInfected(); got > 2/pop+1e-12 {
		t.Errorf("ever infected %v, want <= %v", got, 2/pop)
	}
	// At record time the backlog holds at most what this tick's deliver
	// staged into the hub's queues: 2 infected x 2 scans.
	for i, b := range res.Backlog {
		if b > 4 {
			t.Fatalf("tick %d: backlog %d, want <= 4 under PolicyDrop", i, b)
		}
	}
	if err := eng.audit(); err != nil {
		t.Error(err)
	}
}

// MaxQueue DropTail on the dense queues: buffers never exceed the bound
// and drops only slow the worm down, they do not stop it.
func TestMaxQueueDropTail(t *testing.T) {
	cfg := starConfig(t, 20)
	cfg.ScansPerTick = 10
	cfg.InitialInfected = 5
	cfg.MaxQueue = 1
	cfg.Ticks = 60
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Peek at queue occupancy every tick, not just at the end.
	maxLinks := 2 * cfg.Graph.M()
	res := &Result{}
	for tick := 0; tick < cfg.Ticks; tick++ {
		eng.tick = tick
		eng.scansThisTick = 0
		eng.generate()
		eng.updateQuarantine()
		eng.rechargeLinks()
		eng.transmit()
		eng.deliver()
		eng.immunize(tick)
		eng.record(res)
		for li, n := range eng.queueLen {
			if int(n) > cfg.MaxQueue {
				t.Fatalf("tick %d: link %d queue %d > MaxQueue %d", tick, li, n, cfg.MaxQueue)
			}
		}
		if b := res.Backlog[tick]; b > maxLinks*cfg.MaxQueue {
			t.Fatalf("tick %d: backlog %d exceeds %d bounded queues", tick, b, maxLinks)
		}
	}
	if got := res.FinalEverInfected(); got != 1 {
		t.Errorf("ever infected %v, want full saturation despite DropTail", got)
	}
	if err := eng.audit(); err != nil {
		t.Error(err)
	}
}

// Immunization with Mu=1 empties the infected active set mid-run: the
// infected series drops to zero, stays there, and no infection ever
// happens afterwards (in-flight exploits hit removed hosts).
func TestImmunizationEmptiesActiveSet(t *testing.T) {
	cfg := starConfig(t, 30)
	cfg.Ticks = 30
	cfg.InitialInfected = 3
	cfg.Immunize = &Immunization{StartTick: 5, Mu: 1}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.Infected[4] == 0 {
		t.Fatal("worm died before immunization started; scenario is vacuous")
	}
	for tick := 5; tick < cfg.Ticks; tick++ {
		if res.Infected[tick] != 0 {
			t.Errorf("tick %d: infected %v after total immunization", tick, res.Infected[tick])
		}
		if res.Immunized[tick] != 1 {
			t.Errorf("tick %d: immunized %v, want 1", tick, res.Immunized[tick])
		}
		if res.EverInfected[tick] != res.EverInfected[5] {
			t.Errorf("tick %d: ever-infected grew after everyone was removed", tick)
		}
	}
	for w, word := range eng.infectedBits {
		if word != 0 {
			t.Errorf("infected bitset word %d = %x after total immunization", w, word)
		}
	}
	if err := eng.audit(); err != nil {
		t.Error(err)
	}
}

// A capped hub with a tiny budget still makes progress (round-robin
// serves every queue eventually) — guards the budget>0 scheduler path
// over the dense layout.
func TestNodeCapSmallBudgetProgresses(t *testing.T) {
	cfg := starConfig(t, 16)
	cfg.NodeCaps = map[int]int{0: 1}
	cfg.Ticks = 400
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if got := res.FinalEverInfected(); got != 1 {
		t.Errorf("ever infected %v, want 1 (cap 1 only delays saturation)", got)
	}
	if err := eng.audit(); err != nil {
		t.Error(err)
	}
}

// A capped router's packets leave in round-robin send order, and
// deliver must hand them on in that order, not in link order. Here the
// hub's scheduler resumes at the later of two loaded links, so with a
// budget of two the later leaf is infected first. (Link order shows
// only in state: every packet deliver routes starts at its arrival
// node, so two of one router's links never feed the same queue.)
func TestNodeCapDeliversInSendOrder(t *testing.T) {
	cfg := starConfig(t, 8)
	cfg.NodeCaps = map[int]int{0: 2}
	cfg.RecordInfections = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []int
	for u := 1; u < eng.n && len(leaves) < 2; u++ {
		if eng.stateOf(u) == stateSusceptible {
			leaves = append(leaves, u)
		}
	}
	first, second := leaves[0], leaves[1]
	for _, v := range []int{first, first, second, second} {
		eng.routePacket(0, packet{src: 0, dst: int32(v)})
		eng.genCount++
	}
	// Hub 0's adjacency slot k is the link to leaf k+1.
	eng.rrPos[0] = int32(second - 1)
	eng.tick = 0
	eng.limitsActive = true
	eng.transmit()
	eng.deliver()
	var got []int32
	for _, in := range eng.infections[len(eng.infections)-2:] {
		got = append(got, in.Victim)
	}
	if want := []int32{int32(second), int32(first)}; !slices.Equal(got, want) {
		t.Errorf("infection order %v, want %v (round-robin send order)", got, want)
	}
	if len(eng.arena) != 2 {
		t.Errorf("%d packets left queued, want 2 (one per link beyond the budget)", len(eng.arena))
	}
	if err := eng.audit(); err != nil {
		t.Error(err)
	}
}
