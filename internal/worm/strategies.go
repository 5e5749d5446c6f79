// Package worm defines worm target-selection strategies (shared by the
// discrete-event simulator) and behavioural profiles of the concrete
// worms the paper's trace study observed (Blaster, Welchia) plus the
// classic random scanners it cites (Code Red, Slammer), used by the
// synthetic trace generator.
package worm

import (
	"fmt"
	"math/rand"
	"sync"
)

// Env exposes the population structure a strategy may use to pick
// targets. Subnet[i] is the subnet index of node i (-1 for routers).
// Ids are int32 throughout: at internet scale the environment is a
// per-host cost, and halving it matters (DESIGN.md §14).
type Env struct {
	N      int
	Subnet []int32

	// members maps a subnet index to the node IDs inside it, in
	// ascending node order. It is built lazily on the first MembersOf
	// call: only subnet-aware strategies (LocalPreferential) pay its
	// footprint, and a uniform-random worm over ten million hosts pays
	// nothing.
	members map[int32][]int32
}

// MembersOf returns the node IDs of subnet sub in ascending order, nil
// for unknown subnets. Not safe for concurrent use: an Env belongs to
// one engine, whose tick loop is serial.
func (e *Env) MembersOf(sub int32) []int32 {
	if e.members == nil {
		e.members = make(map[int32][]int32)
		for u, s := range e.Subnet {
			if s >= 0 {
				e.members[s] = append(e.members[s], int32(u))
			}
		}
	}
	return e.members[sub]
}

// Picker selects the next infection target for an infected node. A
// returned value of -1 means "no target this attempt" (e.g. the scan hit
// unused address space). Pickers may be stateful per infected host.
type Picker interface {
	Pick(rng *rand.Rand, self int) int
}

// Factory builds a picker for a newly infected host. Stateless
// strategies return a shared instance.
type Factory func(env *Env, self int) Picker

// Random picks targets uniformly at random over the whole population —
// the propagation model of Code Red I and the paper's default
// ("each infected node will attempt to infect everyone else").
type Random struct {
	env *Env
}

// NewRandomFactory returns a Factory producing uniform-random pickers.
// The factory may be shared by concurrent simulations (MultiRun hands
// one Config to every replica), so the one-entry picker cache is
// locked.
func NewRandomFactory() Factory {
	var mu sync.Mutex
	var shared *Random
	return func(env *Env, self int) Picker {
		mu.Lock()
		defer mu.Unlock()
		if shared == nil || shared.env != env {
			shared = &Random{env: env}
		}
		return shared
	}
}

// Pick implements Picker.
func (r *Random) Pick(rng *rand.Rand, self int) int {
	if r.env.N == 0 {
		return -1
	}
	return rng.Intn(r.env.N)
}

// LocalPreferential picks a target within the host's own subnet with
// probability P, and uniformly over the population otherwise — the
// subnet-preferential scanning the paper shows defeats edge-router rate
// limiting (Blaster and Welchia both scanned nearby address space).
type LocalPreferential struct {
	env  *Env
	p    float64
	self int
}

// NewLocalPreferentialFactory returns a Factory for subnet-preferential
// pickers with local probability p in [0, 1].
func NewLocalPreferentialFactory(p float64) (Factory, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("worm: local preference %v out of [0,1]", p)
	}
	return func(env *Env, self int) Picker {
		return &LocalPreferential{env: env, p: p, self: self}
	}, nil
}

// Pick implements Picker.
func (l *LocalPreferential) Pick(rng *rand.Rand, self int) int {
	env := l.env
	if env.N == 0 {
		return -1
	}
	if rng.Float64() < l.p {
		sub := int32(-1)
		if self >= 0 && self < len(env.Subnet) {
			sub = env.Subnet[self]
		}
		if members := env.MembersOf(sub); sub >= 0 && len(members) > 0 {
			return int(members[rng.Intn(len(members))])
		}
		// Routers (or hosts without a subnet) fall back to random.
	}
	return rng.Intn(env.N)
}

// Sequential scans node IDs in increasing order starting just after the
// host's own ID — the address-space walk Blaster actually performed
// (it picked a nearby /16 base and counted upward). Stateful per host.
type Sequential struct {
	env    *Env
	cursor int
}

// NewSequentialFactory returns a Factory producing per-host sequential
// scanners.
func NewSequentialFactory() Factory {
	return func(env *Env, self int) Picker {
		return &Sequential{env: env, cursor: self}
	}
}

// Pick implements Picker.
func (s *Sequential) Pick(rng *rand.Rand, self int) int {
	if s.env.N == 0 {
		return -1
	}
	s.cursor = (s.cursor + 1) % s.env.N
	return s.cursor
}

// HitList implements the "hit-list scanning" of Staniford et al.'s
// Warhol-worm analysis (the paper's [13]): the attacker seeds the worm
// with a list of known-vulnerable hosts, and infected instances *divide*
// the remaining list among themselves — each list entry is scanned by
// exactly one instance — before falling back to random scanning. The
// division is modelled with a cursor shared by all pickers of one
// population (one Env).
type HitList struct {
	env    *Env
	list   []int
	shared *hitCursor
}

// hitCursor is the per-population claim pointer into the shared list.
type hitCursor struct {
	next int
}

// NewHitListFactory builds pickers that divide the given hit list
// (copied) among the infected instances of each population, then fall
// back to uniform random scanning. The factory may be used across
// multiple concurrent simulations: each Env gets its own cursor.
func NewHitListFactory(list []int) (Factory, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("worm: hit list must be non-empty")
	}
	shared := append([]int(nil), list...)
	var mu sync.Mutex
	perEnv := make(map[*Env]*hitCursor)
	return func(env *Env, self int) Picker {
		mu.Lock()
		hc, ok := perEnv[env]
		if !ok {
			hc = &hitCursor{}
			perEnv[env] = hc
		}
		mu.Unlock()
		return &HitList{env: env, list: shared, shared: hc}
	}, nil
}

// Pick implements Picker. The claim cursor is shared by every picker of
// one population; the engine's generate sweep is serial, so it needs no
// locking here.
func (h *HitList) Pick(rng *rand.Rand, self int) int {
	if h.env.N == 0 {
		return -1
	}
	for h.shared.next < len(h.list) {
		tgt := h.list[h.shared.next]
		h.shared.next++
		if tgt >= 0 && tgt < h.env.N {
			return tgt
		}
	}
	return rng.Intn(h.env.N)
}

var (
	_ Picker = (*Random)(nil)
	_ Picker = (*LocalPreferential)(nil)
	_ Picker = (*Sequential)(nil)
	_ Picker = (*HitList)(nil)
)
