// Package splitmix is the SplitMix64 generator every deterministic
// random stream in the repository is built on: the engine's per-node
// stream table, the fault injector, and the runner's retry jitter. A
// stream's whole state is one uint64 counter that advances by Gamma per
// draw and is hashed by Mix, so it checkpoints as a single integer.
package splitmix

// Gamma is the SplitMix64 increment (the 64-bit golden-ratio constant).
// It is odd, so a counter never returns to a value it has held.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output function.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Next advances the counter *state by Gamma and returns the mixed draw.
func Next(state *uint64) uint64 {
	*state += Gamma
	return Mix(*state)
}

// Rand is a counter-mode SplitMix64 stream. It is deliberately not
// math/rand: its entire state is one uint64 that serializes trivially
// into an engine checkpoint.
type Rand struct {
	state uint64
}

// New returns a stream seeded with Mix(seed).
func New(seed uint64) *Rand { return &Rand{state: Mix(seed)} }

// Uint64 returns the next draw.
func (r *Rand) Uint64() uint64 { return Next(&r.state) }

// Float64 returns the next draw in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// State exposes the stream state for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a checkpointed stream state.
func (r *Rand) SetState(s uint64) { r.state = s }
