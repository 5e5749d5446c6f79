package sim

import (
	"math/rand"

	"repro/internal/splitmix"
)

// The engine's randomness is a table of independent counter-mode
// SplitMix64 streams (internal/splitmix) — one per node plus one
// run-level stream. Node u's β rolls and target picks
// draw only from stream u, and the run stream covers everything that is
// not attributable to a single node (today: the seed-infection
// shuffle). The tick loop is serial, so one shared stream would be
// deterministic too; the per-node table stays because its draws define
// the golden outputs and the snapshot format, and its two costs are kept
// small: pages materialize lazily, and a checkpoint stores only the
// streams that have drawn.
//
// The table is materialized lazily in 64-stream pages: a stream's
// initial counter is a pure function of the seed and the stream index,
// so a page is allocated only when one of its streams is first needed —
// a node being infected, the immunization process starting (every live
// node then rolls µ), or the run stream drawing. A 10M-host run with 1%
// seeded infections pays for the seeds' pages, not 80 MB of counters
// for nodes that never draw (DESIGN.md §14).
//
// Each stream's whole state is one uint64 counter, so a checkpoint
// stores the sparse set of counters that have advanced past their
// initial value (Snapshot.RNGIdx/RNGVal) — counter-mode state only
// increments by the odd constant splitmix.Gamma, so "counter != initial" is
// exactly "this stream has drawn".

// streamPageShift sizes a page at 64 streams — one word of the
// infected bitset.
const (
	streamPageShift = 6
	streamPageLen   = 1 << streamPageShift
)

// streamTable is the lazily-materialized stream table for a run:
// stream u is node u's counter for u in [0, n), stream n the run-level
// stream.
type streamTable struct {
	base  uint64
	n     int
	pages []*[streamPageLen]uint64
}

func newStreamTable(seed int64, n int) *streamTable {
	return &streamTable{
		base:  splitmix.Mix(uint64(seed)),
		n:     n,
		pages: make([]*[streamPageLen]uint64, (n+1+streamPageLen-1)/streamPageLen),
	}
}

// initial returns stream i's initial counter: decorrelated from the
// seed and from its neighbors by mixing the seed hash with a
// per-stream offset. The formula is pinned by the golden fixtures.
func (t *streamTable) initial(i int) uint64 {
	return splitmix.Mix(t.base ^ (uint64(i)+1)*splitmix.Gamma)
}

// ensure materializes the page holding stream i. Every stream must be
// ensured before its first draw.
func (t *streamTable) ensure(i int) {
	pi := i >> streamPageShift
	if t.pages[pi] != nil {
		return
	}
	p := new([streamPageLen]uint64)
	base := pi << streamPageShift
	for k := range p {
		p[k] = t.initial(base + k)
	}
	t.pages[pi] = p
}

// ensureAll materializes every page — the immunization process rolls µ
// for every live node, so once it starts the whole table is hot.
func (t *streamTable) ensureAll() {
	for i := 0; i <= t.n; i += streamPageLen {
		t.ensure(i)
	}
}

// reset drops every materialized page (restore rebuilds the sparse set
// a snapshot implies).
func (t *streamTable) reset() {
	clear(t.pages)
}

// streamSource adapts one stream of the shared table to rand.Source so
// the existing worm.Picker interface (*rand.Rand) keeps working. The
// active stream is selected by setting idx before drawing; advancing
// mutates the stream's page entry in place, so the table always holds
// the current position of every stream. It deliberately implements
// only rand.Source — not Source64 — so rand.Rand derives every value
// (Float64, Intn, Shuffle, ...) from Int63 alone and keeps no hidden
// state between calls; swapping idx mid-use is therefore safe. A draw
// from a stream whose page was never ensured is an engine bug and
// panics on the nil page.
type streamSource struct {
	t   *streamTable
	idx int
}

// Int63 implements rand.Source: one counter-mode SplitMix64 draw from
// the selected stream, truncated to 63 bits.
func (s *streamSource) Int63() int64 {
	p := s.t.pages[s.idx>>streamPageShift]
	k := s.idx & (streamPageLen - 1)
	return int64(splitmix.Next(&p[k]) >> 1)
}

// Seed implements rand.Source. Stream positions are set by the table,
// never re-seeded through math/rand.
func (s *streamSource) Seed(int64) {}

// nodeRand returns the engine's rand.Rand positioned on node u's
// stream.
func (e *Engine) nodeRand(u int) *rand.Rand {
	e.rngSrc.idx = u
	return e.rng
}

// runRand returns the engine's rand.Rand positioned on the run-level
// stream (table index n).
func (e *Engine) runRand() *rand.Rand { return e.nodeRand(e.n) }
