package sim

import (
	"repro/internal/routing"
	"repro/internal/topology"
)

// Net is the immutable graph-derived routing state every replica of a
// configuration shares: the stable directed-link enumeration plus the
// structural router (see routing.Structural). New builds a private one
// when Config.Net is nil, and MultiRun one per batch; callers running
// *several* batches over the same graph — a parameter sweep where only
// the worm or defense varies between grid points — can build the Net
// once with BuildNet and hand it to each batch via Config.Net,
// skipping the routing construction for every batch after the first.
// A Net is read-only after construction and holds no per-engine
// state, so any number of engines may share it concurrently.
type Net struct {
	graph      *topology.Graph
	links      *routing.Links
	structural *routing.Structural
}

// BuildNet constructs the shared routing state for g. The graph must
// not be mutated afterwards; engines assume the Net and the graph
// agree. The router is nil when g is disconnected, which every engine
// constructor rejects first.
func BuildNet(g *topology.Graph) *Net {
	links := routing.EnumerateLinks(g)
	return &Net{graph: g, links: links, structural: routing.NewStructural(g, links)}
}
