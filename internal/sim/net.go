package sim

import "repro/internal/topology"

// Net is an opaque handle to the immutable graph-derived routing state
// (link enumeration plus structural router) that every replica of a
// configuration shares. MultiRun already builds one per batch; callers
// running *several* batches over the same graph — a parameter sweep
// where only the worm or defense varies between grid points — can
// build the Net once with BuildNet and hand it to each batch via
// Config.Net, skipping the routing construction for every batch after
// the first. A Net is read-only after construction and safe for
// concurrent use by any number of engines.
type Net struct {
	graph *topology.Graph
	ns    *netState
}

// BuildNet constructs the shared routing state for g. The graph must
// not be mutated afterwards; engines assume the Net and the graph
// agree.
func BuildNet(g *topology.Graph) *Net {
	return &Net{graph: g, ns: newNetState(g)}
}

// Graph returns the graph the Net was built from.
func (n *Net) Graph() *topology.Graph { return n.graph }

// state returns the wrapped routing state (nil receiver safe).
func (n *Net) state() *netState {
	if n == nil {
		return nil
	}
	return n.ns
}
