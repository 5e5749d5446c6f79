package routing

import "fmt"

// PathCoverage returns the fraction α of ordered source–destination
// pairs whose shortest path (as realized by the next-hop tables)
// traverses at least one node of the given set, counting interior and
// endpoint transits of covered nodes but not pure endpoints: a path
// from u to d "is covered" if some covered node forwards its traffic —
// i.e. appears on the path as anything other than the final
// destination, with the source itself counting (its access link is
// covered when the source is).
//
// This is the α of Equation 6: deploying rate limiting on a node set
// that covers α of IP-to-IP paths yields the effective epidemic
// exponent β(1−α). Measuring it on the simulated topology lets the
// packet-level experiments be compared against the analytical
// BackboneRL model with no free parameter.
func (t *Table) PathCoverage(nodes []int) (float64, error) {
	covered := make([]bool, t.n)
	for _, u := range nodes {
		if u < 0 || u >= t.n {
			return 0, fmt.Errorf("routing: coverage node %d out of range [0,%d)", u, t.n)
		}
		covered[u] = true
	}
	if t.n < 2 {
		return 0, nil
	}
	hits, total := 0, 0
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if s == d || t.Dist(s, d) < 0 {
				continue
			}
			total++
			u := s
			for u != d {
				if covered[u] {
					hits++
					break
				}
				u = t.NextHop(u, d)
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(hits) / float64(total), nil
}

// MeanPathLength returns the average hop count over all connected
// ordered pairs (0 for graphs with fewer than 2 reachable pairs).
func (t *Table) MeanPathLength() float64 {
	sum, count := 0, 0
	for s := 0; s < t.n; s++ {
		for d := 0; d < t.n; d++ {
			if s == d {
				continue
			}
			if dist := t.Dist(s, d); dist > 0 {
				sum += dist
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}
