package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Expand compiles the spec into its grid points: the cartesian product
// of the grid axes, each point a fully validated Compiled scenario.
// A spec with no grid expands to its single point. Axes vary in
// row-major order — the last axis fastest — and every point's name
// records its axis assignments ("sweep[worm.beta=0.4,seed=2]").
//
// Each point is produced by re-serializing the base spec (grid
// removed), patching the axis paths into the generic JSON document,
// and strict-re-parsing: a path that names no spec field, or a value
// of the wrong type, is rejected exactly like a malformed spec file.
func (s *Spec) Expand() ([]*Compiled, error) {
	if len(s.Grid) == 0 {
		c, err := s.Compile()
		if err != nil {
			return nil, err
		}
		return []*Compiled{c}, nil
	}
	for i, ax := range s.Grid {
		if ax.Path == "" {
			return nil, fmt.Errorf("spec: grid[%d]: empty path", i)
		}
		if strings.HasPrefix(ax.Path, "grid") {
			return nil, fmt.Errorf("spec: grid[%d]: a grid axis cannot target the grid itself", i)
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("spec: grid[%d] (%s): no values", i, ax.Path)
		}
	}
	total, err := gridPoints(s.Grid)
	if err != nil {
		return nil, err
	}

	base := *s
	base.Grid = nil
	baseDoc, err := json.Marshal(&base)
	if err != nil {
		return nil, fmt.Errorf("spec: marshal base: %w", err)
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}

	points := make([]*Compiled, 0, total)
	idx := make([]int, len(s.Grid))
	for {
		var doc map[string]any
		if err := json.Unmarshal(baseDoc, &doc); err != nil {
			return nil, fmt.Errorf("spec: expand: %w", err)
		}
		labels := make([]string, len(s.Grid))
		for a, ax := range s.Grid {
			v := ax.Values[idx[a]]
			if err := setPath(doc, ax.Path, v); err != nil {
				return nil, fmt.Errorf("spec: grid axis %s: %w", ax.Path, err)
			}
			labels[a] = fmt.Sprintf("%s=%s", ax.Path, compactJSON(v))
		}
		patched, err := json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("spec: expand: %w", err)
		}
		point, err := Parse(patched)
		if err != nil {
			return nil, fmt.Errorf("spec: grid point [%s]: %w", strings.Join(labels, ","), err)
		}
		c, err := point.Compile()
		if err != nil {
			return nil, fmt.Errorf("spec: grid point [%s]: %w", strings.Join(labels, ","), err)
		}
		c.Name = fmt.Sprintf("%s[%s]", name, strings.Join(labels, ","))
		points = append(points, c)

		// Odometer: advance the last axis, carrying leftwards.
		a := len(idx) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(s.Grid[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			return points, nil
		}
	}
}

// Points returns the number of grid points the spec expands to — 1
// with no grid — from the axis lengths alone, without compiling or
// materializing anything. A grid over maxGridPoints is an error.
func (s *Spec) Points() (int, error) { return gridPoints(s.Grid) }

// maxGridPoints caps the points one spec may expand to. Expand compiles
// every point up front, so the cap bounds the time and memory one
// expansion — and so one wormsimd submission — can take.
const maxGridPoints = 10000

// gridPoints returns the number of points the grid axes expand to: the
// product of their lengths, 1 for no axes. A product above
// maxGridPoints is an error, detected before it can overflow.
func gridPoints(axes []Axis) (int, error) {
	total := 1
	for _, ax := range axes {
		n := len(ax.Values)
		if n != 0 && total > maxGridPoints/n {
			return 0, fmt.Errorf("spec: grid has more than %d points", maxGridPoints)
		}
		total *= n
	}
	return total, nil
}

// setPath assigns raw to the dot-path in doc. Intermediate segments
// must exist as objects or array indices, except the final segment's
// parent may gain a new key (a field the base spec omitted). Paths
// into arrays use numeric segments ("defenses.0.rate").
func setPath(doc map[string]any, path string, raw json.RawMessage) error {
	var value any
	if err := json.Unmarshal(raw, &value); err != nil {
		return fmt.Errorf("bad value %s: %w", raw, err)
	}
	segs := strings.Split(path, ".")
	var cur any = doc
	for i, seg := range segs {
		last := i == len(segs)-1
		switch node := cur.(type) {
		case map[string]any:
			if last {
				node[seg] = value
				return nil
			}
			next, ok := node[seg]
			if !ok || next == nil {
				// The base spec omitted this optional section; create it
				// so axes can target e.g. quarantine.delay with no
				// quarantine block. The strict re-parse catches paths
				// that name no real field.
				created := make(map[string]any)
				node[seg] = created
				cur = created
				continue
			}
			cur = next
		case []any:
			n, err := strconv.Atoi(seg)
			if err != nil {
				return fmt.Errorf("segment %q indexes an array and must be a number", seg)
			}
			if n < 0 || n >= len(node) {
				return fmt.Errorf("index %d out of range (array has %d items)", n, len(node))
			}
			if last {
				node[n] = value
				return nil
			}
			cur = node[n]
		default:
			return fmt.Errorf("segment %q: cannot descend into a scalar", seg)
		}
	}
	return nil
}

// compactJSON renders a raw value for a grid-point label.
func compactJSON(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return string(raw)
	}
	return strings.Trim(buf.String(), `"`)
}
