package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Point returns grid point i's spec and name, compiling nothing. The
// points are the cartesian product of the grid axes, last axis
// fastest, each named after its axis values
// ("sweep[worm.beta=0.4,seed=2]"); a spec with no grid is its own
// single point. A grid point's spec is the base spec (grid removed)
// with the axis paths patched into its JSON document and strictly
// re-parsed, so a path that names no field, or a value of the wrong
// type, is rejected like a malformed spec file — an error returned
// with the point's name.
func (s *Spec) Point(i int) (*Spec, string, error) {
	n, err := s.Points()
	if err != nil {
		return nil, "", err
	}
	if i < 0 || i >= n {
		return nil, "", fmt.Errorf("spec: point %d out of range (the spec has %d)", i, n)
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	if len(s.Grid) == 0 {
		return s, name, nil
	}

	// Decode i as a mixed-radix number, the last axis its lowest digit.
	idx := make([]int, len(s.Grid))
	labels := make([]string, len(s.Grid))
	for a := len(s.Grid) - 1; a >= 0; a-- {
		ax := s.Grid[a]
		idx[a], i = i%len(ax.Values), i/len(ax.Values)
		labels[a] = fmt.Sprintf("%s=%s", ax.Path, compactJSON(ax.Values[idx[a]]))
	}
	name = fmt.Sprintf("%s[%s]", name, strings.Join(labels, ","))

	base := *s
	base.Grid = nil
	baseDoc, err := json.Marshal(&base)
	if err != nil {
		return nil, name, fmt.Errorf("spec: marshal base: %w", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(baseDoc, &doc); err != nil {
		return nil, name, err
	}
	for a, ax := range s.Grid {
		if err := setPath(doc, ax.Path, ax.Values[idx[a]]); err != nil {
			return nil, name, fmt.Errorf("spec: grid axis %s: %w", ax.Path, err)
		}
	}
	patched, err := json.Marshal(doc)
	if err != nil {
		return nil, name, err
	}
	point, err := Parse(patched)
	return point, name, err
}

// Expand compiles every grid point with Compile(nil) and returns them
// all, each with its own materialized topology; Sweep instead compiles
// one point at a time.
func (s *Spec) Expand() ([]*Compiled, error) {
	n, err := s.Points()
	if err != nil {
		return nil, err
	}
	points := make([]*Compiled, n)
	for i := range points {
		pt, name, err := s.Point(i)
		if err == nil {
			points[i], err = pt.Compile(nil)
		}
		if err != nil {
			return nil, fmt.Errorf("spec: point %s: %w", name, err)
		}
		points[i].Name = name
	}
	return points, nil
}

// Points returns the number of grid points — 1 with no grid — from the
// axes alone. A malformed axis, or a grid over maxGridPoints, is an
// error.
func (s *Spec) Points() (int, error) {
	for i, ax := range s.Grid {
		if ax.Path == "" {
			return 0, fmt.Errorf("spec: grid[%d]: empty path", i)
		}
		if strings.HasPrefix(ax.Path, "grid") {
			return 0, fmt.Errorf("spec: grid[%d]: a grid axis cannot target the grid itself", i)
		}
		if len(ax.Values) == 0 {
			return 0, fmt.Errorf("spec: grid[%d] (%s): no values", i, ax.Path)
		}
	}
	return gridPoints(s.Grid)
}

// maxGridPoints caps the points one spec may have. wormsimd's Submit
// compiles every point, so the cap bounds the time and memory one
// submission can take.
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
