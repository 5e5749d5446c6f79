package spec

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// minimal returns a small valid spec document in canonical JSON.
func minimalJSON() string {
	return `{
  "format": "wormsim-scenario",
  "version": 1,
  "name": "mini",
  "topology": {
    "kind": "star",
    "nodes": 40
  },
  "worm": {
    "kind": "random",
    "beta": 0.5
  },
  "ticks": 20,
  "seed": 3
}
`
}

func TestParseRoundTripByteIdentical(t *testing.T) {
	doc := minimalJSON()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Expand(); err != nil {
		t.Fatal(err)
	}
	out, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != doc {
		t.Errorf("canonical form drifted:\n--- in ---\n%s--- out ---\n%s", doc, out)
	}
	// Parse ∘ Canonical is the identity a second time around, too.
	s2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(out2) != string(out) {
		t.Error("second round trip diverged")
	}
}

// yamlDemoDoc exercises the whole YAML subset: comments, quoting,
// nested mappings, block and flow sequences, and a run section carrying
// the retired structural_threshold and workers knobs. FuzzSpecDecode
// seeds from it.
const yamlDemoDoc = `
# A hand-written scenario.
format: wormsim-scenario
version: 1
name: "yaml-demo"
topology:
  kind: powerlaw
  nodes: 120
topology_seed: 4
worm:
  kind: local        # Blaster-style
  beta: 0.8
  local_pref: 0.7
defenses:
  - kind: backbone
    rate: 0.4
    weighted: true
  - kind: overrides
    overrides:
      "10": 0.2
quarantine:
  trigger_scans_per_tick: 40
  delay: 2
ticks: 50
seed: 9
observe:
  subnets: true
run:
  runs: 2
  jobs: 2
  timeout: 30s
  structural_threshold: 4096
  workers: 2
grid:
  - path: worm.beta
    values: [0.4, 0.8]
`

func TestParseYAML(t *testing.T) {
	doc := yamlDemoDoc
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "yaml-demo" || s.Topology.Kind != "powerlaw" || s.Worm.LocalPref != 0.7 {
		t.Errorf("parsed fields wrong: %+v", s)
	}
	if len(s.Defenses) != 2 || !s.Defenses[0].Weighted || s.Defenses[1].Overrides["10"] != 0.2 {
		t.Errorf("defenses wrong: %+v", s.Defenses)
	}
	if s.Run == nil || s.Run.Timeout != "30s" || s.Run.Runs != 2 {
		t.Errorf("run wrong: %+v", s.Run)
	}
	if len(s.Grid) != 1 || s.Grid[0].Path != "worm.beta" || len(s.Grid[0].Values) != 2 {
		t.Errorf("grid wrong: %+v", s.Grid)
	}
	points, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expanded %d points, want 2", len(points))
	}
	if points[0].Name != "yaml-demo[worm.beta=0.4]" {
		t.Errorf("point name = %q", points[0].Name)
	}
	if points[0].Runs != 2 || points[0].Options.Jobs != 2 {
		t.Errorf("point run options wrong: %+v", points[0])
	}
	// YAML and its canonical JSON must describe the identical spec.
	// run.structural_threshold (the retired dense router) and
	// run.workers (the retired intra-run sharding) still decode but are
	// dropped from the canonical form.
	out, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"structural_threshold", "workers"} {
		if strings.Contains(string(out), key) {
			t.Errorf("canonical form kept the ignored %s:\n%s", key, out)
		}
	}
	s2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Error("yaml → canonical JSON did not round-trip")
	}
}

// parseRejectCases is the malformed/skewed-spec table; FuzzSpecDecode
// seeds from its documents.
var parseRejectCases = []struct {
	name string
	doc  string
	want string
}{
	{"empty", "", "empty document"},
	{"wrong format", `{"format": "not-a-spec", "version": 1}`, "unrecognized format"},
	{"missing format", `{"version": 1}`, "unrecognized format"},
	{"future version", `{"format": "wormsim-scenario", "version": 99}`, "unsupported version 99"},
	{"version zero", `{"format": "wormsim-scenario", "version": 0}`, "unsupported version"},
	{"unknown field", `{"format": "wormsim-scenario", "version": 1, "betas": 0.8}`, "unknown field"},
	{"unknown nested field", `{"format": "wormsim-scenario", "version": 1, "worm": {"kind": "random", "speed": 3}}`, "unknown field"},
	{"type mismatch", `{"format": "wormsim-scenario", "version": 1, "ticks": "many"}`, "cannot unmarshal"},
	{"garbage", "{]", "parse"},
	{"yaml tab indent", "format: wormsim-scenario\n\tversion: 1\n", "tabs"},
	{"yaml unterminated quote", `name: "oops`, "unterminated quote"},
	{"yaml flow mapping", "format: {a: 1}\n", "not supported"},
	{"unknown run field", `{"format":"wormsim-scenario","version":1,"run":{"runz":2}}`, "unknown field"},
	{"non-integer structural threshold", `{"format":"wormsim-scenario","version":1,"run":{"structural_threshold":"big"}}`, "structural_threshold"},
	{"non-integer workers", `{"format":"wormsim-scenario","version":1,"run":{"workers":"many"}}`, "workers"},
}

// TestParseRejects: every malformed or skewed spec must fail with an
// error mentioning the expected fragment.
func TestParseRejects(t *testing.T) {
	for _, tc := range parseRejectCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileRejects covers semantic errors past the envelope.
func TestCompileRejects(t *testing.T) {
	base := func() *Spec {
		s, err := Parse([]byte(minimalJSON()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad topology kind", func(s *Spec) { s.Topology.Kind = "mesh" }, "unknown topology kind"},
		{"bad worm kind", func(s *Spec) { s.Worm.Kind = "stealth" }, "unknown worm kind"},
		{"bad defense kind", func(s *Spec) { s.Defenses = []Defense{{Kind: "moat"}} }, "unknown kind"},
		{"bad override key", func(s *Spec) {
			s.Defenses = []Defense{{Kind: "overrides", Overrides: map[string]float64{"hub": 0.1}}}
		}, "not a node id"},
		{"hub on star only", func(s *Spec) {
			s.Topology = Topology{Kind: "powerlaw", Nodes: 50}
			s.Defenses = []Defense{{Kind: "hub", HubCap: 2}}
		}, "hub caps apply to star"},
		{"edge_router needs routing", func(s *Spec) {
			s.Defenses = []Defense{{Kind: "edge_router", Rate: 0.4}}
		}, "needs a routed topology"},
		{"backbone_cap needs routing", func(s *Spec) {
			s.Defenses = []Defense{{Kind: "backbone_cap", HubCap: 40}}
		}, "needs a routed topology"},
		{"stacked link rates differ", func(s *Spec) {
			s.Topology = Topology{Kind: "powerlaw", Nodes: 50}
			s.Defenses = []Defense{{Kind: "edge", Rate: 0.2}, {Kind: "none"}, {Kind: "backbone", Rate: 4}}
		}, "defenses[0] and defenses[2] limit links at different rates"},
		{"two throttles", func(s *Spec) {
			s.Topology = Topology{Kind: "powerlaw", Nodes: 50}
			s.Defenses = []Defense{
				{Kind: "throttle", WorkingSet: 4, Period: 1, Hosts: 10},
				{Kind: "throttle", WorkingSet: 2, Period: 5, Hosts: 5},
			}
		}, "defenses[0] and defenses[1] are both throttles"},
		{"bad beta", func(s *Spec) { s.Worm.Beta = 1.5 }, "beta"},
		{"bad duration", func(s *Spec) { s.Run = &Run{Timeout: "soon"} }, "run.timeout"},
		{"bad runs", func(s *Spec) { s.Run = &Run{Runs: -2} }, "run.runs"},
		{"bad jobs", func(s *Spec) { s.Run = &Run{Jobs: -1} }, "-jobs"},
		{"bad throttle", func(s *Spec) {
			s.Topology = Topology{Kind: "powerlaw", Nodes: 50}
			s.Defenses = []Defense{{Kind: "throttle", WorkingSet: 0, Period: 1, Hosts: 3}}
		}, "workingSet"},
		{"bad workload kind", func(s *Spec) { s.Workload = &Workload{Kind: "replay"} }, "-trace-replay"},
		{"trace workload needs a path", func(s *Spec) { s.Workload = &Workload{Kind: "trace"} }, "trace file path"},
		{"bad workload tick", func(s *Spec) {
			s.Workload = &Workload{Kind: "synthetic", TickMS: -5}
		}, "-trace-tick-ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(s)
			_, err := s.Compile()
			if err == nil {
				t.Fatal("Compile accepted a bad spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompileWorkload: the workload section lowers onto
// core.RunOptions.Workload and survives the canonical round trip.
func TestCompileWorkload(t *testing.T) {
	doc := `{
  "format": "wormsim-scenario",
  "version": 1,
  "name": "replay",
  "topology": {
    "kind": "enterprise",
    "backbones": 1,
    "edges_per_backbone": 2,
    "hosts_per_subnet": 12
  },
  "worm": {
    "kind": "random",
    "beta": 0.8
  },
  "ticks": 40,
  "workload": {
    "kind": "synthetic",
    "tick_ms": 500,
    "normal": 12,
    "servers": 2,
    "p2p": 3,
    "infected": 3,
    "blaster_fraction": 0.5
  }
}
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != doc {
		t.Errorf("workload spec does not round-trip:\n--- in ---\n%s--- out ---\n%s", doc, out)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w := c.Options.Workload
	if w == nil {
		t.Fatal("compiled options carry no workload")
	}
	if w.Kind != "synthetic" || w.TickMS != 500 || w.Infected != 3 || w.BlasterFraction != 0.5 {
		t.Errorf("workload lowered to %+v", w)
	}
}

func TestExpandGrid(t *testing.T) {
	s, err := Parse([]byte(minimalJSON()))
	if err != nil {
		t.Fatal(err)
	}
	s.Grid = []Axis{
		{Path: "worm.beta", Values: rawValues("0.2", "0.6")},
		{Path: "seed", Values: rawValues("1", "2", "3")},
	}
	points, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expanded %d points, want 6", len(points))
	}
	// Row-major: the last axis (seed) varies fastest.
	if points[0].Name != "mini[worm.beta=0.2,seed=1]" || points[1].Name != "mini[worm.beta=0.2,seed=2]" ||
		points[3].Name != "mini[worm.beta=0.6,seed=1]" {
		t.Errorf("point order wrong: %q, %q, ..., %q", points[0].Name, points[1].Name, points[3].Name)
	}
	if points[3].Spec.Worm.Beta != 0.6 || points[3].Spec.Seed != 1 {
		t.Errorf("point 3 values wrong: %+v", points[3].Spec)
	}

	// An axis can target a section the base spec omitted entirely.
	s.Grid = []Axis{{Path: "quarantine.trigger_level", Values: rawValues("0.05")}}
	points, err = s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Spec.Quarantine == nil || points[0].Spec.Quarantine.TriggerLevel != 0.05 {
		t.Errorf("quarantine axis did not create the section: %+v", points[0].Spec.Quarantine)
	}
}

// TestExpandRejectsHugeGrid: three 100,000-value axes (a ~600 KB spec,
// under wormsimd's 1 MB body limit) multiply to 10^15 points. Expand
// must refuse the grid from its axis lengths alone — an error, not a
// makeslice panic, and before building anything.
func TestExpandRejectsHugeGrid(t *testing.T) {
	s, err := Parse([]byte(minimalJSON()))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]json.RawMessage, 100_000)
	for i := range values {
		values[i] = json.RawMessage("1")
	}
	s.Grid = []Axis{{Path: "seed", Values: values}, {Path: "ticks", Values: values}, {Path: "run.runs", Values: values}}
	start := time.Now()
	_, err = s.Expand()
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("Expand took %v to refuse the grid, want < 100ms", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "more than 10000 points") {
		t.Fatalf("Expand error = %v, want the point cap", err)
	}
}

// TestExpandWeightedBackboneScales: a weighted backbone takes its
// link weights from the structural router in O(N + C²), not from the
// dense all-pairs table, so expanding a 9,768-node two-level spec —
// which wormsimd does inside its Submit handler — stays fast. The dense
// table took seconds and gigabytes here, growing with N².
func TestExpandWeightedBackboneScales(t *testing.T) {
	s := &Spec{
		Format: Format, Version: Version,
		Topology: Topology{Kind: "twolevel", ASes: 40, AttachM: 2, TransitFraction: 0.05, HostsPerStub: 256},
		Worm:     Worm{Kind: "random", Beta: 0.8},
		Defenses: []Defense{{Kind: "backbone", Rate: 0.4, Weighted: true}},
	}
	start := time.Now()
	points, err := s.Expand()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Topology.nodes(); err != nil || n != 9768 || len(points) != 1 {
		t.Fatalf("%d points over %d nodes (%v), want 1 over 9768", len(points), n, err)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("Expand took %v, want < 200ms", elapsed)
	}
}

// TestGridPointsCap pins the count at the cap's boundary.
func TestGridPointsCap(t *testing.T) {
	axis := func(n int) Axis { return Axis{Values: make([]json.RawMessage, n)} }
	if n, err := gridPoints(nil); n != 1 || err != nil {
		t.Errorf("no grid: %d, %v; want 1 point", n, err)
	}
	if n, err := gridPoints([]Axis{axis(100), axis(100)}); n != maxGridPoints || err != nil {
		t.Errorf("100x100: %d, %v; want %d points", n, err, maxGridPoints)
	}
	if _, err := gridPoints([]Axis{axis(100), axis(101)}); err == nil {
		t.Error("100x101 accepted over the cap")
	}
	if _, err := gridPoints([]Axis{axis(maxGridPoints + 1)}); err == nil {
		t.Error("a single axis over the cap accepted")
	}
}

func TestExpandGridRejects(t *testing.T) {
	base := func() *Spec {
		s, err := Parse([]byte(minimalJSON()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		grid []Axis
		want string
	}{
		{"empty path", nil, []Axis{{Path: "", Values: rawValues("1")}}, "empty path"},
		{"no values", nil, []Axis{{Path: "seed"}}, "no values"},
		{"self-referential", nil, []Axis{{Path: "grid.0.path", Values: rawValues(`"x"`)}}, "grid itself"},
		{"unknown field", nil, []Axis{{Path: "worm.speed", Values: rawValues("3")}}, "unknown field"},
		{"type mismatch", nil, []Axis{{Path: "ticks", Values: rawValues(`"many"`)}}, "cannot unmarshal"},
		{"index out of range",
			func(s *Spec) { s.Defenses = []Defense{{Kind: "none"}} },
			[]Axis{{Path: "defenses.2.rate", Values: rawValues("1")}}, "out of range"},
		{"non-numeric index",
			func(s *Spec) { s.Defenses = []Defense{{Kind: "none"}} },
			[]Axis{{Path: "defenses.first.rate", Values: rawValues("1")}}, "must be a number"},
		{"descend into scalar", nil, []Axis{{Path: "seed.sub", Values: rawValues("1")}}, "scalar"},
		{"invalid point", nil, []Axis{{Path: "worm.beta", Values: rawValues("2.5")}}, "beta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			if tc.mut != nil {
				tc.mut(s)
			}
			s.Grid = tc.grid
			if _, err := s.Expand(); err == nil {
				t.Fatal("Expand accepted a bad grid")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// rawValues builds raw JSON axis values.
func rawValues(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}
