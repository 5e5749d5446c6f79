package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/runner"
	"repro/internal/spec"
)

// testBin holds the CLIs the smoke tests drive, built once.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBin = dir
	if err := buildTools("..", dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testEnv(t *testing.T) *env {
	return &env{root: "..", bin: testBin, work: t.TempDir(), seed: 3}
}

// TestBenchmarkFile holds BENCHMARK.json to the workloads and metrics
// the harness reports.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, harness %s", got, workloadNames())
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, harness %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), harness %s (%s)", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{200, 95}, {100, 90}, {1000, 99}, {10000, 99.9}, {40, 75}, {20, 50}, {19, 0}, {1, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	// Nearest rank: p95 of 1..200 is 190, with ten samples above it.
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestTemplatesParse renders every workload's scenario for several
// seeds and holds it to the spec parser and grid expansion.
func TestTemplatesParse(t *testing.T) {
	check := func(name string, s *spec.Spec, points int) {
		t.Helper()
		data, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parsed, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := parsed.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != points {
			t.Errorf("%s: %d grid points, want %d", name, len(got), points)
		}
	}
	for _, seed := range []int64{1, 2, 977} {
		for i := 0; i < serviceNets+1; i++ {
			check(fmt.Sprintf("service seed %d spec %d", seed, i), serviceSpec(seed, i), 2)
		}
	}
	for _, seed := range []int64{1, 2} {
		check(fmt.Sprintf("internet seed %d", seed), internetSpec(seed, 80), 1)
		check(fmt.Sprintf("collateral seed %d", seed), collateralSpec(seed, 600), 1)
	}
}

func TestDiffDigests(t *testing.T) {
	want := digests{"series": "aa", "footer": "bb"}
	if d := diffDigests(want, digests{"series": "aa", "footer": "bb"}); len(d) != 0 {
		t.Errorf("equal digests differ: %v", d)
	}
	d := diffDigests(want, digests{"series": "ab", "extra": "cc"})
	if len(d) != 3 {
		t.Errorf("want a changed, a missing and an unexpected output, got %v", d)
	}
}

func TestCheckCollateral(t *testing.T) {
	good := "# t50=NaN final=0.085 ever=0.085\n# scans=9 throttled=8 generated=1 delivered=1 dropped=0 infections=1\n# benign=100 benign_throttled=92 collateral=0.9200\n"
	if p := checkCollateral([]byte(good)); p != nil {
		t.Errorf("good footer rejected: %v", p)
	}
	for _, bad := range []string{
		strings.Replace(good, "benign_throttled=92", "benign_throttled=101", 1),
		"# t50=NaN final=0.085 ever=0.085\n",
	} {
		if p := checkCollateral([]byte(bad)); p == nil {
			t.Errorf("footer accepted: %q", bad)
		}
	}
	if _, _, err := splitSeries([]byte("not a series\n")); err == nil {
		t.Error("splitSeries accepted output without a series")
	}
}

func TestCheckFigureShapes(t *testing.T) {
	good := func() map[string]map[string]float64 {
		return map[string]map[string]float64{
			"fig1b": {"t60_No RL": 20, "t60_30% leaf nodes RL": 25, "t60_Hub node RL": 70},
			"fig4":  {"backbone_over_noRL": 5, "edge_over_noRL": 1.5, "host5_over_noRL": 1},
			"fig5":  {"random_slowdown": 2, "localpref_slowdown": 1.1},
			"fig6":  {"backbone_over_noRL": 4, "host30_over_noRL": 1.2},
			"fig8a": {"ever_Immunization at 20%": 0.6, "ever_Immunization at 50%": 0.8, "ever_Immunization at 80%": 0.95, "ever_No immunization": 1},
			"fig8b": {"ever_Immunization at 20%-tick": 0.4},
		}
	}
	if p := checkFigureShapes(good()); len(p) != 0 {
		t.Fatalf("paper shapes rejected: %v", p)
	}
	for _, perturb := range []func(m map[string]map[string]float64){
		func(m map[string]map[string]float64) { m["fig1b"]["t60_Hub node RL"] = 22 },
		func(m map[string]map[string]float64) { m["fig4"]["edge_over_noRL"] = 6 },
		func(m map[string]map[string]float64) { m["fig5"]["localpref_slowdown"] = 3 },
		func(m map[string]map[string]float64) { m["fig6"]["host30_over_noRL"] = 5 },
		func(m map[string]map[string]float64) { m["fig8a"]["ever_Immunization at 50%"] = 0.5 },
		func(m map[string]map[string]float64) { m["fig8b"]["ever_Immunization at 20%-tick"] = 0.7 },
		func(m map[string]map[string]float64) { delete(m, "fig4") },
	} {
		m := good()
		perturb(m)
		if p := checkFigureShapes(m); len(p) == 0 {
			t.Errorf("perturbed figures accepted: %v", m)
		}
	}
}

// tinyInternet is internet-1m shrunk to a 2.3k-host internet.
func tinyInternet(seed int64, ticks int) *spec.Spec {
	s := internetSpec(seed, ticks)
	s.Topology.ASes, s.InitialInfected = 10, 20
	return s
}

// tinyCampus is collateral-campus shrunk to 144 trace hosts.
func tinyCampus(seed int64, ticks int) *spec.Spec {
	s := collateralSpec(seed, ticks)
	s.Topology = spec.Topology{Kind: "enterprise", Backbones: 1, EdgesPerBackbone: 2, HostsPerSubnet: 72}
	s.Defenses[0].Hosts = 144
	s.Workload.Normal, s.Workload.Servers, s.Workload.P2P, s.Workload.Infected = 120, 4, 8, 12
	return s
}

// TestWormsimSmoke drives both wormsim workloads on tiny inputs and
// holds the traced rebuild to the CLI's digests.
func TestWormsimSmoke(t *testing.T) {
	for name, w := range map[string]wormsimWorkload{
		"internet":   {spec: tinyInternet, ticks: 10},
		"collateral": {spec: tinyCampus, ticks: 30, replay: true},
	} {
		t.Run(name, func(t *testing.T) {
			e := testEnv(t)
			ctx := context.Background()
			p, err := w.pass(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.problems) > 0 {
				t.Fatalf("output checks: %v", p.problems)
			}
			if _, err := w.setup(ctx, e); err != nil {
				t.Fatal(err)
			}
			tr, err := w.traced(ctx, e, newRecorder(name))
			if err != nil {
				t.Fatal(err)
			}
			if d := diffDigests(p.digests, tr.digests); len(d) > 0 {
				t.Errorf("traced pass differs from the CLI: %v", d)
			}
			if tr.layers["sim.packets"] <= 0 {
				t.Errorf("traced pass counted no packets: %v", tr.layers)
			}
		})
	}
}

// TestFigureSmoke traces one quick figure and holds it to the figure
// pool's own regeneration.
func TestFigureSmoke(t *testing.T) {
	ctx := context.Background()
	results, _, err := experiment.RunAllStats(ctx, []string{"fig8a"}, figureOptions(3, true), runner.WithJobs(loadSize))
	if err != nil {
		t.Fatal(err)
	}
	want, err := figureOutputs(results)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := figuresWorkload{ids: []string{"fig8a"}, quick: true}.traced(ctx, testEnv(t), newRecorder("figures"))
	if err != nil {
		t.Fatal(err)
	}
	if d := diffDigests(want.Digests, tr.digests); len(d) > 0 {
		t.Errorf("traced figure differs: %v", d)
	}
	if tr.layers["runner.replicas"] != figureReplicas*4 {
		t.Errorf("fig8a ran %v replicas, want %d", tr.layers["runner.replicas"], figureReplicas*4)
	}
}

// TestServiceSmoke submits one spec twice to wormsimd and to an
// in-process daemon.
func TestServiceSmoke(t *testing.T) {
	e := testEnv(t)
	ctx := context.Background()
	bodies, err := serviceBodies(e.seed)
	if err != nil {
		t.Fatal(err)
	}
	bodies = bodies[:1]
	d, err := startDaemon(ctx, e, filepath.Join(e.work, "data"), serviceCheckpoints)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := sweep(ctx, d.url, bodies, 2, nil)
	if _, err := d.stop(); err != nil {
		t.Fatal(err)
	}
	got, failed, problems := sweepChecks(out)
	if failed > 0 {
		t.Fatalf("jobs failed: %v", problems)
	}
	traced, _, _, err := inProcessSweep(ctx, filepath.Join(e.work, "traced"), bodies, 2, serviceCheckpoints, newRecorder("service"))
	if err != nil {
		t.Fatal(err)
	}
	want, failed, problems := sweepChecks(traced)
	if failed > 0 {
		t.Fatalf("in-process jobs failed: %v", problems)
	}
	if diff := diffDigests(want, got); len(diff) > 0 {
		t.Errorf("wormsimd and the in-process daemon differ: %v", diff)
	}
	// A restart over the settled jobs is the workload's set-up.
	if _, err := (serviceWorkload{}).setup(ctx, e); err != nil {
		t.Fatal(err)
	}
}
