package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/ratelimit"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/worm"
)

// triggerConfig is a fully deterministic scan-trigger scenario: β = 1
// skips every infection roll and the sequential worm picks targets
// without the RNG, so the only randomness is seed placement — identical
// across config variants with the same seed. The 4 seeds × 2 scans/tick
// cross the 8-scans threshold in tick 0.
func triggerConfig(t *testing.T) Config {
	t.Helper()
	g, err := topology.Star(60)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph: g, Beta: 1, ScansPerTick: 2,
		Strategy:        worm.NewSequentialFactory(),
		InitialInfected: 4, Ticks: 30, Seed: 5,
		Quarantine: &Quarantine{TriggerScansPerTick: 8, Delay: 0},
	}
}

// TestTriggerCountsPreThrottleAttempts is the regression test for the
// trigger-accounting bug: scan attempts are counted at the monitor
// point (after the β roll and self-target skip, before the host
// contact limiter), so the detector sees the same attempt stream
// whether or not hosts throttle their contacts. Under the old
// post-limiter accounting, the throttled run under-counted and
// triggered late (or never).
func TestTriggerCountsPreThrottleAttempts(t *testing.T) {
	open := triggerConfig(t)
	eng, err := New(open)
	if err != nil {
		t.Fatal(err)
	}
	unlimited := eng.Run()

	limited := triggerConfig(t)
	for u := 0; u < limited.Graph.N(); u++ {
		limited.HostLimiterNodes = append(limited.HostLimiterNodes, u)
	}
	limited.HostLimiterFactory = func() ratelimit.ContactLimiter {
		l, err := ratelimit.NewWilliamsonThrottle(1, 1)
		if err != nil {
			panic(err)
		}
		return l
	}
	eng, err = New(limited)
	if err != nil {
		t.Fatal(err)
	}
	throttled := eng.Run()

	// Tick 0 carries 4 seeds × 2 scans = 8 attempts at the monitor
	// point; the boundary evaluation fires the Delay=0 trigger at the
	// start of tick 1 — in both runs, although the Williamson(1,1)
	// throttle blocks half the contacts of the limited one.
	if unlimited.QuarantineTick != 1 {
		t.Errorf("unlimited run triggered at tick %d, want 1", unlimited.QuarantineTick)
	}
	if throttled.QuarantineTick != unlimited.QuarantineTick {
		t.Errorf("host-limited run triggered at tick %d, unlimited at %d: detector must see pre-throttle attempts",
			throttled.QuarantineTick, unlimited.QuarantineTick)
	}
	// And the throttle did bite: the limited epidemic is no faster.
	if throttled.FinalEverInfected() > unlimited.FinalEverInfected() {
		t.Errorf("throttled spread %.3f exceeds unlimited %.3f",
			throttled.FinalEverInfected(), unlimited.FinalEverInfected())
	}
}

// TestQuarantineDelayZeroNextTick pins the tick-boundary semantics:
// with Delay = 0 a threshold crossed during tick t activates the
// defense at the start of tick t+1 — a tick is fully open or fully
// defended, never retroactively gated.
func TestQuarantineDelayZeroNextTick(t *testing.T) {
	cfg := triggerConfig(t)
	cfg.LimitedNodes = []int{topology.Hub}
	cfg.BaseRate = 1
	ring := obs.NewRing(cfg.Ticks)
	cfg.Collector = ring
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Run()
	if res.QuarantineTick != 1 {
		t.Fatalf("QuarantineTick = %d, want 1 (threshold crossed in tick 0, effective next tick)", res.QuarantineTick)
	}
	if ring.At(0).QuarantineActive {
		t.Error("tick 0 reported as defended; it crossed the threshold but must run open")
	}
	if !ring.At(1).QuarantineActive {
		t.Error("tick 1 not defended despite tick 0 crossing the threshold with Delay=0")
	}
	if got := ring.Summary().QuarantineTick; got != 1 {
		t.Errorf("activation event at tick %d, want 1", got)
	}
}

// TestQuarantineLevelPreCrossedMatchesAlwaysOn: when the seeds already
// satisfy a level trigger, the Delay=0 boundary evaluation activates
// the defense before tick 0 runs — the dynamic run is byte-identical
// to an always-on deployment of the same limits.
func TestQuarantineLevelPreCrossedMatchesAlwaysOn(t *testing.T) {
	base := triggerConfig(t)
	base.LimitedNodes = []int{topology.Hub}
	base.BaseRate = 1

	always := base
	always.Quarantine = nil
	eng, err := New(always)
	if err != nil {
		t.Fatal(err)
	}
	wantRes := eng.Run()

	dyn := base
	// 4 seeds / 60 nodes = 6.7% infected before tick 0.
	dyn.Quarantine = &Quarantine{TriggerLevel: 0.05, Delay: 0}
	eng, err = New(dyn)
	if err != nil {
		t.Fatal(err)
	}
	gotRes := eng.Run()

	if gotRes.QuarantineTick != 0 || wantRes.QuarantineTick != 0 {
		t.Errorf("quarantine ticks = %d (dynamic) / %d (always-on), want 0 / 0",
			gotRes.QuarantineTick, wantRes.QuarantineTick)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Error("pre-crossed Delay=0 quarantine diverged from always-on deployment")
	}
}

// countdownCtx reports an error from its K+1th Err() call — the engine
// polls Err once per tick, so exactly K ticks complete.
type countdownCtx struct {
	context.Context
	remaining int
	cause     error
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return c.cause
	}
	c.remaining--
	return nil
}

// TestRunContextCancelPartials checks the truncation contract of a
// cancelled run: all four series stop at the same tick, the metrics
// ring stops with them, and per-run data (genealogy, activation tick)
// never refer past the last completed tick.
func TestRunContextCancelPartials(t *testing.T) {
	const ranTicks = 7
	cfg := multiRunConfig(t)
	cfg.RecordInfections = true
	cfg.Quarantine = &Quarantine{TriggerLevel: 0.01, Delay: 1}
	ring := obs.NewRing(cfg.Ticks)
	cfg.Collector = ring
	cfg.Check = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("deadline")
	ctx := &countdownCtx{Context: context.Background(), remaining: ranTicks, cause: sentinel}
	res, err := eng.RunContext(ctx)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the context cause", err)
	}
	for name, n := range map[string]int{
		"Infected":     len(res.Infected),
		"EverInfected": len(res.EverInfected),
		"Immunized":    len(res.Immunized),
		"Backlog":      len(res.Backlog),
	} {
		if n != ranTicks {
			t.Errorf("%s has %d entries, want %d", name, n, ranTicks)
		}
	}
	if ring.Len() != ranTicks {
		t.Errorf("metrics ring has %d ticks, want %d", ring.Len(), ranTicks)
	}
	if res.QuarantineTick >= ranTicks {
		t.Errorf("QuarantineTick %d refers past the %d completed ticks", res.QuarantineTick, ranTicks)
	}
	for _, inf := range res.Infections {
		if inf.Tick >= ranTicks {
			t.Errorf("infection at tick %d recorded after cancellation at %d", inf.Tick, ranTicks)
		}
	}
}

// TestGoldenSeriesAudited runs every golden scenario under the
// invariant audit with a full metrics ring attached and checks the
// series stay byte-identical to a plain run: observability must be a
// pure observer, and the audited engine state must be self-consistent
// on every tick of every feature cluster.
func TestGoldenSeriesAudited(t *testing.T) {
	for name, cfg := range goldenScenarios(t) {
		plainEng, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain := plainEng.Run()

		audited := cfg
		audited.Check = true
		ring := obs.NewRing(cfg.Ticks)
		audited.Collector = ring
		auditedEng, err := New(audited)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := auditedEng.RunContext(context.Background())
		if err != nil {
			t.Errorf("%s: audit failed: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(toGolden(res), toGolden(plain)) {
			t.Errorf("%s: series with collector+audit diverged from plain run", name)
		}
		if ring.Len() != cfg.Ticks {
			t.Errorf("%s: ring has %d ticks, want %d", name, ring.Len(), cfg.Ticks)
		}
		// Per-tick flow consistency: every packet generated this tick
		// was a surviving scan attempt or a probe-path injection.
		for i := 0; i < ring.Len(); i++ {
			m := ring.At(i)
			passed := m.ScanAttempts - m.ThrottledContacts
			if !cfg.ProbeFirst && m.PacketsGenerated != passed {
				t.Errorf("%s tick %d: generated %d != attempts %d - throttled %d",
					name, m.Tick, m.PacketsGenerated, m.ScanAttempts, m.ThrottledContacts)
				break
			}
			if cfg.ProbeFirst && m.PacketsGenerated < passed {
				t.Errorf("%s tick %d: generated %d < surviving attempts %d",
					name, m.Tick, m.PacketsGenerated, passed)
				break
			}
		}
	}
}

// TestMultiRunCounters: batch counter aggregation is deterministic
// across job counts, and attaching collectors never perturbs the
// averaged series.
func TestMultiRunCounters(t *testing.T) {
	cfg := multiRunConfig(t)
	const runs = 4
	plain, _, err := MultiRun(context.Background(), cfg, runs, runner.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counters != nil {
		t.Errorf("counters without a collector factory: %v", plain.Counters)
	}

	cfg.CollectorFactory = func(int) obs.Collector { return obs.NewTally() }
	var byJobs []map[string]int64
	for _, jobs := range []int{1, 4} {
		res, _, err := MultiRun(context.Background(), cfg, runs, runner.WithJobs(jobs))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(res.Infected, plain.Infected) || !reflect.DeepEqual(res.Backlog, plain.Backlog) {
			t.Errorf("jobs=%d: collectors perturbed the averaged series", jobs)
		}
		byJobs = append(byJobs, res.Counters)
	}
	if !reflect.DeepEqual(byJobs[0], byJobs[1]) {
		t.Errorf("counters differ across job counts:\n jobs=1: %v\n jobs=4: %v", byJobs[0], byJobs[1])
	}
	c := byJobs[0]
	if want := int64(runs * cfg.Ticks); c["ticks"] != want {
		t.Errorf("ticks counter = %d, want %d", c["ticks"], want)
	}
	if c["scan_attempts"] <= 0 || c["packets_generated"] <= 0 {
		t.Errorf("flow counters empty: %v", c)
	}
	if c["infections"] <= 0 {
		t.Errorf("no infections counted: %v", c)
	}
}
