package sim

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/ratelimit"
	"repro/internal/safeio"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/worm"
)

// The trace-replay determinism contract: a replay run is reproducible
// from (Config, workload) alone — the workload consumes no engine RNG
// and the replay sweep is serial — so the series, genealogy, and the
// collateral-damage counters must be byte-identical across worker
// counts and across a mid-run checkpoint/resume. The golden_replay
// fixture pins both the series and the counters.

const goldenReplayPath = "testdata/golden_replay.json"

// replayGen is the synthetic traffic profile behind every replay test:
// a small four-class population (12 normal, 2 servers, 3 P2P, 3
// infected) over a 90-second trace at one engine tick per second.
func replayGen() trace.GenConfig {
	return trace.GenConfig{
		Duration:        90 * trace.Second,
		Seed:            99,
		NormalClients:   12,
		Servers:         2,
		P2PClients:      3,
		Infected:        3,
		BlasterFraction: 0.5,
	}
}

// replayScenario maps the replayGen hosts onto a two-level hierarchy's
// RoleHost nodes, with Williamson throttles on every mapped host so
// worm scans and benign flows compete for the same credits.
func replayScenario(t testing.TB) Config {
	t.Helper()
	hg, hRoles, hSubnet, err := topology.Hierarchical(topology.HierarchicalConfig{
		Backbones: 1, EdgesPer: 2, HostsPerSubnet: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := replayGen()
	hostNodes := topology.NodesWithRole(hRoles, topology.RoleHost)
	if len(hostNodes) < gen.NumHosts() {
		t.Fatalf("topology has %d hosts for %d trace hosts", len(hostNodes), gen.NumHosts())
	}
	hostMap := make([]int32, gen.NumHosts())
	for i := range hostMap {
		hostMap[i] = int32(hostNodes[i])
	}
	return Config{
		Graph: hg, Roles: hRoles, Subnet: hSubnet,
		Strategy: worm.NewRandomFactory(),
		Ticks:    90, Seed: 7,
		MaxQueue:         50,
		RecordInfections: true,
		TrackSubnets:     true,
		HostLimiterNodes: hostNodes[:gen.NumHosts()],
		HostLimiterFactory: func() ratelimit.ContactLimiter {
			l, err := ratelimit.NewWilliamsonThrottle(4, 1)
			if err != nil {
				panic(err)
			}
			return l
		},
		Replay: &ReplayConfig{
			NewWorkload: func() (Workload, error) {
				return trace.NewSyntheticReplayer(gen, trace.Second)
			},
			Hosts:     hostMap,
			WormHosts: gen.HostsOfClass(trace.ClassInfected),
		},
	}
}

// goldenReplay is the fixture shape: the pinned series plus the full
// obs counter map (including benign_contacts / benign_throttled, the
// collateral-damage signal).
type goldenReplay struct {
	Series   goldenSeries     `json:"series"`
	Counters map[string]int64 `json:"counters"`
}

func TestGoldenReplay(t *testing.T) {
	cfg := replayScenario(t)
	series, counters := runTallied(t, cfg, 1)
	got := goldenReplay{Series: series, Counters: counters}

	if got.Counters["benign_contacts"] == 0 {
		t.Fatal("replay run saw no benign contacts; the background profile is dead")
	}
	if got.Counters["scan_attempts"] == 0 {
		t.Fatal("replay run saw no worm scans; the worm profile is dead")
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenReplayPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := safeio.WriteFile(goldenReplayPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenReplayPath)
		return
	}

	buf, err := os.ReadFile(goldenReplayPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var want goldenReplay
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay run diverged from golden fixture:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayWorkerInvariance: the replay generate phase is serial by
// construction, so worker count must not change a single counter.
func TestReplayWorkerInvariance(t *testing.T) {
	cfg := replayScenario(t)
	base, baseCounters := runTallied(t, cfg, 1)
	for _, workers := range []int{2, 8} {
		got, counters := runTallied(t, cfg, workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: replay series diverged from workers=1", workers)
		}
		if !reflect.DeepEqual(counters, baseCounters) {
			t.Errorf("workers=%d: replay obs counters diverged from workers=1:\n got %v\nwant %v",
				workers, counters, baseCounters)
		}
	}
}

// TestReplayCheckpointResume: the resume contract on a replay run. The
// snapshot carries the stream position (ReplayRecords); Restore builds
// a fresh workload, fast-forwards it with Skip, and the finished run
// must be byte-identical to the uninterrupted one, wherever the cut
// falls.
func TestReplayCheckpointResume(t *testing.T) {
	cfg := replayScenario(t)
	full, snaps := runWithCheckpoints(t, cfg)
	for i, snap := range snaps {
		data, err := snap.Encode()
		if err != nil {
			t.Fatalf("encode snapshot %d: %v", i, err)
		}
		decoded, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("decode snapshot %d: %v", i, err)
		}
		eng, err := Restore(cfg, decoded)
		if err != nil {
			t.Fatalf("restore at tick %d: %v", i+1, err)
		}
		res, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatalf("resumed replay from tick %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(res, full) {
			t.Fatalf("replay resume from tick %d diverged from the uninterrupted run", i+1)
		}
	}
}

// TestReplayResumeAcrossWorkerCounts: a mid-run replay checkpoint must
// resume byte-identically under any worker count.
func TestReplayResumeAcrossWorkerCounts(t *testing.T) {
	cfg := replayScenario(t)
	cfg.Workers = 4
	full, snaps := runWithCheckpoints(t, cfg)
	cut := len(snaps) / 2
	data, err := snaps[cut].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		rcfg := cfg
		rcfg.Workers = workers
		eng, err := Restore(rcfg, snap)
		if err != nil {
			t.Fatalf("restore cut %d under workers=%d: %v", cut, workers, err)
		}
		res, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, full) {
			t.Errorf("replay resume from cut %d under workers=%d diverged", cut, workers)
		}
	}
}

// TestReplaySnapshotRejectsWrongTrace: restoring a replay snapshot over
// a different workload must fail loudly (the skipped-contact count no
// longer matches the snapshotted stream position), and restoring it
// into a non-replay config must fail too — never silently diverge.
func TestReplaySnapshotRejectsWrongTrace(t *testing.T) {
	cfg := replayScenario(t)
	_, snaps := runWithCheckpoints(t, cfg)
	cut := len(snaps) / 2
	data, err := snaps[cut].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	// A near-empty trace: one normal client, no worm. Its cumulative
	// contact count can never match the snapshotted position.
	wrong := cfg
	wrong.Replay = &ReplayConfig{
		NewWorkload: func() (Workload, error) {
			return trace.NewSyntheticReplayer(trace.GenConfig{
				Duration: 90 * trace.Second, Seed: 1, NormalClients: 1,
			}, trace.Second)
		},
		Hosts:     cfg.Replay.Hosts[:1],
		WormHosts: nil,
	}
	wrong.InitialInfected = 1
	if _, err := Restore(wrong, snap); !errors.Is(err, ErrSnapshot) {
		t.Errorf("restore over a different trace: got %v, want ErrSnapshot", err)
	}

	noReplay := cfg
	noReplay.Replay = nil
	noReplay.Beta = 0.8
	noReplay.ScansPerTick = 2
	noReplay.InitialInfected = 1
	if _, err := Restore(noReplay, snap); !errors.Is(err, ErrSnapshot) {
		t.Errorf("restore into a non-replay config: got %v, want ErrSnapshot", err)
	}
}

// TestRestoreRejectsBadThrottleState: a snapshot whose Williamson
// working set is longer than the throttle's size, or names an address
// twice, must fail restore with ErrSnapshot.
func TestRestoreRejectsBadThrottleState(t *testing.T) {
	cfg := replayScenario(t)
	_, snaps := runWithCheckpoints(t, cfg)
	snap := snaps[len(snaps)/2]
	if len(snap.Limiters) == 0 {
		t.Fatal("replay snapshot carries no limiter state")
	}
	cases := []struct{ name, lru string }{
		{"longer than the working set", "[1,2,3,4,5]"},
		{"duplicate address", "[1,2,1]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *snap
			bad.Limiters = slices.Clone(snap.Limiters)
			bad.Limiters[0].State = json.RawMessage(`{"lru":` + c.lru + `,"queue":[],"last_drain":-1}`)
			if _, err := Restore(cfg, &bad); !errors.Is(err, ErrSnapshot) {
				t.Errorf("restore: got %v, want ErrSnapshot", err)
			}
		})
	}
}

// TestReplayConfigValidate covers the replay section's config errors.
func TestReplayConfigValidate(t *testing.T) {
	base := replayScenario(t)

	cfg := base
	cfg.Replay = &ReplayConfig{}
	if _, err := New(cfg); err == nil {
		t.Error("missing workload factory accepted")
	}

	cfg = base
	rc := *base.Replay
	rc.Hosts = []int32{0, int32(base.Graph.N())}
	cfg.Replay = &rc
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range host map accepted")
	}

	cfg = base
	rc = *base.Replay
	rc.WormHosts = []int{len(rc.Hosts)}
	cfg.Replay = &rc
	if _, err := New(cfg); err == nil {
		t.Error("worm host outside the host map accepted")
	}

	cfg = base
	cfg.InitialInfected = 1
	if _, err := New(cfg); err == nil {
		t.Error("InitialInfected alongside replay WormHosts accepted")
	}
}

// TestReplayCollateralSignal: with throttles deployed, some benign
// traffic must be throttled (the collateral signal exists) and benign
// counters must stay internally consistent.
func TestReplayCollateralSignal(t *testing.T) {
	cfg := replayScenario(t)
	tally := obs.NewTally()
	cfg.Collector = tally
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	sum := tally.Summary()
	if sum.BenignContacts == 0 {
		t.Fatal("no benign contacts recorded")
	}
	if sum.BenignThrottled == 0 {
		t.Error("Williamson throttles under worm load throttled no benign traffic; expected collateral damage")
	}
	if sum.BenignThrottled > sum.BenignContacts {
		t.Errorf("benign_throttled %d exceeds benign_contacts %d", sum.BenignThrottled, sum.BenignContacts)
	}
	if sum.ThrottledContacts > sum.ScanAttempts {
		t.Errorf("throttled %d exceeds scan attempts %d", sum.ThrottledContacts, sum.ScanAttempts)
	}
}
