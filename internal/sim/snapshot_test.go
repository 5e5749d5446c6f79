package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/topology"
	"repro/internal/worm"
)

// runWithCheckpoints runs cfg to completion, snapshotting after every
// tick, and returns the full series plus the per-tick snapshots
// (snaps[i] resumes at tick i+1).
func runWithCheckpoints(t *testing.T, cfg Config) (*Result, []*Snapshot) {
	t.Helper()
	var snaps []*Snapshot
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(s *Snapshot) error {
		snaps = append(snaps, s)
		return nil
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != cfg.Ticks {
		t.Fatalf("got %d snapshots for %d ticks", len(snaps), cfg.Ticks)
	}
	return res, snaps
}

// TestSnapshotResumeByteIdentical is the resume contract on every
// golden scenario: checkpoint at every tick, push each snapshot through
// the full file encoding, restore, finish the run — the result must be
// byte-identical to the uninterrupted run, wherever the cut falls.
func TestSnapshotResumeByteIdentical(t *testing.T) {
	for name, cfg := range goldenScenarios(t) {
		t.Run(name, func(t *testing.T) {
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
					t.Fatalf("resumed run from tick %d: %v", i+1, err)
				}
				if !reflect.DeepEqual(res, full) {
					t.Fatalf("resume from tick %d diverged from the uninterrupted run", i+1)
				}
			}
		})
	}
}

// TestSnapshotResumeWithFaults extends the resume contract to a run
// with an active domain-fault profile: the injector RNG state must ride
// along in the checkpoint.
func TestSnapshotResumeWithFaults(t *testing.T) {
	scenarios := goldenScenarios(t)
	cfg := scenarios["twolevel-host-throttle"]
	cfg.Faults = &fault.Profile{
		Seed:              5,
		FalseAlarmPerTick: 0.01,
		MissRate:          0.4,
		LimiterOutages:    []fault.Window{{Start: 30, End: 45}},
	}
	cfg.Immunize = &Immunization{StartTick: 20, Mu: 0.02}
	cfg.Faults.ImmunizationLossRate = 0.3
	cfg.Faults.ImmunizationDelay = 7

	full, snaps := runWithCheckpoints(t, cfg)
	for _, i := range []int{0, 10, 25, 35, 50, len(snaps) - 1} {
		eng, err := Restore(cfg, snaps[i])
		if err != nil {
			t.Fatalf("restore at tick %d: %v", i+1, err)
		}
		res, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, full) {
			t.Fatalf("faulted resume from tick %d diverged", i+1)
		}
	}
}

// TestSnapshotFileRoundTrip pins the crash-safe file path: write,
// read, restore.
func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := goldenScenarios(t)["star-open"]
	full, snaps := runWithCheckpoints(t, cfg)
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := WriteSnapshot(path, snaps[40]); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Restore(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Error("file round-trip resume diverged")
	}
}

// TestSnapshotRejectsCorruption flips bytes across the encoded file at
// many seeds: decode (or, where the damage slips past framing, restore)
// must fail with ErrSnapshot — never panic, never resume silently.
func TestSnapshotRejectsCorruption(t *testing.T) {
	cfg := goldenScenarios(t)["star-hub-capped"]
	_, snaps := runWithCheckpoints(t, cfg)
	data, err := snaps[60].Encode()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		corrupted := fault.Corrupt(data, seed)
		snap, derr := DecodeSnapshot(corrupted)
		if derr == nil {
			t.Fatalf("seed %d: corrupted snapshot decoded cleanly", seed)
		}
		if !errors.Is(derr, ErrSnapshot) {
			t.Fatalf("seed %d: decode error %v does not match ErrSnapshot", seed, derr)
		}
		if snap != nil {
			t.Fatalf("seed %d: decode returned a snapshot alongside an error", seed)
		}
	}
}

// TestSnapshotRejectsVersionSkew: a future-version checkpoint is
// rejected with a versioned ErrSnapshot, before any payload parsing.
func TestSnapshotRejectsVersionSkew(t *testing.T) {
	cfg := goldenScenarios(t)["star-open"]
	_, snaps := runWithCheckpoints(t, cfg)
	data, err := snaps[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = json.RawMessage("99")
	bumped, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	_, derr := DecodeSnapshot(bumped)
	if !errors.Is(derr, ErrSnapshot) {
		t.Fatalf("version-skewed decode error = %v, want ErrSnapshot", derr)
	}

	// A stale version-1 checkpoint (single sequential RNG draw count,
	// pre stream-table) must be rejected too, not misread.
	env["version"] = json.RawMessage("1")
	stale, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := DecodeSnapshot(stale); !errors.Is(derr, ErrSnapshot) {
		t.Fatalf("version-1 decode error = %v, want ErrSnapshot", derr)
	}

	// A version-2 checkpoint (dense per-node state bytes, dense RNG
	// stream array, per-link credit before the rank compaction) must be
	// rejected with an error that names both versions — there is no
	// migration path, and misreading it as a current-version file would
	// corrupt state.
	env["version"] = json.RawMessage("2")
	v2, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	_, derr = DecodeSnapshot(v2)
	if !errors.Is(derr, ErrSnapshot) {
		t.Fatalf("version-2 decode error = %v, want ErrSnapshot", derr)
	}
	if msg := derr.Error(); !strings.Contains(msg, "version 2") ||
		!strings.Contains(msg, fmt.Sprintf("version %d", SnapshotVersion)) {
		t.Fatalf("version-2 rejection %q does not name the versions", msg)
	}

	env["format"] = json.RawMessage(`"something-else"`)
	foreign, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := DecodeSnapshot(foreign); !errors.Is(derr, ErrSnapshot) {
		t.Fatalf("foreign-format decode error = %v, want ErrSnapshot", derr)
	}
}

// TestSnapshotResumeLarge exercises the v3 sparse encoding where it
// matters: a 100k-host two-level internet, where the RNG table must
// stay sparse (only touched streams encoded) and the packed states must
// survive an encode/decode/restore round trip.
func TestSnapshotResumeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host resume test skipped in -short mode")
	}
	g, roles, _, err := topology.TwoLevel(topology.TwoLevelConfig{
		ASes: 412, AttachM: 2, TransitFraction: 0.05, HostsPerStub: 256,
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Roles: roles,
		Beta: 0.8, ScansPerTick: 10,
		Strategy:        worm.NewRandomFactory(),
		InitialInfected: 100, Ticks: 8, Seed: 11,
		MaxQueue:     50,
		LimitedNodes: DeployBackbone(roles), BaseRate: 0.4,
	}
	full, snaps := runWithCheckpoints(t, cfg)
	want := toGolden(full)
	snap := snaps[3]
	if n := g.N(); len(snap.StatesPacked) != (n+3)/4 {
		t.Fatalf("packed states %d bytes for %d nodes, want %d", len(snap.StatesPacked), n, (n+3)/4)
	}
	// Early in the epidemic only infected nodes have drawn from their
	// streams: the sparse RNG table must be far smaller than the node
	// count, or the encoding has degenerated to dense.
	if len(snap.RNGIdx) >= g.N()/10 {
		t.Fatalf("sparse RNG table holds %d of %d streams — not sparse", len(snap.RNGIdx), g.N())
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Restore(cfg, decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := toGolden(eng.Run()); !reflect.DeepEqual(got, want) {
		t.Error("100k-host resume diverged")
	}
}

// TestRestoreRejectsConfigMismatch: a snapshot must not restore into a
// run it does not belong to.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	scenarios := goldenScenarios(t)
	cfg := scenarios["star-open"]
	_, snaps := runWithCheckpoints(t, cfg)
	snap := snaps[10]

	for name, mutate := range map[string]func(*Config){
		"seed":   func(c *Config) { c.Seed++ },
		"ticks":  func(c *Config) { c.Ticks += 10 },
		"graph":  func(c *Config) { c.Graph = scenarios["powerlaw-drop-immunize"].Graph },
		"limits": func(c *Config) { c.LimitedNodes = []int{0} },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := Restore(bad, snap); !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s mismatch: Restore error = %v, want ErrSnapshot", name, err)
		}
	}

	// The matching config still restores.
	if _, err := Restore(cfg, snap); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
}

// TestSnapshotStatefulPickers covers the strategies with per-host or
// shared scan state (Sequential cursors, hit-list claim pointer): the
// resumed scan positions must match exactly.
func TestSnapshotStatefulPickers(t *testing.T) {
	base := goldenScenarios(t)["star-open"]

	seqCfg := base
	seqCfg.Strategy = worm.NewSequentialFactory()

	hitList := make([]int, 40)
	for i := range hitList {
		hitList[i] = i + 5
	}
	hitFactory, err := worm.NewHitListFactory(hitList)
	if err != nil {
		t.Fatal(err)
	}
	hitCfg := base
	hitCfg.Strategy = hitFactory

	for name, cfg := range map[string]Config{"sequential": seqCfg, "hitlist": hitCfg} {
		t.Run(name, func(t *testing.T) {
			full, snaps := runWithCheckpoints(t, cfg)
			for _, i := range []int{4, 20, 55} {
				eng, err := Restore(cfg, snaps[i])
				if err != nil {
					t.Fatalf("restore at tick %d: %v", i+1, err)
				}
				res, err := eng.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, full) {
					t.Fatalf("resume from tick %d diverged", i+1)
				}
			}
		})
	}
}
