package sim

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/safeio"
	"repro/internal/worm"
)

// The golden-counter fixture pins the obs.Tally counter totals of every
// golden scenario (plus a hit-list variant, whose shared claim cursor
// couples the generate sweep across hosts). The series fixture pins
// what the engine reports per tick; this one pins how much work it did
// to get there — scans, admissions, queue drops, immunizations — so a
// refactor that reorders or skips hot-path work shows up even when the
// series happen to agree. Regenerate intentionally with
//
//	go test ./internal/sim -run TestGoldenCounters -update-golden
const goldenCountersPath = "testdata/golden_counters.json"

// counterScenarios is goldenScenarios plus the hit-list variant of
// powerlaw-drop-immunize.
func counterScenarios(t testing.TB) map[string]Config {
	scenarios := goldenScenarios(t)
	base := scenarios["powerlaw-drop-immunize"]
	list := make([]int, 50)
	for i := range list {
		list[i] = (i * 3) % base.Graph.N()
	}
	hitlist, err := worm.NewHitListFactory(list)
	if err != nil {
		t.Fatal(err)
	}
	base.Strategy = hitlist
	scenarios["powerlaw-drop-immunize-hitlist"] = base
	return scenarios
}

// runTallied runs cfg with a fresh Tally collector, returning the
// series and the run's counter totals.
func runTallied(t *testing.T, cfg Config) (goldenSeries, map[string]int64) {
	t.Helper()
	tally := obs.NewTally()
	cfg.Collector = tally
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	return toGolden(res), tally.Summary().Counters()
}

func TestGoldenCounters(t *testing.T) {
	scenarios := counterScenarios(t)
	got := make(map[string]map[string]int64, len(scenarios))
	for name, cfg := range scenarios {
		_, got[name] = runTallied(t, cfg)
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := safeio.WriteFile(goldenCountersPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", goldenCountersPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenCountersPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with -update-golden): %v", err)
	}
	var want map[string]map[string]int64
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("fixture scenario %s no longer produced", name)
		}
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from fixture (regenerate with -update-golden)", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: obs counters diverged from golden fixture:\n got %v\nwant %v", name, g, w)
		}
	}
}
