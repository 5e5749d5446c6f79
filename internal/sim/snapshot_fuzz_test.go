package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// fuzzSnapshotScenarios are the golden scenarios whose snapshots seed
// FuzzReadSnapshot: rate-limited links with queues and fractional
// credits, an immunization run with removed nodes and a fully
// materialized RNG table, and Williamson host throttles whose state is
// nested JSON.
var fuzzSnapshotScenarios = []string{
	"powerlaw-backbone-limited",
	"powerlaw-drop-immunize",
	"twolevel-host-throttle",
}

// FuzzReadSnapshot feeds arbitrary bytes to the checkpoint reader: every
// input goes through DecodeSnapshot and, when that accepts it, through
// Restore into each seed scenario's config. No input may panic, and
// every failure must match ErrSnapshot. Each input is tried twice: as a
// whole checkpoint file, and as the payload of a correctly checksummed
// envelope — without the second form nearly every mutation would stop
// at the checksum and Restore's validation would go unfuzzed.
//
// Each seed is the scenario's first snapshot holding queued packets
// (and, under immunization, removed nodes): small inputs keep the
// fuzzer's minimization of new-coverage inputs from eating a short
// campaign.
func FuzzReadSnapshot(f *testing.F) {
	scenarios := goldenScenarios(f)
	configs := make([]Config, len(fuzzSnapshotScenarios))
	for i, name := range fuzzSnapshotScenarios {
		cfg := scenarios[name]
		configs[i] = cfg
		var snap *Snapshot
		cfg.CheckpointEvery = 1
		cfg.Checkpoint = func(s *Snapshot) error {
			if snap == nil && len(s.Queues) > 0 && (cfg.Immunize == nil || s.Removed > 0) {
				snap = s
			}
			return nil
		}
		eng, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		eng.Run()
		if snap == nil {
			f.Fatalf("%s: no snapshot with queued packets", name)
		}
		file, err := snap.Encode()
		if err != nil {
			f.Fatal(err)
		}
		payload, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		// The sealed seed must restore cleanly, or the payload form
		// would fuzz nothing past the envelope.
		sealed, _ := sealSnapshot(payload)
		decoded, err := DecodeSnapshot(sealed)
		if err != nil {
			f.Fatalf("%s: sealed payload: %v", name, err)
		}
		if _, err := Restore(configs[i], decoded); err != nil {
			f.Fatalf("%s: restore sealed payload: %v", name, err)
		}
		f.Add(file)
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readSnapshot(t, configs, data)
		if file, ok := sealSnapshot(data); ok {
			readSnapshot(t, configs, file)
		}
	})
}

// readSnapshot decodes data and restores it into every config,
// failing on any error that does not match ErrSnapshot.
func readSnapshot(t *testing.T, configs []Config, data []byte) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("DecodeSnapshot error does not match ErrSnapshot: %v", err)
		}
		return
	}
	for _, cfg := range configs {
		if _, err := Restore(cfg, snap); err != nil && !errors.Is(err, ErrSnapshot) {
			t.Fatalf("Restore error does not match ErrSnapshot: %v", err)
		}
	}
}

// sealSnapshot wraps payload in a current-version envelope with a
// matching checksum; ok is false when payload is not valid JSON. The
// envelope is assembled by hand because json.Marshal would compact and
// re-escape the payload, breaking the checksum.
func sealSnapshot(payload []byte) ([]byte, bool) {
	if !json.Valid(payload) {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	head := fmt.Sprintf(`{"format":%q,"version":%d,"sha256":%q,"payload":`,
		snapshotFormat, SnapshotVersion, hex.EncodeToString(sum[:]))
	return append(append([]byte(head), payload...), '}'), true
}
