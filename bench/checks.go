package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// digests names the SHA-256 of each simulated output of one pass.
type digests map[string]string

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// diffDigests describes every output whose digest differs between want
// and got, including outputs only one side has.
func diffDigests(want, got digests) []string {
	var out []string
	for k, w := range want {
		if g, ok := got[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing", k))
		} else if g != w {
			out = append(out, fmt.Sprintf("%s: %.12s, want %.12s", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("%s: unexpected output", k))
		}
	}
	sort.Strings(out)
	return out
}

// expectedFile maps workload -> output -> digest for one seed.
type expectedFile map[string]digests

// readExpected loads the checked-in digests; a missing file is empty.
func readExpected(path string) (expectedFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return expectedFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// writeExpected records one workload's digests, keeping the others.
func writeExpected(path, workload string, d digests) error {
	e, err := readExpected(path)
	if err != nil {
		return err
	}
	e[workload] = d
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splitSeries cuts wormsim's single-scenario output into the per-tick
// series (header and rows) and the summary footer (the "# t50=" line
// and the counter lines after it).
func splitSeries(out []byte) (series, footer []byte, err error) {
	i := bytes.Index(out, []byte("\n# t50="))
	if !bytes.HasPrefix(out, []byte("# tick\t")) || i < 0 {
		return nil, nil, fmt.Errorf("wormsim output is not a series with a summary footer")
	}
	return out[:i+1], out[i+1:], nil
}

// footerCounters parses the key=value fields of a wormsim footer.
func footerCounters(footer []byte) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(string(footer), "\n") {
		for _, f := range strings.Fields(strings.TrimPrefix(line, "#")) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				m[k] = x
			}
		}
	}
	return m
}

// checkCollateral holds the footer of a trace-replay run to the
// inequality every limiter obeys: it cannot throttle more benign
// contacts than the workload offered.
func checkCollateral(footer []byte) []string {
	c := footerCounters(footer)
	bc, okC := c["benign"]
	bt, okT := c["benign_throttled"]
	switch {
	case !okC || !okT:
		return []string{"collateral footer lacks benign counters"}
	case bc <= 0:
		return []string{"trace replay offered no benign contacts"}
	case bt > bc:
		return []string{fmt.Sprintf("benign_throttled %v > benign_contacts %v", bt, bc)}
	}
	return nil
}

// checkFigureShapes asserts the paper's qualitative results on the
// regenerated figures' metrics — the orderings internal/experiment's
// tests pin, without their fidelity-specific thresholds, so they hold
// on any seed.
func checkFigureShapes(m map[string]map[string]float64) []string {
	var bad []string
	need := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	f1 := m["fig1b"]
	need(f1["t60_30% leaf nodes RL"] > f1["t60_No RL"] && f1["t60_Hub node RL"] > f1["t60_30% leaf nodes RL"],
		"fig1b: want no RL < 30%% leaf RL < hub RL in t60, got %v %v %v",
		f1["t60_No RL"], f1["t60_30% leaf nodes RL"], f1["t60_Hub node RL"])
	f4 := m["fig4"]
	need(f4["backbone_over_noRL"] > f4["edge_over_noRL"] && f4["backbone_over_noRL"] > f4["host5_over_noRL"],
		"fig4: want backbone slowdown above edge and host, got backbone=%v edge=%v host=%v",
		f4["backbone_over_noRL"], f4["edge_over_noRL"], f4["host5_over_noRL"])
	f5 := m["fig5"]
	need(f5["random_slowdown"] > f5["localpref_slowdown"],
		"fig5: want edge RL to slow random worms more than local-pref, got random=%v local=%v",
		f5["random_slowdown"], f5["localpref_slowdown"])
	f6 := m["fig6"]
	need(f6["backbone_over_noRL"] > f6["host30_over_noRL"],
		"fig6: want backbone slowdown above 30%% host RL, got backbone=%v host=%v",
		f6["backbone_over_noRL"], f6["host30_over_noRL"])
	a, b := m["fig8a"], m["fig8b"]
	e20, e50, e80 := a["ever_Immunization at 20%"], a["ever_Immunization at 50%"], a["ever_Immunization at 80%"]
	need(e20 < e50 && e50 < e80 && e80 <= a["ever_No immunization"],
		"fig8a: want ever-infected 20%% < 50%% < 80%% <= none, got %v %v %v %v",
		e20, e50, e80, a["ever_No immunization"])
	need(b["ever_Immunization at 20%-tick"] < e20,
		"fig8b: want backbone RL to lower the 20%%-tick total below fig8a's, got %v vs %v",
		b["ever_Immunization at 20%-tick"], e20)
	return bad
}
