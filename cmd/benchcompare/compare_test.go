package main

import (
	"strings"
	"testing"
)

const oldRun = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineTickScale/hosts=1000-8             	       1	   4607740 ns/op	    3284 B/host	  460774 ns/tick	  7740 peakRSS-KB
BenchmarkEngineTickScale/hosts=10000-8            	       1	  13100070 ns/op	   184.4 B/host	 1310007 ns/tick	  5988 peakRSS-KB
BenchmarkEngineTickScale/hosts=10000-8            	       1	  12900070 ns/op	   184.4 B/host	 1290007 ns/tick	  5988 peakRSS-KB
BenchmarkEngineTickScale/hosts=10000-8            	       1	  12800070 ns/op	   184.4 B/host	 1280007 ns/tick	  5988 peakRSS-KB
PASS
`

func newRun(nsPerTick10k string) string {
	return `BenchmarkEngineTickScale/hosts=1000-2             	       1	   4600000 ns/op	    3284 B/host	  460000 ns/tick	  7740 peakRSS-KB
BenchmarkEngineTickScale/hosts=10000-2            	       1	  13000000 ns/op	   184.4 B/host	 ` + nsPerTick10k + ` ns/tick	  5988 peakRSS-KB
ok  	repro/internal/sim	1.0s
`
}

func TestCompareWithinThreshold(t *testing.T) {
	// +~0.8% on the gated metric: well inside the 15% budget.
	report, failures, err := Compare(
		ParseBench([]byte(oldRun)), ParseBench([]byte(newRun("1300000"))),
		"ns/tick", "hosts=10000", 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if !strings.Contains(report, "hosts=10000") || !strings.Contains(report, "ns/tick") {
		t.Errorf("report missing gated row:\n%s", report)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	// 1290007 -> 1600000 is a +24% regression on the gated metric.
	report, failures, err := Compare(
		ParseBench([]byte(oldRun)), ParseBench([]byte(newRun("1600000"))),
		"ns/tick", "hosts=10000", 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("want 1 failure, got %v", failures)
	}
	if !strings.Contains(failures[0], "hosts=10000") || !strings.Contains(failures[0], "threshold") {
		t.Errorf("failure message %q does not name the gate", failures[0])
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("report does not mark the failing row:\n%s", report)
	}
}

func TestCompareIgnoresUngatedMetrics(t *testing.T) {
	// A large swing on an ungated unit (B/host at 1k hosts) must not
	// fail the gate.
	doctored := strings.Replace(newRun("1300000"), "3284 B/host", "9999 B/host", 1)
	_, failures, err := Compare(
		ParseBench([]byte(oldRun)), ParseBench([]byte(doctored)),
		"ns/tick", "hosts=10000", 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("ungated metric failed the gate: %v", failures)
	}
}

func TestCompareMedianAbsorbsOutlier(t *testing.T) {
	// Three old samples (1.31ms, 1.29ms, 1.28ms; median 1.29ms): a new
	// median at 1.29ms passes even though the old max would not.
	s := ParseBench([]byte(oldRun))
	if got := len(s["BenchmarkEngineTickScale/hosts=10000"]["ns/tick"]); got != 3 {
		t.Fatalf("parsed %d repetitions, want 3", got)
	}
	if m := median(s["BenchmarkEngineTickScale/hosts=10000"]["ns/tick"]); m != 1290007 {
		t.Fatalf("median = %v, want 1290007", m)
	}
}

func TestCompareErrorsOnDisjointFiles(t *testing.T) {
	other := `BenchmarkSomethingElse-8 	 1	 100 ns/op
`
	if _, _, err := Compare(ParseBench([]byte(oldRun)), ParseBench([]byte(other)),
		"ns/tick", "hosts=10000", 15); err == nil {
		t.Fatal("disjoint files should error, not silently pass")
	}
}

func TestCompareErrorsWhenGateMatchesNothing(t *testing.T) {
	if _, _, err := Compare(ParseBench([]byte(oldRun)), ParseBench([]byte(newRun("1300000"))),
		"ns/tick", "hosts=31337", 15); err == nil {
		t.Fatal("unmatched gate should error, not silently pass")
	}
}

func TestParseStripsProcsSuffix(t *testing.T) {
	s := ParseBench([]byte(oldRun))
	for name := range s {
		if strings.HasSuffix(name, "-8") {
			t.Errorf("procs suffix not stripped from %q", name)
		}
	}
}
