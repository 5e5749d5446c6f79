package spec_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"testing"

	"repro/internal/spec"
)

// A dynamically quarantined backbone deployment with delayed patching,
// averaged over ten replicas, next to the paper's closed form.
func ExampleCompiled_Run() {
	s := &spec.Spec{
		Format:   spec.Format,
		Version:  spec.Version,
		Topology: spec.Topology{Kind: "powerlaw", Nodes: 300},
		Worm:     spec.Worm{Kind: "random", Beta: 0.8, ScansPerTick: 10}, // β = 0.8
		Defenses: []spec.Defense{{Kind: "backbone", Rate: 0.4}},          // packets/tick per core link
		Immunize: &spec.Immunize{StartLevel: 0.2, Mu: 0.05},
		// Make the defense *dynamic* (the title scenario): limits engage
		// only once a tick carries >= 100 worm packets, two ticks later.
		Quarantine: &spec.Quarantine{TriggerScansPerTick: 100, Delay: 2},
		Ticks:      100,
		Run: &spec.Run{
			Runs:    10,
			Jobs:    4,    // worker count (0 = GOMAXPROCS)
			Timeout: "2m", // abort the batch past this deadline
		},
	}
	c, err := s.Compile(nil) // lowers and validates the scenario, once
	if err != nil {
		log.Fatal(err)
	}
	res, stats, err := c.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	m, err := s.Model() // the paper's matching closed form
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated, %d runs: %.0f%% ever infected, %.0f%% at tick 100\n",
		stats.Completed, 100*res.FinalEverInfected(), 100*res.FinalInfected())
	fmt.Printf("model: %.0f%% infected at tick 100\n", 100*m.Fraction(100))
	// Output:
	// simulated, 10 runs: 68% ever infected, 1% at tick 100
	// model: 1% infected at tick 100
}

// TestReadmeLibrarySnippet keeps README's library snippet the code
// ExampleCompiled_Run compiles and runs: the README block must equal
// the example's body up to its Output comment, dedented one level with
// tabs written as four spaces.
func TestReadmeLibrarySnippet(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, snippet, ok := strings.Cut(string(readme), "```go\nimport \"repro/internal/spec\"\n\n")
	snippet, _, ok2 := strings.Cut(snippet, "```\n")
	_, body, ok3 := strings.Cut(string(src), "func ExampleCompiled_Run() {\n")
	body, _, ok4 := strings.Cut(body, "\t// Output:")
	if !ok || !ok2 || !ok3 || !ok4 {
		t.Fatal("README library snippet or ExampleCompiled_Run body not found")
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		line = strings.TrimPrefix(line, "\t")
		want.WriteString(strings.ReplaceAll(line, "\t", "    "))
	}
	if snippet != want.String() {
		t.Errorf("README library snippet differs from ExampleCompiled_Run:\n%s\nwant:\n%s", snippet, want.String())
	}
}
