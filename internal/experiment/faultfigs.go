package experiment

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/worm"
)

// FaultDetector regenerates the robustness extension figure: how much
// containment the dynamic-quarantine defense loses as its detector
// degrades. The paper assumes the trigger observes the worm perfectly
// (modulo the fixed deployment delay); here the detector's errors are
// swept through the fault-injection harness instead.
//
// Scenario: the shared 1000-node power-law graph with backbone node
// caps gated by the dynamic quarantine trigger (infection level 5%,
// deployment delay 2 ticks) plus reactive immunization starting when
// the infection reaches 20% — the combination of Sections 5.3 and 6,
// which is the configuration whose final ever-infected fraction is
// sensitive to *when* the rate limits come up. Two error modes are
// swept over the same grid:
//
//   - Missed detections: each tick whose infection level genuinely
//     crosses the trigger threshold goes unreported with probability
//     e, geometrically delaying activation. Containment should decay
//     monotonically with e.
//   - False alarms: each armed tick fires the trigger spuriously with
//     probability e, activating the defense *earlier* than the genuine
//     signal. Containment should improve (bounded by the always-on
//     defense) — false alarms cost deployment disruption, not
//     containment, which is why the paper argues a quarantine defense
//     can afford an aggressive detector.
//
// Each grid point averages Options.Runs replicas; replica r uses fault
// seed seed+r (sim.MultiRun derives it), so the sweep is exactly
// reproducible.
func FaultDetector(ctx context.Context, opt Options) (*Result, error) {
	g, roles, _, err := powerLawTopology(opt)
	if err != nil {
		return nil, err
	}
	ticks := 150
	if opt.Quick {
		ticks = 100
	}
	base := sim.Config{
		Graph: g, Roles: roles, Beta: simBeta, Strategy: worm.NewRandomFactory(),
		InitialInfected: 5, Ticks: ticks, Seed: opt.seed(),
		ScansPerTick: congestedScans, MaxQueue: dropTailQueue,
		NodeCaps:   backboneCaps(roles, 40),
		Quarantine: &sim.Quarantine{TriggerLevel: 0.05, Delay: 2},
		Immunize:   &sim.Immunization{StartTick: -1, StartLevel: 0.2, Mu: immunizeMu},
	}
	errRates := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.95}

	sweep := func(label string, profile func(e float64) *fault.Profile) (plot.Series, error) {
		s := plot.Series{Label: label, X: make([]float64, 0, len(errRates)), Y: make([]float64, 0, len(errRates))}
		for _, e := range errRates {
			cfg := base
			cfg.Faults = profile(e)
			res, err := opt.multiRun(ctx, cfg)
			if err != nil {
				return plot.Series{}, fmt.Errorf("%s at %v: %w", label, e, err)
			}
			s.X = append(s.X, e)
			s.Y = append(s.Y, res.FinalEverInfected())
		}
		return s, nil
	}

	miss, err := sweep("Missed detections", func(e float64) *fault.Profile {
		if e == 0 {
			return nil
		}
		return &fault.Profile{Seed: opt.seed(), MissRate: e}
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: fault-detector: %w", err)
	}
	falseAlarm, err := sweep("False alarms", func(e float64) *fault.Profile {
		if e == 0 {
			return nil
		}
		return &fault.Profile{Seed: opt.seed(), FalseAlarmPerTick: e}
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: fault-detector: %w", err)
	}

	// Reference: the same epidemic with no quarantine defense at all —
	// the containment floor a totally blind detector degrades toward.
	open := base
	open.NodeCaps = nil
	open.Quarantine = nil
	openRes, err := opt.multiRun(ctx, open)
	if err != nil {
		return nil, fmt.Errorf("experiment: fault-detector undefended: %w", err)
	}

	fig := plot.Figure{
		Title:  "Containment vs detector error rate (quarantined backbone RL + immunization)",
		XLabel: "detector error rate",
		YLabel: "final fraction ever infected",
		Series: []plot.Series{miss, falseAlarm},
	}
	metrics := map[string]float64{
		"ever_perfect":    miss.Y[0],
		"ever_miss95":     miss.Y[len(miss.Y)-1],
		"ever_falsealarm": falseAlarm.Y[len(falseAlarm.Y)-1],
		"ever_undefended": openRes.FinalEverInfected(),
	}
	if metrics["ever_perfect"] > 0 {
		metrics["miss95_over_perfect"] = metrics["ever_miss95"] / metrics["ever_perfect"]
	}
	return &Result{
		ID:      "fault-detector",
		Paper:   "Extension: missed detections erode containment toward the undefended total; false alarms only improve it",
		Figure:  fig,
		Metrics: metrics,
	}, nil
}
