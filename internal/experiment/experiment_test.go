package experiment

import (
	"context"
	"math"
	"strings"
	"testing"
)

// quick returns fast options for tests: small populations, few runs.
func quickOpts() Options {
	return Options{Runs: 3, Quick: true}
}

func runFig(t *testing.T, id string, opt Options) *Result {
	t.Helper()
	res, err := RunContext(context.Background(), id, opt)
	if err != nil {
		t.Fatalf("RunContext(%q): %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID = %q, want %q", res.ID, id)
	}
	if len(res.Figure.Series) == 0 {
		t.Fatalf("%s: no series", id)
	}
	for i := range res.Figure.Series {
		if err := res.Figure.Series[i].Validate(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	return res
}

func TestRunUnknownID(t *testing.T) {
	if _, err := RunContext(context.Background(), "fig99", quickOpts()); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 26 {
		t.Fatalf("IDs = %d entries, want 26", len(ids))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{
		"fig1a", "fig10", "tbl-rates", "tbl-claims",
		"abl-targeting", "abl-queue", "abl-weights", "abl-patch",
		"abl-probe", "abl-topology", "abl-hybrid", "fault-detector",
		"collateral",
	} {
		if !seen[want] {
			t.Errorf("missing id %q", want)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	opt := Options{Runs: 2, Quick: true}
	t.Run("targeting", func(t *testing.T) {
		res := runFig(t, "abl-targeting", opt)
		if !(res.Metrics["t50_sequential"] > res.Metrics["t50_random"]) {
			t.Errorf("sequential %v should be slower than random %v",
				res.Metrics["t50_sequential"], res.Metrics["t50_random"])
		}
	})
	t.Run("queue", func(t *testing.T) {
		res := runFig(t, "abl-queue", opt)
		if !(res.Metrics["backlog_queue"] > res.Metrics["backlog_drop"]) {
			t.Errorf("queueing backlog %v should exceed dropping %v",
				res.Metrics["backlog_queue"], res.Metrics["backlog_drop"])
		}
	})
	t.Run("weights", func(t *testing.T) {
		res := runFig(t, "abl-weights", opt)
		u, w := res.Metrics["t50_uniform"], res.Metrics["t50_weighted"]
		if u <= 0 || w <= 0 {
			t.Errorf("t50s = %v / %v", u, w)
		}
	})
	t.Run("patch", func(t *testing.T) {
		res := runFig(t, "abl-patch", opt)
		if res.Metrics["final_patch_all"] >= 0.05 {
			t.Errorf("patch-all should extinguish: final %v", res.Metrics["final_patch_all"])
		}
		if res.Metrics["final_patch_susceptible_only"] <= 0.1 {
			t.Errorf("susceptible-only should stay endemic: final %v",
				res.Metrics["final_patch_susceptible_only"])
		}
	})
	t.Run("probe", func(t *testing.T) {
		res := runFig(t, "abl-probe", opt)
		if !(res.Metrics["t50_probe"] > res.Metrics["t50_direct"]) {
			t.Errorf("probe-first %v should be slower than direct %v",
				res.Metrics["t50_probe"], res.Metrics["t50_direct"])
		}
	})
	t.Run("topology", func(t *testing.T) {
		res := runFig(t, "abl-topology", opt)
		for _, k := range []string{"slowdown_ba", "slowdown_twolevel", "slowdown_hier"} {
			if v := res.Metrics[k]; !(v > 1) {
				t.Errorf("%s = %v, want > 1", k, v)
			}
		}
	})
	t.Run("hybrid", func(t *testing.T) {
		res := runFig(t, "abl-hybrid", opt)
		if res.Metrics["worm_hybrid"] != res.Metrics["worm_long"] {
			t.Errorf("hybrid worm clamp %v should equal long %v",
				res.Metrics["worm_hybrid"], res.Metrics["worm_long"])
		}
		if !(res.Metrics["stall_hybrid_ticks"] < res.Metrics["stall_long_ticks"]) {
			t.Error("hybrid should reduce the legitimate stall")
		}
	})
}

func TestFig1aShape(t *testing.T) {
	res := runFig(t, "fig1a", quickOpts())
	// Hub RL must reach 60% substantially later than 30% leaf RL.
	ratio := res.Metrics["hub_over_leaf30"]
	if !(ratio > 2 && ratio < 6) {
		t.Errorf("hub/leaf30 ratio = %v, want ~3", ratio)
	}
	// Ordering: noRL fastest.
	if !(res.Metrics["t60_noRL"] < res.Metrics["t60_leaf30"]) {
		t.Error("no-RL should be fastest")
	}
}

func TestFig1bShape(t *testing.T) {
	res := runFig(t, "fig1b", Options{Runs: 5})
	t10 := res.Metrics["t60_10% leaf nodes RL"]
	t0 := res.Metrics["t60_No RL"]
	t30 := res.Metrics["t60_30% leaf nodes RL"]
	thub := res.Metrics["t60_Hub node RL"]
	if t10 > 1.4*t0 {
		t.Errorf("10%% leaf RL should be negligible: %v vs %v", t10, t0)
	}
	if !(t30 > t0 && thub > 1.8*t30) {
		t.Errorf("ordering wrong: t0=%v t30=%v thub=%v", t0, t30, thub)
	}
}

func TestFig2Shape(t *testing.T) {
	res := runFig(t, "fig2", quickOpts())
	// Linear slowdown: q=80% is ~5x; q=100% is enormous.
	if s := res.Metrics["slowdown_q80"]; s < 3 || s > 8 {
		t.Errorf("slowdown at 80%% = %v, want ~5", s)
	}
	if s := res.Metrics["slowdown_q100"]; s < 20 {
		t.Errorf("slowdown at 100%% = %v, want >> 20", s)
	}
}

func TestFig3Shape(t *testing.T) {
	a := runFig(t, "fig3a", quickOpts())
	if !(a.Metrics["t50_subnets_RL"] > 5*a.Metrics["t50_subnets_noRL"]) {
		t.Errorf("edge RL should slow cross-subnet spread: %v vs %v",
			a.Metrics["t50_subnets_RL"], a.Metrics["t50_subnets_noRL"])
	}
	b := runFig(t, "fig3b", quickOpts())
	if !(b.Metrics["t50_within_random"] > 3*b.Metrics["t50_within_localpref"]) {
		t.Errorf("within-subnet: local-pref should be much faster: %v vs %v",
			b.Metrics["t50_within_localpref"], b.Metrics["t50_within_random"])
	}
}

func TestFig4Shape(t *testing.T) {
	res := runFig(t, "fig4", Options{Runs: 3})
	host := res.Metrics["host5_over_noRL"]
	edge := res.Metrics["edge_over_noRL"]
	bb := res.Metrics["backbone_over_noRL"]
	if host > 1.3 {
		t.Errorf("5%% host RL should be negligible: %v", host)
	}
	if !(edge > 1.05 && edge < 2.5) {
		t.Errorf("edge RL should be a slight improvement: %v", edge)
	}
	if bb < 2.5 {
		t.Errorf("backbone RL should dominate (~5x): %v", bb)
	}
	if !(bb > edge && edge >= host*0.95) {
		t.Errorf("ordering wrong: host=%v edge=%v backbone=%v", host, edge, bb)
	}
}

func TestFig5Shape(t *testing.T) {
	res := runFig(t, "fig5", Options{Runs: 3})
	random := res.Metrics["random_slowdown"]
	local := res.Metrics["localpref_slowdown"]
	if random < 1.1 {
		t.Errorf("edge RL should slow random worms: %v", random)
	}
	if local > random {
		t.Errorf("edge RL should help less against local-pref: local=%v random=%v", local, random)
	}
}

func TestFig6Shape(t *testing.T) {
	res := runFig(t, "fig6", Options{Runs: 3})
	h30 := res.Metrics["host30_over_noRL"]
	bb := res.Metrics["backbone_over_noRL"]
	if h30 > 1.6 {
		t.Errorf("30%% host RL should be near-negligible: %v", h30)
	}
	if bb < 2 {
		t.Errorf("backbone RL should be substantially better: %v", bb)
	}
}

func TestFig7Shape(t *testing.T) {
	a := runFig(t, "fig7a", quickOpts())
	e20 := a.Metrics["ever_start20"]
	e50 := a.Metrics["ever_start50"]
	e80 := a.Metrics["ever_start80"]
	if !(e20 < e50 && e50 < e80 && e80 <= 1) {
		t.Errorf("ever-infected should grow with delay: %v %v %v", e20, e50, e80)
	}
	if e20 < 0.5 || e20 > 0.95 {
		t.Errorf("20%%-start total = %v, paper ~0.80", e20)
	}
	b := runFig(t, "fig7b", quickOpts())
	if !(b.Metrics["ever_d6"] < b.Metrics["ever_d8"] &&
		b.Metrics["ever_d8"] < b.Metrics["ever_d10"]) {
		t.Error("fig7b ever-infected should grow with delay")
	}
	// RL + the same wall-clock delay beats the no-RL totals of fig7a.
	if !(b.Metrics["ever_d6"] < e20) {
		t.Errorf("rate limiting should reduce total infected: %v vs %v",
			b.Metrics["ever_d6"], e20)
	}
}

func TestFig8Shape(t *testing.T) {
	a := runFig(t, "fig8a", Options{Runs: 3})
	e20 := a.Metrics["ever_Immunization at 20%"]
	e50 := a.Metrics["ever_Immunization at 50%"]
	e80 := a.Metrics["ever_Immunization at 80%"]
	none := a.Metrics["ever_No immunization"]
	if !(e20 < e50 && e50 < e80 && e80 <= none) {
		t.Errorf("ordering wrong: %v %v %v none=%v", e20, e50, e80, none)
	}
	if none < 0.98 {
		t.Errorf("no immunization should infect ~everyone: %v", none)
	}
	b := runFig(t, "fig8b", Options{Runs: 3})
	// Backbone RL lowers the 20%-tick total below fig8a's 20% total.
	if !(b.Metrics["ever_Immunization at 20%-tick"] < e20) {
		t.Errorf("RL should lower total infected: %v vs %v",
			b.Metrics["ever_Immunization at 20%-tick"], e20)
	}
}

func TestFig9Shape(t *testing.T) {
	a := runFig(t, "fig9a", quickOpts())
	// Refinements reduce the normal clients' 99.9% thresholds.
	if !(a.Metrics["p999_nonDNS"] <= a.Metrics["p999_noPrior"] &&
		a.Metrics["p999_noPrior"] <= a.Metrics["p999_all"]) {
		t.Errorf("refinements should be ordered: %v", a.Metrics)
	}
	b := runFig(t, "fig9b", quickOpts())
	if b.Metrics["p999_all"] < 20*a.Metrics["p999_all"] {
		t.Errorf("infected hosts should dwarf normal: %v vs %v",
			b.Metrics["p999_all"], a.Metrics["p999_all"])
	}
	// Worm traffic spikes all three metrics (lines are tight).
	if b.Metrics["p999_nonDNS"] < 0.9*b.Metrics["p999_all"] {
		t.Errorf("worm refinements should be tight: %v vs %v",
			b.Metrics["p999_nonDNS"], b.Metrics["p999_all"])
	}
	if !b.Figure.LogX {
		t.Error("fig9 should use a log x axis")
	}
}

func TestFig10Shape(t *testing.T) {
	res := runFig(t, "fig10", quickOpts())
	noRL := res.Metrics["t50_noRL"]
	host := res.Metrics["t50_host"]
	ip := res.Metrics["t50_ip"]
	dns := res.Metrics["t50_dns"]
	if !(noRL < host && host < ip && ip < dns) {
		t.Errorf("ordering wrong: noRL=%v host=%v ip=%v dns=%v", noRL, host, ip, dns)
	}
	if !res.Figure.LogX {
		t.Error("fig10 should use a log x axis")
	}
}

func TestTableRates(t *testing.T) {
	res := runFig(t, "tbl-rates", quickOpts())
	m := res.Metrics
	// Refinement ordering for both classes.
	if !(m["normal_nonDNS"] <= m["normal_noPrior"] && m["normal_noPrior"] <= m["normal_all"]) {
		t.Errorf("normal refinement ordering: %v", m)
	}
	if !(m["p2p_all"] > m["normal_all"]) {
		t.Errorf("p2p should need higher limits: %v vs %v", m["p2p_all"], m["normal_all"])
	}
	// Per-host limits are small.
	if m["perhost_all"] > 6 || m["perhost_nonDNS"] > 3 {
		t.Errorf("per-host limits too high: %v / %v", m["perhost_all"], m["perhost_nonDNS"])
	}
	// Longer windows admit sublinear growth of the limit.
	w1, w5, w60 := m["window1s_nonDNS"], m["window5s_nonDNS"], m["window60s_nonDNS"]
	if !(w1 <= w5 && w5 <= w60) {
		t.Errorf("window limits should grow: %v %v %v", w1, w5, w60)
	}
	if w60 >= 60*w1 {
		t.Errorf("burstiness should make growth sublinear: %v vs %v", w60, 60*w1)
	}
}

func TestTableClaims(t *testing.T) {
	res := runFig(t, "tbl-claims", quickOpts())
	m := res.Metrics
	if m["peak_welchia_per_min"] < 4*m["peak_blaster_per_min"] {
		t.Errorf("welchia peak %v should dwarf blaster %v",
			m["peak_welchia_per_min"], m["peak_blaster_per_min"])
	}
	// Classification recovers the chatty classes almost exactly; normal
	// clients browse so rarely that many are silent in a short trace, so
	// only an upper bound holds there.
	for _, class := range []string{"server", "p2p", "infected"} {
		got := m["classified_"+class]
		want := m["truth_"+class]
		if math.Abs(got-want) > 0.25*want+2 {
			t.Errorf("class %s: classified %v vs truth %v", class, got, want)
		}
	}
	if got, want := m["classified_normal"], m["truth_normal"]; got > want || got == 0 {
		t.Errorf("classified normal = %v, want in (0, %v]", got, want)
	}
}

func TestFiguresRenderable(t *testing.T) {
	// Every analytic figure must render to ASCII and .dat without error.
	for _, id := range []string{"fig1a", "fig2", "fig3a", "fig3b", "fig7a", "fig7b", "fig10"} {
		res := runFig(t, id, quickOpts())
		if _, err := res.Figure.RenderASCII(72, 16); err != nil {
			t.Errorf("%s: render: %v", id, err)
		}
		var b strings.Builder
		if err := res.Figure.WriteDat(&b); err != nil {
			t.Errorf("%s: dat: %v", id, err)
		}
		if b.Len() == 0 {
			t.Errorf("%s: empty dat", id)
		}
	}
}
