package pftk

import (
	"math"
	"reflect"
	"testing"

	"pftk/internal/core"
)

// TestAnalyzeEmbedsEvents pins the unified Analyze surface: the Summary
// carries the loss events it was built from, and the ground-truth option
// switches pipelines.
func TestAnalyzeEmbedsEvents(t *testing.T) {
	res := Sim(WithPath(0.1), WithLoss(0.03), WithWindow(16), WithDuration(300), WithSeed(9), WithMinRTO(1))
	sum := Analyze(res.Trace)
	if len(sum.Events) == 0 {
		t.Fatal("Summary.Events empty on a lossy trace")
	}
	if sum.LossIndications != len(sum.Events) {
		t.Errorf("LossIndications = %d but len(Events) = %d", sum.LossIndications, len(sum.Events))
	}
	gt := Analyze(res.Trace, WithGroundTruth())
	if len(gt.Events) == 0 {
		t.Fatal("ground-truth events empty")
	}
	// The inferred pipeline reconstructs approximately what the oracle
	// records; they need not match exactly but must be the same order of
	// magnitude.
	ratio := float64(len(sum.Events)) / float64(len(gt.Events))
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("inferred/ground-truth event ratio %g out of range", ratio)
	}
}

// TestScenarioStepLoss runs the bundled-style nonstationary scenario —
// a step change in loss rate at T/2 — end to end and checks that
// per-interval Analyze p-estimates track the scheduled phases.
func TestScenarioStepLoss(t *testing.T) {
	const T = 1000.0
	sc := &Scenario{
		Name: "step-loss",
		Phases: []Phase{
			{At: T / 2, Loss: &LossSpec{Rate: 0.08}},
		},
	}
	var phases []PhaseStat
	res := Sim(
		WithPath(0.1),
		WithLoss(0.01),
		WithWindow(64),
		WithMinRTO(1),
		WithDuration(T),
		WithSeed(42),
		WithScenario(sc),
		WithPhaseStats(&phases),
	)
	sum := Analyze(res.Trace)
	ivs := Intervals(res.Trace, sum.Events, 100)
	if len(ivs) != 10 {
		t.Fatalf("intervals = %d, want 10", len(ivs))
	}
	var loP, hiP []float64
	for i, iv := range ivs {
		if i < 5 {
			loP = append(loP, iv.P())
		} else {
			hiP = append(hiP, iv.P())
		}
	}
	meanLo, meanHi := mean(loP), mean(hiP)
	if !(meanHi > 3*meanLo) {
		t.Errorf("step not visible: mean p %g before vs %g after T/2", meanLo, meanHi)
	}
	if meanLo > 0.04 || meanHi < 0.04 {
		t.Errorf("interval p estimates off the scheduled phases: lo %g hi %g", meanLo, meanHi)
	}

	if len(phases) != 2 {
		t.Fatalf("phase stats = %v, want base + step", phases)
	}
	baseSeg, stepSeg := phases[0], phases[1]
	if baseSeg.End != T/2 || stepSeg.Start != T/2 {
		t.Errorf("phase boundary not at T/2: %v | %v", baseSeg, stepSeg)
	}
	baseLoss := float64(baseSeg.Dropped) / float64(baseSeg.Offered)
	stepLoss := float64(stepSeg.Dropped) / float64(stepSeg.Offered)
	if baseLoss > 0.02 || math.Abs(stepLoss-0.08) > 0.02 {
		t.Errorf("per-phase drop rates %g / %g, want ~0.01 / ~0.08", baseLoss, stepLoss)
	}
}

// TestScenarioRunReproducible pins byte-identical traces across repeated
// scenario runs with a held seed.
func TestScenarioRunReproducible(t *testing.T) {
	run := func() SimResult {
		sc := &Scenario{
			Phases: []Phase{{At: 100, Loss: &LossSpec{Rate: 0.05}}},
			Faults: []Fault{{Kind: "outage", Start: 50, Dur: 3}},
		}
		return Sim(WithPath(0.1), WithLoss(0.01), WithWindow(32), WithDuration(200), WithSeed(7), WithScenario(sc))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("scenario runs with identical seeds produced different traces")
	}
}

// TestTDOnlyDefaultingInCore pins the relocated b-defaulting: core gets
// an unset b and must apply DefaultB itself, identically to the facade.
func TestTDOnlyDefaultingInCore(t *testing.T) {
	want := core.SendRateTDOnly(0.02, 0.2, 2)
	if got := core.SendRateTDOnly(0.02, 0.2, 0); got != want {
		t.Errorf("core b=0: got %g, want %g (DefaultB applied)", got, want)
	}
	if got := SendRateTDOnly(0.02, Params{RTT: 0.2, T0: 2}); got != want {
		t.Errorf("facade B unset: got %g, want %g", got, want)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestSimResultAnalyzeUsesSenderDupThreshold checks that a Sim result
// analyzes at its own sender's fast-retransmit threshold: 2 for linux,
// the default 3 for reno, and each flow's own in multi-flow summaries.
func TestSimResultAnalyzeUsesSenderDupThreshold(t *testing.T) {
	samePS := func(a, b Summary) bool { return !(a.P < b.P || a.P > b.P) }
	linux := Sim(WithOS("linux"), WithLoss(0.03), WithWindow(32), WithDuration(300), WithSeed(11))
	if linux.DupThreshold != 2 {
		t.Fatalf("linux DupThreshold = %d, want 2", linux.DupThreshold)
	}
	two, three := Analyze(linux.Trace, WithDupThreshold(2)), Analyze(linux.Trace)
	if samePS(two, three) {
		t.Fatalf("trace does not tell the thresholds apart: p = %v at 2 and 3", two.P)
	}
	if got := linux.Analyze(); !samePS(got, two) {
		t.Errorf("linux Analyze p = %v, want %v (threshold 2)", got.P, two.P)
	}
	if got := linux.Analyze(WithDupThreshold(3)); !samePS(got, three) {
		t.Errorf("explicit WithDupThreshold(3) p = %v, want %v", got.P, three.P)
	}
	if reno := Sim(WithLoss(0.03), WithDuration(60), WithSeed(11)); reno.DupThreshold != 3 {
		t.Errorf("reno DupThreshold = %d, want 3", reno.DupThreshold)
	}

	multi := Sim(WithFlows(
		Flow{Variant: "linux", RTT: 0.1, LossRate: 0.03},
		Flow{Variant: "reno", RTT: 0.1, LossRate: 0.03},
		Flow{Variant: "tfrc", RTT: 0.1},
	), WithDuration(300), WithSeed(11))
	if multi.DupThreshold != 2 {
		t.Errorf("multi-flow DupThreshold = %d, want flow 0's 2", multi.DupThreshold)
	}
	for i, th := range []int{2, 3} {
		want := Analyze(multi.FlowResults[i].Result.Trace, WithDupThreshold(th))
		if !samePS(multi.Flows[i], want) {
			t.Errorf("flow %d summary p = %v, want %v (threshold %d)", i, multi.Flows[i].P, want.P, th)
		}
	}
}
