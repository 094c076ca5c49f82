package chaos

import (
	"testing"

	"pftk"
	"pftk/internal/core"
)

// TestModelEnvelopeUsesVariantDupThreshold checks that the model
// envelope infers loss events at the case's own fast-retransmit
// threshold: a linux sender retransmits after two duplicate ACKs, so
// its p must come from a threshold-2 analysis, not the default 3.
func TestModelEnvelopeUsesVariantDupThreshold(t *testing.T) {
	c := Case{Seed: 11, RTT: 0.1, LossRate: 0.03, Wm: 32, MinRTO: 1, Duration: 300, Variant: "linux", AckEvery: 2}
	rd, vio := execute(c)
	if vio != nil {
		t.Fatalf("case failed to run: %+v", vio)
	}
	var out Outcome
	checkModelEnvelope(&out, c, rd, Envelope{ModelErrorFactor: 1e9, MinLossIndications: 1})

	two := pftk.Analyze(rd.res.Trace, pftk.WithDupThreshold(2))
	three := pftk.Analyze(rd.res.Trace)
	if !(two.P > 0) || !(two.P < three.P || two.P > three.P) {
		t.Fatalf("trace does not tell the thresholds apart: p = %v at 2, %v at 3", two.P, three.P)
	}
	want := core.SendRateFull(two.P, core.Params{RTT: two.MeanRTT, T0: two.MeanT0, Wm: float64(c.Wm), B: c.AckEvery})
	if out.Predicted < want || out.Predicted > want {
		t.Errorf("envelope predicted %v pkt/s, want %v (the threshold-2 analysis)", out.Predicted, want)
	}
}
