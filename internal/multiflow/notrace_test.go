package multiflow

import (
	"math"
	"reflect"
	"testing"

	"pftk/internal/trace"
)

// traceMeanRTT is the reference MeanRTT: the average of the trace's
// Karn-filtered round samples, falling back to the propagation RTT when
// the flow never took a sample.
func traceMeanRTT(tr trace.Trace, fallback float64) float64 {
	var sum float64
	var n int
	for _, r := range tr {
		if r.Kind == trace.KindRoundSample {
			sum += r.Val
			n++
		}
	}
	if n == 0 {
		return fallback
	}
	return sum / float64(n)
}

// TestStreamingMeanRTTMatchesTrace checks that the MeanRTT Finish takes
// from the senders' running sums equals the trace average bit for bit,
// on a shared bottleneck and on disjoint paths, with a TFRC flow among
// the TCP ones.
func TestStreamingMeanRTTMatchesTrace(t *testing.T) {
	flows := []FlowSpec{
		{Variant: "reno", RTT: 0.08, Wm: 64, MinRTO: 0.5},
		{Variant: "reno", RTT: 0.12, Wm: 16, MinRTO: 0.5, LossRate: 0.02},
		{Variant: "tfrc", RTT: 0.08},
	}
	for _, tc := range []struct {
		name       string
		bottleneck Bottleneck
	}{
		{"shared", Bottleneck{Rate: 90, QueueCap: 20, OneWay: 0.04}},
		{"disjoint", Bottleneck{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(Config{Flows: flows, Bottleneck: tc.bottleneck, Duration: 100, Seed: 5})
			for i, f := range res.Flows {
				want := traceMeanRTT(f.Result.Trace, flows[i].RTT)
				if math.Float64bits(f.MeanRTT) != math.Float64bits(want) {
					t.Errorf("flow %d (%s): MeanRTT = %v, trace average %v", i, f.Variant, f.MeanRTT, want)
				}
				if f.Variant != "tfrc" && f.Result.Stats.RTTSamples == 0 {
					t.Errorf("flow %d (%s): no RTT samples; the check is vacuous", i, f.Variant)
				}
			}
		})
	}
}

// TestNoTraceMatchesTraced runs the 100-flow shared-bottleneck
// population with and without traces: apart from the traces, which must
// be empty, every per-flow and aggregate result is identical.
func TestNoTraceMatchesTraced(t *testing.T) {
	cfg := symmetricConfig(100, 100)
	traced := Run(cfg)
	cfg.NoTrace = true
	bare := Run(cfg)

	if len(bare.Flows) != len(traced.Flows) {
		t.Fatalf("flows = %d, want %d", len(bare.Flows), len(traced.Flows))
	}
	for i, f := range bare.Flows {
		if len(f.Result.Trace) != 0 {
			t.Fatalf("flow %d: %d trace records under NoTrace", i, len(f.Result.Trace))
		}
		want := traced.Flows[i]
		if len(want.Result.Trace) == 0 {
			t.Fatalf("flow %d: traced run recorded nothing", i)
		}
		want.Result.Trace = nil
		if !reflect.DeepEqual(f, want) {
			t.Errorf("flow %d differs without trace:\n got %+v\nwant %+v", i, f, want)
		}
	}
	if !reflect.DeepEqual(bare.Fairness, traced.Fairness) {
		t.Errorf("fairness differs without trace:\n got %+v\nwant %+v", bare.Fairness, traced.Fairness)
	}
}
