package pftk

// Facade-level multi-flow tests: the lockstep oracle (disjoint flows
// reproduce independent single-flow runs byte for byte), the
// WithTransfer pins, and the guarantee that single-flow results carry
// no multi-flow or transfer fields.

import "testing"

// TestLockstepOracle runs N flows on disjoint paths inside ONE engine
// and checks each is byte-identical to the same flow run alone through
// the single-flow facade: sharing an event queue must not perturb
// anything. This is the oracle that licenses the multi-flow engine's
// construction — any cross-flow state leak breaks it.
func TestLockstepOracle(t *testing.T) {
	flows := []Flow{
		{LossRate: 0.02, Wm: 32, Seed: 101},
		{Variant: "tahoe", LossRate: 0.05, Wm: 16, MinRTO: 0.5, Seed: 102},
		{LossRate: 0.01, BurstDur: 0.15, Wm: 64, AckEvery: 1, Seed: 103},
	}
	const dur = 120
	multi := Sim(WithFlows(flows...), WithDuration(dur))
	if len(multi.FlowResults) != len(flows) {
		t.Fatalf("FlowResults = %d, want %d", len(multi.FlowResults), len(flows))
	}

	for i, f := range flows {
		solo := Sim(
			WithOS(f.Variant),
			WithBurstLoss(f.LossRate, f.BurstDur),
			WithWindow(f.Wm),
			WithMinRTO(f.MinRTO),
			WithDelayedACKs(f.AckEvery),
			WithSeed(f.Seed),
			WithDuration(dur),
		)
		got := multi.FlowResults[i].Result
		if len(got.Trace) != len(solo.Trace) {
			t.Fatalf("flow %d: trace length %d, solo %d", i, len(got.Trace), len(solo.Trace))
		}
		for j := range got.Trace {
			if got.Trace[j] != solo.Trace[j] {
				t.Fatalf("flow %d: trace diverges at %d: %v vs %v",
					i, j, got.Trace[j], solo.Trace[j])
			}
		}
		if got.Stats != solo.Stats {
			t.Errorf("flow %d: stats %+v, solo %+v", i, got.Stats, solo.Stats)
		}
		if got.Delivered != solo.Delivered {
			t.Errorf("flow %d: delivered %d, solo %d", i, got.Delivered, solo.Delivered)
		}
	}
}

// TestTransferPins pins the finite-transfer path: the completion times
// are the values the construction has produced since the seed (any
// drift means the transfer path's RNG or event order changed).
func TestTransferPins(t *testing.T) {
	cases := []struct {
		name     string
		opts     []SimOption
		deadline float64
		want     float64
	}{
		{"clean", []SimOption{WithPath(0.1), WithWindow(16), WithSeed(1)}, 120, 2.200000000000001},
		{"lossy", []SimOption{WithPath(0.1), WithLoss(0.05), WithWindow(16), WithMinRTO(1), WithSeed(2)}, 600, 9.799999999999995},
		{"burst", []SimOption{WithPath(0.1), WithBurstLoss(0.02, 0.15), WithWindow(16), WithMinRTO(1), WithSeed(3)}, 600, 9.899999999999997},
	}
	const n = 200
	for _, c := range cases {
		res := Sim(append(c.opts, WithTransfer(n, c.deadline))...)
		if res.TransferTime != c.want {
			t.Errorf("%s: TransferTime = %v, want %v", c.name, res.TransferTime, c.want)
		}
		if !res.TransferComplete {
			t.Errorf("%s: transfer did not complete (time %v)", c.name, res.TransferTime)
		}
		if res.Delivered < n {
			t.Errorf("%s: delivered %d < %d", c.name, res.Delivered, n)
		}
	}
}

// TestTransferDeadline: an impossible deadline reports non-completion
// and returns the deadline.
func TestTransferDeadline(t *testing.T) {
	res := Sim(WithPath(0.2), WithWindow(4), WithSeed(9), WithTransfer(10000, 5))
	if res.TransferComplete {
		t.Fatal("10000 packets through a 4-packet window in 5 s reported complete")
	}
	if res.TransferTime != 5 {
		t.Errorf("TransferTime = %v, want deadline 5", res.TransferTime)
	}
}

// TestSingleFlowResultShape: single-flow runs fill only the embedded
// Result — no multi-flow or transfer fields populated.
func TestSingleFlowResultShape(t *testing.T) {
	res := Sim(WithLoss(0.02), WithSeed(7), WithDuration(50))
	if len(res.Trace) == 0 {
		t.Fatal("single-flow run has an empty trace")
	}
	if res.Flows != nil || res.FlowResults != nil {
		t.Errorf("single-flow run populated Flows/FlowResults")
	}
	if res.Fairness.Jain != 0 || res.TransferTime != 0 || res.TransferComplete {
		t.Errorf("single-flow run populated multi-flow/transfer fields: %+v", res.Fairness)
	}
}

// TestWithFlowCountSharedBottleneck drives the symmetric fairness
// population through the public facade and checks the per-flow
// summaries and fairness aggregates are populated coherently.
func TestWithFlowCountSharedBottleneck(t *testing.T) {
	const n = 8
	res := Sim(
		WithPath(0.08),
		WithWindow(64),
		WithMinRTO(0.5),
		WithFlowCount(n),
		WithBottleneck(Bottleneck{Rate: 20 * n, QueueCap: 5 * n, OneWay: 0.04}),
		WithDuration(400),
		WithSeed(42),
	)
	if len(res.Flows) != n || len(res.FlowResults) != n {
		t.Fatalf("flows = %d/%d, want %d", len(res.Flows), len(res.FlowResults), n)
	}
	if res.Fairness.Jain < 0.9 {
		t.Errorf("jain = %v, want >= 0.9", res.Fairness.Jain)
	}
	if res.Fairness.Utilization < 0.5 {
		t.Errorf("utilization = %v, want >= 0.5", res.Fairness.Utilization)
	}
	for i, sum := range res.Flows {
		fr := res.FlowResults[i]
		if sum.PacketsSent == 0 {
			t.Errorf("flow %d: summary has no packets", i)
		}
		if sum.PacketsSent != fr.Result.Stats.PacketsSent+fr.Result.Stats.Retransmits {
			t.Errorf("flow %d: summary sent %d != stats %d+%d",
				i, sum.PacketsSent, fr.Result.Stats.PacketsSent, fr.Result.Stats.Retransmits)
		}
		if fr.P > 0 && fr.Predicted <= 0 {
			t.Errorf("flow %d: p=%v but no prediction", i, fr.P)
		}
	}
	// The embedded Result mirrors flow 0 for drop-in consumers.
	if res.Stats != res.FlowResults[0].Result.Stats {
		t.Errorf("embedded Result is not flow 0's")
	}
}

// TestUnknownVariantReportsReno: a flow naming an unknown variant runs
// Reno, and its result reports the variant that ran, not the name asked
// for.
func TestUnknownVariantReportsReno(t *testing.T) {
	run := func(variant string) SimResult {
		return Sim(WithFlows(Flow{Variant: variant, LossRate: 0.02}), WithDuration(60), WithSeed(5))
	}
	vegas, reno := run("vegas"), run("reno")
	if got := vegas.FlowResults[0].Variant; got != "reno" {
		t.Errorf("FlowResult.Variant = %q, want %q", got, "reno")
	}
	if len(vegas.Trace) != len(reno.Trace) || vegas.Stats != reno.Stats {
		t.Errorf("unknown variant did not run Reno: stats %+v vs %+v", vegas.Stats, reno.Stats)
	}
}
