package pftk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// simPinCase is one row of the Sim pin matrix: a configuration and the
// SHA-256 of everything the run lets a caller observe.
type simPinCase struct {
	name string
	opts []SimOption
	want string
}

// simPinMatrix covers every execution mode Sim has: saturated single
// flows (zero config, both loss families, all five variants, b = 1), a
// scenario-bearing run, finite transfers that complete or hit their
// deadline, and multi-flow runs over disjoint paths and shared
// drop-tail and RED bottlenecks.
func simPinMatrix(t *testing.T) []simPinCase {
	outage, err := ParseScenarioFile("examples/scenarios/outage.json")
	if err != nil {
		t.Fatal(err)
	}
	// The variant rows add a 20 s outage to Bernoulli loss so both the
	// fast-retransmit quirks and the backoff cap show in the trace.
	longOutage := &Scenario{Faults: []Fault{{Kind: "outage", Start: 50, Dur: 20}}}
	variant := func(v string) []SimOption {
		return []SimOption{WithPath(0.1), WithLoss(0.03), WithWindow(32), WithMinRTO(0.2), WithDuration(150),
			WithSeed(11), WithOS(v), WithScenario(longOutage)}
	}
	return []simPinCase{
		{"zero", nil,
			"e9c841603cb001a1112555127c2f8af4097212d4f41c34015790081ab62a6155"},
		{"bernoulli", []SimOption{WithPath(0.1), WithLoss(0.02), WithWindow(64), WithMinRTO(1), WithDuration(300), WithSeed(7)},
			"beeb31156ebe3d960dd7c3b84bf196d60c68e75104da42d010def46e9b9947d5"},
		{"burst", []SimOption{WithPath(0.2), WithBurstLoss(0.01, 0.2), WithWindow(16), WithDuration(200), WithSeed(5), WithMinRTO(1)},
			"da5b2c9c3f344c1358de1f97302151e8aead97b4158ff0224e96b6da7bcaba1e"},
		{"reno", variant("reno"), "d734b673044d9f33200cc33887e43f3a5508c564b3dde8280a8d7c96d5ad2a69"},
		{"tahoe", variant("tahoe"), "d6001ef3b09891354de953de0bee68b71381fa53ec8fcd4c7e3a1a5c27a4d306"},
		{"linux", variant("linux"), "081e758eaaf376c08b3d57984c2b7b716e7900f3d83a22da54793492b94b6949"},
		{"irix", variant("irix"), "ef37774fbd88b54e0ee85bd2544de50d39aa7c62e96d1638479c17c7115113f0"},
		{"newreno", variant("newreno"), "a7d4b0b29b0dfde802dd6cc31495efe414a024b08acafa2b60af3a0dff4a1e2f"},
		{"ack-every-1", []SimOption{WithPath(0.1), WithLoss(0.03), WithWindow(32), WithDuration(150), WithSeed(11), WithOS("linux"), WithDelayedACKs(1)},
			"229a310901524b8f6c9ea1ec780d4b69f9a2c51af89039237fd65a7e3c552439"},
		{"outage-scenario", []SimOption{WithPath(0.1), WithLoss(0.01), WithWindow(32), WithDuration(600), WithSeed(42), WithScenario(outage)},
			"52e79b62645fd62c9f388eb49be80d03a233f3454ad159b1b905c0a930974656"},
		{"transfer-complete", []SimOption{WithPath(0.1), WithLoss(0.05), WithWindow(16), WithMinRTO(1), WithSeed(2), WithTransfer(200, 600)},
			"6bcc206775a0a33ff6e37525be2acaf8cfaf5ee506aa8800faa16ed4dc341b0b"},
		{"transfer-deadline", []SimOption{WithPath(0.2), WithWindow(4), WithSeed(9), WithTransfer(10000, 5)},
			"b5bdef6f3bc25aebab9cf695b3040b2ea6060c7d53f021d82580970e305446f7"},
		{"flowcount-disjoint", []SimOption{WithPath(0.1), WithLoss(0.02), WithWindow(32), WithDuration(120), WithSeed(3), WithFlowCount(3)},
			"94a34ca60f5a3c7de18349309a0901fb382b7c55137e9da272ecc75ebd8e9394"},
		{"flows-mixed", []SimOption{
			WithFlows(
				Flow{LossRate: 0.02, Wm: 32},
				Flow{Variant: "tfrc", RTT: 0.08, LossRate: 0.01},
				Flow{Variant: "newreno", RTT: 0.15, LossRate: 0.01, BurstDur: 0.1, Start: 5},
			),
			WithDuration(120), WithSeed(4)},
			"08a6f5367afad9f310f514caba7d51798ddd82e291eb1ec45e3d115970b13be8"},
		{"shared-droptail", []SimOption{
			WithPath(0.08), WithMinRTO(0.5), WithFlowCount(4),
			WithBottleneck(Bottleneck{Rate: 80, QueueCap: 20, OneWay: 0.04}),
			WithDuration(200), WithSeed(42)},
			"e6362332e9cf825042069591f3384bee72268d1128424434cd9b31edbd0a6ab2"},
		{"shared-red", []SimOption{
			WithFlows(Flow{RTT: 0.08}, Flow{Variant: "tfrc", RTT: 0.08}, Flow{Variant: "tahoe", RTT: 0.12, Start: 2}),
			WithBottleneck(Bottleneck{Rate: 60, QueueCap: 30, OneWay: 0.04, RED: true}),
			WithDuration(200), WithSeed(8)},
			"951f1a0cf364d5214d32fbdbfb724117bbaa914bec0e986d870da160fc2068f8"},
	}
}

// TestSimPins hashes every observable output of Sim — trace, sender
// counters, delivery count, transfer outcome, per-flow results and
// summaries, fairness, phase attribution, link counters and the metric
// snapshot — over a matrix of configurations, and compares each digest
// with the value the simulator has produced since these pins were
// recorded. Every case attaches every sink, so the pins also hold the
// documented scope: multi-flow runs leave the single-flow sinks
// untouched. A changed digest means the simulated outcome changed.
func TestSimPins(t *testing.T) {
	for _, c := range simPinMatrix(t) {
		var (
			phases []PhaseStat
			links  PathStats
		)
		reg := NewRegistry()
		opts := append(append([]SimOption{}, c.opts...),
			WithPhaseStats(&phases), WithLinkStats(&links), WithObs(reg))
		res := Sim(opts...)
		if got := simDigest(res, phases, links, reg); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// simDigest hashes a run's observable outputs. %#v prints every field
// without going through String methods, so nothing is rounded away.
func simDigest(res SimResult, phases []PhaseStat, links PathStats, reg *Registry) string {
	h := sha256.New()
	put := func(format string, args ...any) { _, _ = fmt.Fprintf(h, format+"\n", args...) }
	put("result dur %#v stats %#v delivered %#v", res.Duration, res.Stats, res.Delivered)
	for _, r := range res.Trace {
		put("%#v", r)
	}
	put("transfer %#v %#v", res.TransferTime, res.TransferComplete)
	for _, fr := range res.FlowResults {
		put("flow %#v %#v rate %#v thr %#v p %#v rtt %#v pred %#v link %#v",
			fr.ID, fr.Variant, fr.Rate, fr.Throughput, fr.P, fr.MeanRTT, fr.Predicted, fr.Link)
		put("flow result dur %#v stats %#v delivered %#v", fr.Result.Duration, fr.Result.Stats, fr.Result.Delivered)
		for _, r := range fr.Result.Trace {
			put("%#v", r)
		}
	}
	for _, s := range res.Flows {
		put("summary %#v", s)
	}
	put("fairness %#v", res.Fairness)
	put("phases %#v", phases)
	put("links %#v", links)
	put("obs %#v", reg.Snapshot())
	return hex.EncodeToString(h.Sum(nil))
}
