package reno

import (
	"math"
	"testing"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// measured runs a long bulk transfer over a Bernoulli-loss path and
// returns the measured send rate and loss-indication rate, plus the model
// parameters describing the run (using the paper's methodology: p, RTT
// and T0 are all *measured* quantities fed back into the model).
func measuredRun(t *testing.T, drop float64, rwnd int, seed uint64, dur float64) (rate, p float64, pr core.Params) {
	t.Helper()
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: rwnd, MinRTO: 1.0},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(seed))),
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	res := c.Run(dur)
	srtt := c.Sender.Estimator().SRTT()
	if srtt <= 0 {
		srtt = 0.1
	}
	t0 := c.Sender.BaseRTO()
	return res.SendRate(), res.LossIndicationRate(),
		core.Params{RTT: srtt, T0: t0, Wm: float64(rwnd), B: 2}
}

// TestSimulatorMatchesFullModel is the repository's core validation: the
// packet-level Reno simulator, measured the way the paper measures real
// TCP (p = loss indications / packets sent, RTT from the sender's
// estimator), must agree with eq. (32) to within a factor of 2 across the
// loss range — the same quality of fit the paper reports for real stacks.
func TestSimulatorMatchesFullModel(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	for _, drop := range []float64{0.005, 0.01, 0.03, 0.06, 0.12} {
		rate, p, pr := measuredRun(t, drop, 64, uint64(drop*1e6), 3000)
		if p <= 0 {
			t.Fatalf("drop=%g: no loss indications measured", drop)
		}
		pred := core.SendRateFull(p, pr)
		ratio := rate / pred
		t.Logf("drop=%.3f: measured p=%.4f rate=%.1f, model=%.1f (ratio %.2f, T0=%.2f RTT=%.3f)",
			drop, p, rate, pred, ratio, pr.T0, pr.RTT)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("drop=%g: measured/model = %.2f, want within [0.5, 2]", drop, ratio)
		}
	}
}

// TestFullModelBeatsTDOnlyAtHighLoss reproduces the paper's headline
// comparison on simulated traces: at loss rates above ~5% the TD-only
// model overestimates badly while the full model stays close.
func TestFullModelBeatsTDOnlyAtHighLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	for _, drop := range []float64{0.08, 0.15} {
		rate, p, pr := measuredRun(t, drop, 64, 77+uint64(drop*100), 3000)
		full := core.SendRateFull(p, pr)
		td := core.SendRateTDOnly(p, pr.RTT, 2)
		errFull := math.Abs(full-rate) / rate
		errTD := math.Abs(td-rate) / rate
		t.Logf("drop=%.2f: measured=%.1f full=%.1f (err %.2f) tdonly=%.1f (err %.2f)",
			drop, rate, full, errFull, td, errTD)
		if errFull >= errTD {
			t.Errorf("drop=%g: full model error %.2f not better than TD-only %.2f", drop, errFull, errTD)
		}
		if td < rate {
			t.Errorf("drop=%g: TD-only %g should overestimate measured %g", drop, td, rate)
		}
	}
}

// TestWindowLimitedRegime checks the Wm branch: with a small advertised
// window and light loss the connection pins at Wm/RTT, which the full
// model predicts and the TD-only model overshoots.
func TestWindowLimitedRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	rate, p, pr := measuredRun(t, 0.001, 6, 99, 2000)
	ceiling := pr.Wm / pr.RTT
	if rate > ceiling*1.05 {
		t.Errorf("measured rate %g above ceiling %g", rate, ceiling)
	}
	full := core.SendRateFull(p, pr)
	if math.Abs(full-rate)/rate > 0.5 {
		t.Errorf("full model %g vs measured %g: off by more than 50%% in window-limited regime", full, rate)
	}
	td := core.SendRateTDOnly(p, pr.RTT, 2)
	if td <= rate {
		t.Errorf("TD-only %g should overestimate the window-limited rate %g", td, rate)
	}
}

// TestTimeoutsDominateWithSmallWindows reproduces the paper's Table II
// observation: with realistic (small) windows, timeouts form the majority
// of loss indications.
func TestTimeoutsDominateWithSmallWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 8, MinRTO: 1.0},
		Path:   netem.SymmetricPath(0.1, netem.NewBernoulli(0.05, sim.NewRNG(123))),
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	res := c.Run(3000)
	if res.Stats.TimeoutEvents <= res.Stats.TDEvents {
		t.Errorf("timeouts (%d) should outnumber TD events (%d) with Wm=8 and 5%% loss",
			res.Stats.TimeoutEvents, res.Stats.TDEvents)
	}
}

// TestThroughputTracksModelT verifies the receiver-side rate against
// eq. (37) loosely.
func TestThroughputTracksModelT(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 12, MinRTO: 1.0},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(0.03, sim.NewRNG(321))),
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	res := c.Run(3000)
	p := res.LossIndicationRate()
	srtt := c.Sender.Estimator().SRTT()
	pr := core.Params{RTT: srtt, T0: c.Sender.BaseRTO(), Wm: 12, B: 2}
	pred := core.Throughput(p, pr)
	got := res.Throughput()
	if ratio := got / pred; ratio < 0.5 || ratio > 2 {
		t.Errorf("throughput measured %g vs model %g (ratio %.2f)", got, pred, ratio)
	}
	if got > res.SendRate() {
		t.Error("throughput exceeded send rate")
	}
}

// hopChain chains links into one forward direction: a packet leaves hop
// i into hop i+1, collecting each hop's serialization, delay and loss.
type hopChain []*netem.Link

func (c hopChain) Send(p pkt.Packet, deliver func(pkt.Packet)) {
	if len(c) == 1 {
		c[0].Send(p, deliver)
		return
	}
	c[0].Send(p, func(p pkt.Packet) { c[1:].Send(p, deliver) })
}

// TestMultiHopPathStillMatchesModel runs the sender over a three-hop path
// (loss concentrated at the middle hop, delay spread across all three):
// the model only sees (p, RTT, T0, Wm), so its fit must survive the
// topology change.
func TestMultiHopPathStillMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	var eng sim.Engine
	rng := sim.NewRNG(41)
	fwd := hopChain{
		netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.02)}),
		netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.03), Loss: netem.NewBernoulli(0.02, rng)}),
		netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.01)}),
	}
	rev := netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.05)})
	snd := NewSender(&eng, fwd, SenderConfig{RWnd: 64, MinRTO: 1})
	rcv := NewReceiver(&eng, rev, snd.OnAck, ReceiverConfig{})
	snd.SetDeliver(rcv.OnPacket)
	snd.Start()
	eng.RunUntil(2000)
	snd.Stop()

	st := snd.Stats()
	sent := float64(st.TotalSent())
	p := float64(st.LossIndications()) / sent
	rate := sent / 2000
	pr := core.Params{RTT: snd.Estimator().SRTT(), T0: snd.BaseRTO(), Wm: 64, B: 2}
	pred := core.SendRateFull(p, pr)
	if ratio := rate / pred; ratio < 0.5 || ratio > 2 {
		t.Errorf("multi-hop measured %.1f vs model %.1f (ratio %.2f)", rate, pred, ratio)
	}
	if fwd[1].Stats().RandomDrops == 0 {
		t.Error("middle hop never dropped")
	}
}
