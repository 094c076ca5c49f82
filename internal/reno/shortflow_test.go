package reno

import (
	"testing"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/sim"
	"pftk/internal/stats"
)

// TestFiniteTransferCompletes checks the finite-transfer machinery.
func TestFiniteTransferCompletes(t *testing.T) {
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 16, TotalPackets: 100},
		Path:   netem.SymmetricPath(0.05, nil),
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	res, done := c.RunUntilComplete(60)
	if !c.Sender.Complete() {
		t.Fatal("transfer did not complete")
	}
	if res.Delivered != 100 {
		t.Errorf("delivered %d, want 100", res.Delivered)
	}
	if res.Stats.PacketsSent != 100 {
		t.Errorf("sent %d originals, want exactly 100", res.Stats.PacketsSent)
	}
	if done <= 0 || done >= 60 {
		t.Errorf("completion time %g out of range", done)
	}
}

func TestFiniteTransferWithLossStillCompletes(t *testing.T) {
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 16, TotalPackets: 300, MinRTO: 0.4, Tick: 0.1},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(0.05, sim.NewRNG(3))),
	}
	var eng sim.Engine
	c := NewConnection(&eng, cfg)
	res, done := c.RunUntilComplete(600)
	if !c.Sender.Complete() {
		t.Fatalf("lossy transfer did not complete (delivered %d)", res.Delivered)
	}
	if res.Delivered != 300 {
		t.Errorf("delivered %d, want 300", res.Delivered)
	}
	if res.Stats.Retransmits == 0 {
		t.Error("expected retransmissions under 5% loss")
	}
	_ = done
}

func TestTransferTimeDeadline(t *testing.T) {
	// A blackholed transfer never completes; RunUntilComplete returns
	// the deadline.
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 4, MinRTO: 0.5, TotalPackets: 10},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{Delay: netem.ConstantDelay(0.05), Loss: &netem.Periodic{N: 1}},
			Reverse: netem.LinkConfig{Delay: netem.ConstantDelay(0.05)},
		},
	}
	var eng sim.Engine
	if _, got := NewConnection(&eng, cfg).RunUntilComplete(30); got != 30 {
		t.Errorf("blackholed transfer time = %g, want deadline 30", got)
	}
}

// TestShortFlowModelTracksSimulator validates the short-flow latency
// extension: the model's expected completion time must track the mean
// simulated completion time across flow sizes and loss rates.
func TestShortFlowModelTracksSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulations")
	}
	rtt := 0.1
	for _, tc := range []struct {
		n    int
		drop float64
	}{
		{10, 0}, {100, 0}, {1000, 0},
		{100, 0.01}, {500, 0.02}, {2000, 0.03},
	} {
		var times stats.Running
		reps := 20
		if tc.drop == 0 {
			reps = 1 // deterministic
		}
		var measuredP stats.Running
		for r := 0; r < reps; r++ {
			cfg := ConnConfig{
				Sender: SenderConfig{RWnd: 64, MinRTO: 1.0, TotalPackets: uint64(tc.n)},
				Path: netem.SymmetricPath(rtt/2,
					lossOrNil(tc.drop, uint64(r)+uint64(tc.n))),
			}
			var eng sim.Engine
			c := NewConnection(&eng, cfg)
			res, done := c.RunUntilComplete(3600)
			times.Add(done)
			measuredP.Add(res.LossIndicationRate())
		}
		pr := core.Params{RTT: rtt + 0.01, T0: 1.2, Wm: 64, B: 2}
		pEff := measuredP.Mean()
		want := core.ShortFlowTime(tc.n, pEff, pr)
		got := times.Mean()
		ratio := got / want
		t.Logf("n=%d drop=%.2f: simulated %.2fs model %.2fs (ratio %.2f, pEff=%.4f)",
			tc.n, tc.drop, got, want, ratio, pEff)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("n=%d drop=%g: simulated %.2f vs model %.2f (ratio %.2f)",
				tc.n, tc.drop, got, want, ratio)
		}
	}
}

func lossOrNil(p float64, seed uint64) netem.LossModel {
	if p <= 0 {
		return nil
	}
	return netem.NewBernoulli(p, sim.NewRNG(seed))
}

// TestShortFlowsSlowerThanSteadyState demonstrates the headline effect of
// the extension: short flows achieve a small fraction of the steady-state
// rate.
func TestShortFlowsSlowerThanSteadyState(t *testing.T) {
	rtt, drop := 0.1, 0.02
	var eng sim.Engine
	_, short := NewConnection(&eng, ConnConfig{
		Sender: SenderConfig{RWnd: 64, MinRTO: 1.0, TotalPackets: 20},
		Path:   netem.SymmetricPath(rtt/2, netem.NewBernoulli(drop, sim.NewRNG(1))),
	}).RunUntilComplete(600)
	shortRate := 20 / short

	long := RunConnection(ConnConfig{
		Sender: SenderConfig{RWnd: 64, MinRTO: 1.0},
		Path:   netem.SymmetricPath(rtt/2, netem.NewBernoulli(drop, sim.NewRNG(2))),
	}, 2000)
	if shortRate > long.SendRate()*0.8 {
		t.Errorf("20-packet flow rate %.1f should sit well below steady state %.1f",
			shortRate, long.SendRate())
	}
}
