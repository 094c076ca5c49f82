package experiments

import (
	"fmt"

	"pftk/internal/netem"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/tablefmt"
	"pftk/internal/tfrc"
)

// fairnessSenderConfig is each TCP flow of the fairness study. The
// report reads only Stats, so the senders keep no trace.
func fairnessSenderConfig() reno.SenderConfig {
	return reno.SenderConfig{RWnd: 64, MinRTO: 0.5, Tick: 0.1, NoTrace: true}
}

// Fairness runs the study the paper's "TCP-friendly" motivation implies:
// an equation-based (TFRC-style) flow shares one bottleneck with three
// TCP Reno flows, once behind a drop-tail queue and once behind a RED
// queue. It reports per-controller rates and loss rates and the
// TFRC-to-TCP ratio, quantifying both the drop-tail pacing pathology and
// the near-fairness RED restores.
func Fairness(o Options) *Report {
	o = o.normalize()
	r := &Report{ID: "fairness", Title: "Extension: equation-based (TFRC) flow vs TCP at a shared bottleneck"}
	t := tablefmt.New("Queue", "TFRC rate", "mean TCP rate", "ratio", "TFRC loss", "TCP loss", "link util")

	dur := o.HourTraceDuration
	const (
		rate = 100.0
		nTCP = 3
	)

	runOne := func(name string, mkLink func(eng *sim.Engine) (reno.DataPath, tfrc.Link)) {
		var eng sim.Engine
		fwd, tfrcFwd := mkLink(&eng)
		var tcps []*reno.Sender
		for i := 0; i < nTCP; i++ {
			rev := netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.04)})
			snd := reno.NewSender(&eng, fwd, fairnessSenderConfig())
			rcv := reno.NewReceiver(&eng, rev, snd.OnAck, reno.ReceiverConfig{})
			snd.SetDeliver(rcv.OnPacket)
			tcps = append(tcps, snd)
		}
		rev := netem.NewLink(&eng, netem.LinkConfig{Delay: netem.ConstantDelay(0.04)})
		flow := tfrc.NewFlowOnLinks(&eng, tfrcFwd, rev, tfrc.Config{})
		for _, s := range tcps {
			s.Start()
		}
		flow.Start()
		eng.RunUntil(dur)
		flow.Stop()
		var tcpMean, pTCP float64
		for _, s := range tcps {
			s.Stop()
			st := s.Stats()
			tcpMean += float64(st.TotalSent()) / dur
			if st.TotalSent() > 0 {
				pTCP += float64(st.LossIndications()) / float64(st.TotalSent())
			}
		}
		tcpMean /= nTCP
		pTCP /= nTCP
		tfrcRate := float64(flow.Sent()) / dur
		util := (tfrcRate + tcpMean*nTCP) / rate
		t.AddRow(name,
			fmt.Sprintf("%.1f", tfrcRate),
			fmt.Sprintf("%.1f", tcpMean),
			fmt.Sprintf("%.2f", tfrcRate/tcpMean),
			fmt.Sprintf("%.4f", flow.LossEventRate()),
			fmt.Sprintf("%.4f", pTCP),
			fmt.Sprintf("%.2f", util),
		)
	}

	runOne("drop-tail", func(eng *sim.Engine) (reno.DataPath, tfrc.Link) {
		l := netem.NewLink(eng, netem.LinkConfig{Rate: rate, QueueCap: 25, Delay: netem.ConstantDelay(0.04)})
		return l, l
	})
	runOne("RED", func(eng *sim.Engine) (reno.DataPath, tfrc.Link) {
		l := netem.NewREDLink(eng, netem.LinkConfig{Rate: rate, QueueCap: 25, Delay: netem.ConstantDelay(0.04)}, sim.NewRNG(o.Salt+99))
		return l, l
	})

	r.Tables = append(r.Tables, t)
	r.note("at a drop-tail queue, the smoothly-paced flow rarely lands on a full buffer while TCP's bursts absorb the drops: the equation sees little loss and dominates")
	r.note("RED drops by average queue occupancy, hitting both traffic shapes proportionally: loss rates equalize and the TFRC/TCP ratio approaches 1 — why AQM matters for equation-based control")
	return r
}
