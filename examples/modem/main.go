// The Fig. 11 pathology: where the model (and every contemporaneous
// model) breaks.
//
// A receiver behind a 28.8 kb/s modem with a buffer dedicated to the
// connection violates the model's core assumption that the round-trip
// time is independent of the window: with a saturated sender, almost
// every queued packet waits behind the sender's own window, so RTT grows
// linearly with the window and the RTT-window correlation approaches 1
// (the paper measured up to 0.97). This example reproduces the effect
// and contrasts it with a wide-area path.
package main

import (
	"fmt"

	"pftk"
	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/hosts"
	"pftk/internal/reno"
)

func main() {
	// Wide-area reference path: constant propagation delay.
	wan := pftk.Sim(
		pftk.WithPath(0.2), pftk.WithLoss(0.02), pftk.WithWindow(22), pftk.WithMinRTO(1.0),
		pftk.WithDuration(1800), pftk.WithSeed(1),
	)
	fmt.Println("wide-area path (propagation-dominated):")
	report(wan.Trace, wan.Result, 22)

	// Modem path: 3.5 pkts/s bottleneck, 40-packet dedicated buffer.
	_, cfg := hosts.ModemPair()
	modem := reno.RunConnection(cfg, 1800)
	fmt.Println("\nmodem path (queueing-dominated, Fig. 11):")
	report(modem.Trace, modem, 22)

	fmt.Println("\nconclusion: on the modem path the RTT is a function of the window,")
	fmt.Println("violating the independence assumption shared by this model and by")
	fmt.Println("Lakshman-Madhow, Mathis et al. and Ott et al.; all of them misestimate")
	fmt.Println("such paths (Section IV / Fig. 11).")
}

func report(tr pftk.Trace, res reno.Result, wm float64) {
	sum := pftk.Analyze(tr)
	rho := pftk.RTTWindowCorrelation(tr)
	fmt.Printf("  measured: rate %.2f pkts/s, p %.4f, RTT %.3fs, T0 %.3fs\n",
		res.SendRate(), sum.P, sum.MeanRTT, sum.MeanT0)
	fmt.Printf("  RTT-window correlation: %.3f\n", rho)

	params := pftk.Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: wm, B: 2}
	if params.Validate() != nil {
		fmt.Println("  (insufficient measurements for model comparison)")
		return
	}
	ivs := pftk.Intervals(tr, sum.Events, 100)
	err := analysis.ModelError(ivs, core.ModelFull, params)
	fmt.Printf("  full-model prediction: %.2f pkts/s, average interval error %.3f\n",
		pftk.SendRate(sum.P, params), err)
}
