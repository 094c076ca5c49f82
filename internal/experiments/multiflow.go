package experiments

import (
	"fmt"
	"math"

	"pftk/internal/multiflow"
	"pftk/internal/tablefmt"
	"pftk/internal/workpool"
)

// multiflowPopulations are the flow counts of the scaling sweep: from a
// pair of flows to the mean-field regime.
var multiflowPopulations = []int{2, 10, 100, 1000}

// multiflowPerFlowRate is each flow's fair share of the bottleneck in
// packets per second; the total link rate scales with the population so
// every population competes for the same per-flow capacity.
const multiflowPerFlowRate = 20.0

// multiflowConfig is the n-flow population of the scaling sweep. The
// report reads only rates, P and MeanRTT, so the senders keep no trace:
// at N = 1000 a traced run would hold hundreds of MB of records.
func multiflowConfig(n int, dur float64, salt uint64) multiflow.Config {
	return multiflow.Config{
		Flows: multiflow.SymmetricFlows(n, multiflow.FlowSpec{
			RTT:    0.08,
			Wm:     64,
			MinRTO: 0.5,
		}),
		Bottleneck: multiflow.Bottleneck{
			Rate:     multiflowPerFlowRate * float64(n),
			QueueCap: 5 * n,
			OneWay:   0.04,
		},
		Duration: dur,
		Seed:     salt + uint64(1000+n),
		NoTrace:  true,
	}
}

// Multiflow runs the N-flow shared-bottleneck scaling campaign: for
// each population size, N identical Reno flows compete for a bottleneck
// provisioned at N x 20 pkts/s, and the measured per-flow rates are
// checked against the mean-field predictions — the per-flow rate
// concentrates on the fair share, Jain's index stays near 1, and the
// TD-only 1/(RTT sqrt(2bp/3)) formula evaluated at the population's
// measured loss rate reproduces the per-flow rate (the fixed-point view
// of Section IV applied to a population instead of one flow: N flows
// drive p to where the equation yields the fair share).
func Multiflow(o Options) *Report {
	o = o.normalize()
	r := &Report{ID: "multiflow", Title: "Extension: N-flow shared bottleneck vs mean-field fairness predictions"}
	t := tablefmt.New("flows", "fair share", "mean rate", "min/max", "Jain", "util", "mean p", "TD-only B(p)", "pred/meas")

	dur := o.ShortTraceDuration * 2
	results := make([]multiflow.Result, len(multiflowPopulations))
	pool := workpool.New(o.Workers, len(multiflowPopulations))
	for i, n := range multiflowPopulations {
		pool.Submit(func() {
			results[i] = multiflow.Run(multiflowConfig(n, dur, o.Salt))
		})
	}
	pool.Close()

	for i, n := range multiflowPopulations {
		res := results[i]
		f := res.Fairness
		mean := f.AggregateRate / float64(n)
		var pSum, rttSum float64
		for _, fr := range res.Flows {
			pSum += fr.P
			rttSum += fr.MeanRTT
		}
		pMean := pSum / float64(n)
		rttMean := rttSum / float64(n)
		var pred, ratio float64
		if pMean > 0 {
			pred = 1 / (rttMean * math.Sqrt(2*2*pMean/3))
			ratio = pred / mean
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, rate := range f.Rates {
			lo = math.Min(lo, rate)
			hi = math.Max(hi, rate)
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", multiflowPerFlowRate),
			fmt.Sprintf("%.1f", mean),
			fmt.Sprintf("%.1f/%.1f", lo, hi),
			fmt.Sprintf("%.3f", f.Jain),
			fmt.Sprintf("%.2f", f.Utilization),
			fmt.Sprintf("%.4f", pMean),
			fmt.Sprintf("%.1f", pred),
			fmt.Sprintf("%.2f", ratio),
		)
	}

	r.Tables = append(r.Tables, t)
	r.note("every population competes for the same 20 pkts/s fair share; drop-tail synchronization keeps Jain's index near 1 from 2 flows to 1000")
	r.note("the population drives the shared queue's loss rate to the fixed point where the TD-only equation evaluated at (p, RTT) returns roughly the fair share — the mean-field consistency the aggregate models build on")
	r.note("the measured RTT includes queueing delay at the shared buffer, which is why the prediction uses the measured mean rather than the 0.16 s propagation floor")
	return r
}
