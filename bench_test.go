package pftk

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench=.). Each Table/Fig benchmark runs the
// corresponding experiment end to end on an abbreviated campaign and
// reports, beyond ns/op, the headline quantity of that artifact as a
// custom metric, so `go test -bench` output doubles as a compact
// reproduction report:
//
//   - BenchmarkTable2Traces reports the fraction of traces whose loss
//     indications are timeout-dominated (paper: ~all).
//   - BenchmarkFig9Errors / Fig10 report the mean average-error of the
//     full and TD-only models (paper: full well below TD-only).
//   - BenchmarkFig11Modem reports the RTT-window correlation (paper: up
//     to 0.97).
//   - BenchmarkFig12Markov reports the mean Markov/closed-form ratio
//     (paper: ~1).
//   - BenchmarkFig13Throughput reports the max relative gap between
//     throughput and send rate.
//
// Micro-benchmarks cover the model evaluation itself and the substrates
// (simulator event rate, trace codec, analysis pipeline, Markov solve).

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/experiments"
	"pftk/internal/hosts"
	"pftk/internal/markov"
	"pftk/internal/reno"
	"pftk/internal/roundsim"
	"pftk/internal/trace"
)

// benchOpts keeps the campaign benchmarks affordable while exercising the
// full pipeline.
func benchOpts() experiments.Options {
	return experiments.Options{
		HourTraceDuration:  300,
		ShortTraces:        5,
		ShortTraceDuration: 100,
		IntervalWidth:      100,
		Salt:               7,
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkTable1Hosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1(benchOpts())
		if r.Tables[0].NumRows() != 19 {
			b.Fatal("table I rows")
		}
	}
}

func BenchmarkTable2Traces(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		c := experiments.RunCampaign(benchOpts())
		dominated := 0
		for _, run := range c.Runs {
			if run.Summary.TimeoutSequences() >= run.Summary.TD {
				dominated++
			}
		}
		frac = float64(dominated) / float64(len(c.Runs))
	}
	b.ReportMetric(frac, "timeout-dominated-frac")
}

func BenchmarkFig7Scatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchOpts())
		if len(r.Figures) != 6 {
			b.Fatal("fig7 panels")
		}
	}
}

func BenchmarkFig8Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOpts())
		if len(r.Figures) != 6 {
			b.Fatal("fig8 panels")
		}
	}
}

func BenchmarkFig9Errors(b *testing.B) {
	var meanFull, meanTD float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchOpts())
		for _, s := range r.Figures[0].Series {
			sum := 0.0
			for _, y := range s.Y {
				sum += y
			}
			switch s.Name {
			case "proposed (full)":
				meanFull = sum / float64(len(s.Y))
			case "TD only":
				meanTD = sum / float64(len(s.Y))
			}
		}
	}
	b.ReportMetric(meanFull, "full-model-error")
	b.ReportMetric(meanTD, "tdonly-error")
}

func BenchmarkFig10Errors(b *testing.B) {
	var meanFull, meanTD float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchOpts())
		for _, s := range r.Figures[0].Series {
			sum := 0.0
			for _, y := range s.Y {
				sum += y
			}
			switch s.Name {
			case "proposed (full)":
				meanFull = sum / float64(len(s.Y))
			case "TD only":
				meanTD = sum / float64(len(s.Y))
			}
		}
	}
	b.ReportMetric(meanFull, "full-model-error")
	b.ReportMetric(meanTD, "tdonly-error")
}

func BenchmarkFig11Modem(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		_, cfg := hosts.ModemPair()
		res := reno.RunConnection(cfg, 600)
		rho = analysis.RoundCorrelation(res.Trace)
	}
	b.ReportMetric(rho, "rtt-window-correlation")
}

func BenchmarkFig12Markov(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchOpts())
		closed, chain := r.Figures[0].Series[0].Y, r.Figures[0].Series[1].Y
		sum, n := 0.0, 0
		for j := range closed {
			if closed[j] > 0 {
				sum += chain[j] / closed[j]
				n++
			}
		}
		mean = sum / float64(n)
	}
	b.ReportMetric(mean, "markov-closed-ratio")
}

func BenchmarkFig13Throughput(b *testing.B) {
	var maxGap float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(benchOpts())
		send, tput := r.Figures[0].Series[0].Y, r.Figures[0].Series[1].Y
		maxGap = 0
		for j := range send {
			if send[j] > 0 {
				if g := 1 - tput[j]/send[j]; g > maxGap {
					maxGap = g
				}
			}
		}
	}
	b.ReportMetric(maxGap, "max-throughput-gap")
}

func BenchmarkCorrelationStudy(b *testing.B) {
	o := benchOpts()
	o.HourTraceDuration = 200
	for i := 0; i < b.N; i++ {
		r := experiments.Correlation(o)
		if r.Tables[0].NumRows() != 4 {
			b.Fatal("rows")
		}
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationTimeoutTerm quantifies what modeling timeouts buys: the
// average interval error of the full model vs the no-timeout ablation on
// the same simulated trace.
func BenchmarkAblationTimeoutTerm(b *testing.B) {
	var errFull, errNoTO float64
	for i := 0; i < b.N; i++ {
		res := Sim(WithPath(0.2), WithBurstLoss(0.05, 0.25), WithWindow(12), WithMinRTO(1), WithDuration(1500), WithSeed(3))
		events := analysis.InferLossEvents(res.Trace, 3)
		sum := analysis.Summarize(res.Trace, events)
		ivs := analysis.Intervals(res.Trace, events, 100)
		pr := core.Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: 12, B: 2}
		errFull = analysis.ModelError(ivs, core.ModelFull, pr)
		errNoTO = analysis.ModelError(ivs, core.ModelNoTimeout, pr)
	}
	b.ReportMetric(errFull, "full-error")
	b.ReportMetric(errNoTO, "no-timeout-error")
}

// BenchmarkAblationQHatForm compares the closed form of Q-hat (24) against
// the exact summation (22)-(23) in cost; the accuracy side is covered by
// tests.
func BenchmarkAblationQHatForm(b *testing.B) {
	b.Run("closed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.QHat(0.03, 24)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.QHatExact(0.03, 24)
		}
	})
}

// BenchmarkAblationBackoffCap contrasts the 2^6 backoff cap with the Irix
// 2^5 cap under heavy loss (effect on send rate).
func BenchmarkAblationBackoffCap(b *testing.B) {
	run := func(variant string) float64 {
		res := Sim(WithPath(0.2), WithLoss(0.15), WithWindow(8), WithMinRTO(1), WithDuration(1000), WithSeed(9), WithOS(variant))
		return res.SendRate()
	}
	var reno64, irix32 float64
	for i := 0; i < b.N; i++ {
		reno64 = run("reno")
		irix32 = run("irix")
	}
	b.ReportMetric(reno64, "reno-rate")
	b.ReportMetric(irix32, "irix-rate")
}

// BenchmarkAblationFastRecovery quantifies the fast-recovery refinement
// the paper lists as future work: classic Reno vs NewReno partial-ACK
// recovery under RTT-scale loss outages.
func BenchmarkAblationFastRecovery(b *testing.B) {
	run := func(variant string) float64 {
		return Sim(WithPath(0.1), WithBurstLoss(0.004, 0.06), WithWindow(32), WithMinRTO(1), WithDuration(1500), WithSeed(21), WithOS(variant)).SendRate()
	}
	var classic, newreno float64
	for i := 0; i < b.N; i++ {
		classic = run("reno")
		newreno = run("newreno")
	}
	b.ReportMetric(classic, "reno-rate")
	b.ReportMetric(newreno, "newreno-rate")
}

// BenchmarkAblationDelayedAcks measures the delayed-ACK (b=2) rate penalty
// the model captures through its b parameter.
func BenchmarkAblationDelayedAcks(b *testing.B) {
	var withDel, without float64
	for i := 0; i < b.N; i++ {
		withDel = Sim(WithPath(0.2), WithLoss(0.02), WithMinRTO(1), WithDuration(1000), WithSeed(5), WithDelayedACKs(2)).SendRate()
		without = Sim(WithPath(0.2), WithLoss(0.02), WithMinRTO(1), WithDuration(1000), WithSeed(5), WithDelayedACKs(1)).SendRate()
	}
	b.ReportMetric(without/withDel, "b1-over-b2-speedup")
}

// --- extension-study benches ---

// BenchmarkExtLossModels reruns the loss-process sensitivity study.
func BenchmarkExtLossModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.LossModels(benchOpts())
		if r.Tables[0].NumRows() != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExtShortFlows reruns the short-flow latency study.
func BenchmarkExtShortFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ShortFlows(benchOpts())
		if r.Tables[0].NumRows() != 6 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExtMultiflow reruns the N-flow shared-bottleneck scaling
// sweep (N = 2 to 1000) on 20-s runs. Its B/op is what the sweep
// allocates, the 1000-flow population's included.
func BenchmarkExtMultiflow(b *testing.B) {
	o := benchOpts()
	o.ShortTraceDuration = 10
	for i := 0; i < b.N; i++ {
		r := experiments.Multiflow(o)
		if r.Tables[0].NumRows() != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExtFairness reruns the shared-bottleneck fairness study and
// reports the TFRC/TCP ratio under RED.
func BenchmarkExtFairness(b *testing.B) {
	o := benchOpts()
	o.HourTraceDuration = 1200
	var redRatio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fairness(o)
		var buf bytes.Buffer
		if err := r.Tables[0].WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		fields := bytes.Split(lines[2], []byte(","))
		redRatio, _ = strconv.ParseFloat(string(fields[3]), 64)
	}
	b.ReportMetric(redRatio, "red-tfrc-tcp-ratio")
}

func BenchmarkShortFlowTime(b *testing.B) {
	pr := core.NewParams(0.1, 1.2, 64)
	for i := 0; i < b.N; i++ {
		core.ShortFlowTime(500, 0.02, pr)
	}
}

// --- model micro-benchmarks ---

func BenchmarkSendRateFull(b *testing.B) {
	pr := core.NewParams(0.2, 2.0, 12)
	for i := 0; i < b.N; i++ {
		core.SendRateFull(0.02, pr)
	}
}

func BenchmarkSendRateApprox(b *testing.B) {
	pr := core.NewParams(0.2, 2.0, 12)
	for i := 0; i < b.N; i++ {
		core.SendRateApprox(0.02, pr)
	}
}

func BenchmarkSendRateTDOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.SendRateTDOnly(0.02, 0.2, 2)
	}
}

func BenchmarkThroughputModel(b *testing.B) {
	pr := core.NewParams(0.2, 2.0, 12)
	for i := 0; i < b.N; i++ {
		core.Throughput(0.02, pr)
	}
}

func BenchmarkLossRateFor(b *testing.B) {
	pr := core.NewParams(0.2, 2.0, 0)
	for i := 0; i < b.N; i++ {
		if _, err := core.LossRateFor(20, pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkovSolve(b *testing.B) {
	for _, wm := range []int{8, 16, 48} {
		b.Run("Wm"+strconv.Itoa(wm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := markov.SendRate(0.03, markov.Config{RTT: 0.2, T0: 2, Wm: wm}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRoundsimTDP(b *testing.B) {
	s, err := roundsim.New(roundsim.Config{P: 0.03, RTT: 0.2, T0: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.RunTDPs(b.N)
}

// --- substrate micro-benchmarks ---

// BenchmarkSimulatedSecond measures simulator throughput: one simulated
// second of a saturated 2%-loss connection per iteration.
func BenchmarkSimulatedSecond(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.02), WithWindow(32), WithMinRTO(1), WithDuration(float64(b.N)), WithSeed(11))
	if res.Stats.TotalSent() == 0 {
		b.Fatal("no traffic")
	}
	b.ReportMetric(float64(res.Stats.TotalSent())/float64(b.N), "pkts/simsec")
}

// benchMultiFlow measures one simulated second of an n-flow shared
// bottleneck per iteration: the multi-flow engine's whole-system
// throughput at the fairness experiments' operating point (20 pkts/s
// fair share, 5-packet-per-flow queue).
func benchMultiFlow(b *testing.B, n int) {
	res := Sim(
		WithPath(0.08),
		WithWindow(64),
		WithMinRTO(0.5),
		WithFlowCount(n),
		WithBottleneck(Bottleneck{Rate: 20 * float64(n), QueueCap: 5 * n, OneWay: 0.04}),
		WithDuration(float64(b.N)),
		WithSeed(11),
	)
	var total int
	for _, fr := range res.FlowResults {
		total += fr.Result.Stats.TotalSent()
	}
	if total == 0 {
		b.Fatal("no traffic")
	}
	b.ReportMetric(float64(total)/float64(b.N), "pkts/simsec")
}

func BenchmarkMultiFlow10(b *testing.B)  { benchMultiFlow(b, 10) }
func BenchmarkMultiFlow100(b *testing.B) { benchMultiFlow(b, 100) }

func BenchmarkTraceEncode(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.02), WithWindow(16), WithDuration(60), WithSeed(1))
	tr := res.Trace
	b.SetBytes(int64(len(tr) * 33))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceDecode(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.02), WithWindow(16), WithDuration(60), WithSeed(1))
	var buf bytes.Buffer
	if err := trace.Encode(&buf, res.Trace); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferLossEvents(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.03), WithWindow(16), WithMinRTO(1), WithDuration(600), WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.InferLossEvents(res.Trace, 3)
	}
}

func BenchmarkKarnRTTSamples(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.03), WithWindow(16), WithMinRTO(1), WithDuration(600), WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.KarnRTTSamples(res.Trace)
	}
}

func BenchmarkTcpdumpEncode(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.02), WithWindow(16), WithDuration(60), WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.EncodeTcpdump(&buf, res.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTcpdumpDecode(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.02), WithWindow(16), WithDuration(60), WithSeed(1))
	var buf bytes.Buffer
	if err := trace.EncodeTcpdump(&buf, res.Trace); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeTcpdump(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlightSeries(b *testing.B) {
	res := Sim(WithPath(0.1), WithLoss(0.03), WithWindow(16), WithMinRTO(1), WithDuration(600), WithSeed(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.FlightSeries(res.Trace)
	}
}

func BenchmarkElasticities(b *testing.B) {
	pr := core.NewParams(0.2, 2.0, 12)
	for i := 0; i < b.N; i++ {
		core.SendRateElasticities(0.02, pr)
	}
}

// sink prevents over-eager dead-code elimination in model benches.
var sink float64

func init() { sink = math.Pi }
