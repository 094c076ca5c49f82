package experiments

import (
	"fmt"
	"math"
	"sort"

	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/hosts"
	"pftk/internal/markov"
	"pftk/internal/reno"
	"pftk/internal/stats"
	"pftk/internal/tablefmt"
)

// modelCurves appends the three model curves of Fig. 7 to a figure:
// "proposed (full)", "proposed (approx)" and "TD only", as packets per
// interval versus p.
func modelCurves(f *tablefmt.Figure, pr core.Params, width float64, pmin, pmax float64) {
	for _, m := range []core.Model{core.ModelFull, core.ModelApprox, core.ModelTDOnly} {
		var xs, ys []float64
		for _, pt := range core.Curve(m, pr, pmin, pmax, 60) {
			xs = append(xs, pt.P)
			ys = append(ys, pt.Rate*width)
		}
		name := map[core.Model]string{
			core.ModelFull:   "proposed (full)",
			core.ModelApprox: "proposed (approx)",
			core.ModelTDOnly: "TD only",
		}[m]
		f.Add(name, xs, ys)
	}
}

// Fig7 reproduces the six per-pair scatter plots of Fig. 7: each 1-hour
// trace is split into 100-second intervals; every interval contributes a
// (p, packets) point categorized by its deepest timeout backoff, overlaid
// with the three model curves.
func Fig7(o Options) *Report {
	return fig7From(runCampaign(o, hosts.Fig7Pairs()))
}

// fig7From builds Fig. 7 from a campaign that ran every Fig. 7 pair:
// the six pairs are Table II pairs, so the Table II campaign serves.
func fig7From(c *Campaign) *Report {
	r := &Report{ID: "fig7", Title: "Fig. 7: 1-h traces, packets per interval vs loss frequency"}
	for _, pair := range hosts.Fig7Pairs() {
		run, ok := c.Run(pair.Name())
		if !ok {
			panic("experiments: campaign has no run for Fig. 7 pair " + pair.Name())
		}
		r.Figures = append(r.Figures, fig7Panel(run, c.Opts.IntervalWidth))
	}
	r.note("each point is one %.0f-s interval; point series are split by interval category (TD, T0, T1, ...)", c.Opts.IntervalWidth)
	r.note("expected shape: measured points hug 'proposed (full)'; 'TD only' sits far above at high p and above the Wm ceiling at low p")
	return r
}

// fig7Panel builds one panel of Fig. 7 from a finished run.
func fig7Panel(run PairRun, width float64) *tablefmt.Figure {
	pr := run.Params()
	f := &tablefmt.Figure{
		Title: fmt.Sprintf("%s, RTT=%.3f, T0=%.3f, Wm=%d",
			run.Pair.Name(), pr.RTT, pr.T0, run.Pair.Wm),
		XLabel: "p",
		YLabel: "packets per interval",
	}
	// Scatter series split by category, as in the paper's legends.
	byCat := map[string][][2]float64{}
	pmin, pmax := 1.0, 1e-4
	for _, iv := range run.Intervals {
		if iv.Packets == 0 || iv.LossIndications == 0 {
			continue
		}
		c := iv.Category()
		byCat[c] = append(byCat[c], [2]float64{iv.P(), float64(iv.Packets)})
		if iv.P() < pmin {
			pmin = iv.P()
		}
		if iv.P() > pmax {
			pmax = iv.P()
		}
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		var xs, ys []float64
		for _, pt := range byCat[c] {
			xs = append(xs, pt[0])
			ys = append(ys, pt[1])
		}
		f.Add("measured "+c, xs, ys)
	}
	if pmin >= pmax {
		pmin, pmax = 1e-3, 0.3
	}
	modelCurves(f, pr, width, math.Max(pmin/2, 1e-5), math.Min(pmax*2, 0.9))
	return f
}

// Fig8 reproduces the 100-second-trace comparison: for each pair, the
// measured send rate of each serial connection alongside the per-trace
// predictions of the proposed model and the TD-only model.
func Fig8(o Options) *Report {
	return fig8From(RunShortCampaign(o))
}

func fig8From(sc *ShortCampaign) *Report {
	r := &Report{ID: "fig8", Title: "Fig. 8: 100-s traces, measured vs predicted packets"}
	for i, pair := range sc.Pairs {
		f := &tablefmt.Figure{
			Title:  pair.Name(),
			XLabel: "trace number",
			YLabel: "packets sent",
		}
		var xs, measured, full, tdonly []float64
		for j, run := range sc.Runs[i] {
			p := run.Summary.P
			pr := run.Params()
			dur := sc.Opts.ShortTraceDuration
			xs = append(xs, float64(j))
			measured = append(measured, float64(run.Summary.PacketsSent))
			full = append(full, core.SendRateFull(p, pr)*dur)
			tdonly = append(tdonly, core.SendRateTDOnly(p, pr.RTT, 2)*dur)
		}
		f.Add("measured", xs, measured)
		f.Add("proposed (full)", xs, full)
		f.Add("TD only", xs, tdonly)
		r.Figures = append(r.Figures, f)
	}
	r.note("%d serial connections of %.0f s per pair (paper: 100 x 100 s with 50-s gaps)",
		sc.Opts.ShortTraces, sc.Opts.ShortTraceDuration)
	return r
}

// modelError is one row of a Fig. 9-style comparison: the Section III
// average error of each model for one trace, pair or schedule.
type modelError struct {
	name               string
	full, approx, tdon float64
}

// intervalErrors scores the three models over a trace's intervals, each
// interval priced at its own observed p with the trace's parameters pr.
// ok is false when the full or TD-only error is undefined.
func intervalErrors(name string, ivs []analysis.Interval, pr core.Params) (e modelError, ok bool) {
	e = modelError{
		name:   name,
		full:   analysis.ModelError(ivs, core.ModelFull, pr),
		approx: analysis.ModelError(ivs, core.ModelApprox, pr),
		tdon:   analysis.ModelError(ivs, core.ModelTDOnly, pr),
	}
	return e, !math.IsNaN(e.full) && !math.IsNaN(e.tdon)
}

// addModelErrors sorts rows by increasing TD-only error and adds the
// Fig. 9/10 comparison to r: a table whose first column is named label
// and a figure titled title, with xlabel on its x axis. It returns the
// number of rows on which the full model beats TD-only.
func (r *Report) addModelErrors(rows []modelError, label, title, xlabel string) (better int) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].tdon < rows[j].tdon })
	t := tablefmt.New(label, "TD only", "Proposed (full)", "Proposed (approx)")
	fig := &tablefmt.Figure{Title: title, XLabel: xlabel, YLabel: "average error"}
	var xs, fe, ae, te []float64
	for i, rw := range rows {
		t.AddRow(rw.name, fmt.Sprintf("%.3f", rw.tdon), fmt.Sprintf("%.3f", rw.full), fmt.Sprintf("%.3f", rw.approx))
		xs = append(xs, float64(i))
		fe = append(fe, rw.full)
		ae = append(ae, rw.approx)
		te = append(te, rw.tdon)
		if rw.full < rw.tdon {
			better++
		}
	}
	fig.Add("TD only", xs, te)
	fig.Add("proposed (full)", xs, fe)
	fig.Add("proposed (approx)", xs, ae)
	r.Tables = append(r.Tables, t)
	r.Figures = append(r.Figures, fig)
	return better
}

// noteMeanErrors notes each model's mean error over rows, in their
// current order, when there are any.
func (r *Report) noteMeanErrors(rows []modelError) {
	if len(rows) == 0 {
		return
	}
	var fe, ae, te []float64
	for _, rw := range rows {
		fe = append(fe, rw.full)
		ae = append(ae, rw.approx)
		te = append(te, rw.tdon)
	}
	r.note("mean errors: TD-only %.3f, full %.3f, approx %.3f", stats.Mean(te), stats.Mean(fe), stats.Mean(ae))
}

// Fig9 reproduces the model-accuracy comparison for the 1-hour traces:
// per-trace average error of TD-only, full and approximate models, with
// traces ordered by increasing TD-only error as in the paper.
func Fig9(o Options) *Report {
	return fig9From(RunCampaign(o))
}

func fig9From(c *Campaign) *Report {
	r := &Report{ID: "fig9", Title: "Fig. 9: comparison of the models for 1-h traces"}
	var rows []modelError
	for _, run := range c.Runs {
		if e, ok := intervalErrors(run.Pair.Name(), run.Intervals, run.Params()); ok {
			rows = append(rows, e)
		}
	}
	better := r.addModelErrors(rows, "Trace", r.Title, "trace (sorted by TD-only error)")
	r.note("full model beats TD-only on %d of %d traces (paper: most cases)", better, len(rows))
	r.noteMeanErrors(rows)
	return r
}

// Fig10 reproduces the model-accuracy comparison for the 100-second
// traces.
func Fig10(o Options) *Report {
	return fig10From(RunShortCampaign(o))
}

func fig10From(sc *ShortCampaign) *Report {
	r := &Report{ID: "fig10", Title: "Fig. 10: comparison of the models for 100-s traces"}
	var rows []modelError
	for i, pair := range sc.Pairs {
		// Per the paper, each 100-s trace contributes one observation
		// using its own measured RTT and T0.
		var pf, pa, pt, obs []float64
		for _, run := range sc.Runs[i] {
			if run.Summary.PacketsSent == 0 || run.Summary.LossIndications == 0 {
				continue
			}
			pr := run.Params()
			dur := sc.Opts.ShortTraceDuration
			obs = append(obs, float64(run.Summary.PacketsSent))
			pf = append(pf, core.SendRateFull(run.Summary.P, pr)*dur)
			pa = append(pa, core.SendRateApprox(run.Summary.P, pr)*dur)
			pt = append(pt, core.SendRateTDOnly(run.Summary.P, pr.RTT, 2)*dur)
		}
		if len(obs) == 0 {
			continue
		}
		rows = append(rows, modelError{
			name:   pair.Name(),
			full:   stats.AverageError(pf, obs),
			approx: stats.AverageError(pa, obs),
			tdon:   stats.AverageError(pt, obs),
		})
	}
	better := r.addModelErrors(rows, "Pair", r.Title, "pair index (sorted by TD-only error)")
	r.note("full model beats TD-only on %d of %d pairs", better, len(rows))
	return r
}

// Fig11 reproduces the modem pathology: a slow dedicated-buffer link where
// RTT correlates with the window and every model misses.
func Fig11(o Options) *Report {
	o = o.normalize()
	r := &Report{ID: "fig11", Title: "Fig. 11: manic to p5 (modem), where the models fail"}
	pair, cfg := hosts.ModemPair()
	run, _ := runTrace(connect(cfg), nil, o.HourTraceDuration, o.IntervalWidth, nil)
	run.Pair = pair
	r.Figures = append(r.Figures, fig7Panel(run, o.IntervalWidth))
	rho := analysis.RoundCorrelation(run.Result.Trace)
	r.note("RTT-window correlation = %.3f (paper reports up to 0.97 on modem paths; near 0 on wide-area paths)", rho)
	sum := run.Summary
	full := analysis.ModelError(run.Intervals, core.ModelFull, run.Params())
	r.note("full-model average error = %.3f — large, as the independence assumption is violated", full)
	t := tablefmt.New("Metric", "Value")
	t.AddRow("measured RTT", fmt.Sprintf("%.3f s", sum.MeanRTT))
	t.AddRow("measured T0", fmt.Sprintf("%.3f s", sum.MeanT0))
	t.AddRow("RTT-window correlation", fmt.Sprintf("%.3f", rho))
	t.AddRow("full-model avg error", fmt.Sprintf("%.3f", full))
	r.Tables = append(r.Tables, t)
	return r
}

// Fig12 compares the numerically-solved Markov model with the closed-form
// proposed model at the paper's parameters (RTT = 0.47 s, T0 = 3.2 s,
// Wm = 12).
func Fig12(o Options) *Report {
	r := &Report{ID: "fig12", Title: "Fig. 12: comparison with the Markov model (RTT=0.47, T0=3.2, Wm=12)"}
	cfg := markov.Config{RTT: 0.47, T0: 3.2, Wm: 12}
	pr := core.Params{RTT: cfg.RTT, T0: cfg.T0, Wm: 12, B: 2}
	fig := &tablefmt.Figure{Title: r.Title, XLabel: "p", YLabel: "send rate (pkts/s)"}
	var xs, closed, chain []float64
	for _, pt := range core.Curve(core.ModelFull, pr, 1e-3, 0.7, 40) {
		m, err := markov.SendRate(pt.P, cfg)
		if err != nil {
			continue
		}
		xs = append(xs, pt.P)
		closed = append(closed, pt.Rate)
		chain = append(chain, m)
	}
	fig.Add("proposed (full)", xs, closed)
	fig.Add("markov model", xs, chain)
	r.Figures = append(r.Figures, fig)
	// Quantify the closeness the paper shows visually.
	var ratio stats.Running
	for i := range xs {
		if closed[i] > 0 {
			ratio.Add(chain[i] / closed[i])
		}
	}
	r.note("markov/closed-form ratio: mean %.3f, min %.3f, max %.3f (paper: 'the closeness of the match is evident')",
		ratio.Mean(), ratio.Min(), ratio.Max())
	return r
}

// Fig13 compares throughput T(p) with send rate B(p) for the paper's
// example parameters (Wm = 12, RTT = 470 ms, T0 = 3.2 s).
func Fig13(o Options) *Report {
	r := &Report{ID: "fig13", Title: "Fig. 13: comparison of throughput and send rate (Wm=12, RTT=0.47, T0=3.2)"}
	pr := core.Params{RTT: 0.47, T0: 3.2, Wm: 12, B: 2}
	fig := &tablefmt.Figure{Title: r.Title, XLabel: "p", YLabel: "pkts/s"}
	var xs, send, tput []float64
	for _, pt := range core.Curve(core.ModelFull, pr, 1e-3, 0.7, 60) {
		xs = append(xs, pt.P)
		send = append(send, pt.Rate)
		tput = append(tput, core.Throughput(pt.P, pr))
	}
	fig.Add("send rate B(p)", xs, send)
	fig.Add("throughput T(p)", xs, tput)
	r.Figures = append(r.Figures, fig)
	gapAt := func(p float64) float64 {
		return 1 - core.Throughput(p, pr)/core.SendRateFull(p, pr)
	}
	r.note("throughput <= send rate everywhere; relative gap grows with p: %.1f%% at p=0.01, %.1f%% at p=0.3",
		100*gapAt(0.01), 100*gapAt(0.3))
	return r
}

// Correlation reproduces the Section IV independence check: the
// coefficient of correlation between round duration and packets in flight
// for a few representative wide-area pairs and for the modem path.
func Correlation(o Options) *Report {
	o = o.normalize()
	r := &Report{ID: "correlation", Title: "Section IV: RTT-window correlation per path"}
	t := tablefmt.New("Path", "Correlation", "Regime")
	for _, name := range []string{"manic-ganef", "void-sutton", "pif-imagine"} {
		pair, ok := hosts.PairByName(name)
		if !ok {
			continue
		}
		res := reno.RunConnection(pair.ConnConfig(o.Salt), o.HourTraceDuration)
		rho := analysis.RoundCorrelation(res.Trace)
		t.AddRow(name, fmt.Sprintf("%.3f", rho), "wide-area (paper: within [-0.1, 0.1])")
	}
	_, cfg := hosts.ModemPair()
	res := reno.RunConnection(cfg, o.HourTraceDuration)
	rho := analysis.RoundCorrelation(res.Trace)
	t.AddRow("manic-p5 (modem)", fmt.Sprintf("%.3f", rho), "slow link, dedicated buffer (paper: up to 0.97)")
	r.Tables = append(r.Tables, t)
	return r
}
