// Package pftk is a from-scratch Go implementation of the PFTK
// steady-state TCP throughput model from Padhye, Firoiu, Towsley and
// Kurose, "Modeling TCP Throughput: A Simple Model and Its Empirical
// Validation" (SIGCOMM 1998), together with everything needed to
// re-validate it: a packet-level TCP Reno simulator over an emulated
// network path, tcpdump-style trace capture and analysis, the
// numerically-solved Markov model the paper compares against, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// # The model
//
// The headline result is B(p): the steady-state send rate of a saturated
// (bulk-transfer) TCP Reno connection as a function of the
// loss-indication rate p, the average round-trip time, the average first
// retransmission-timeout duration T0, and the receiver's advertised
// window Wm:
//
//	params := pftk.NewParams(0.2 /* RTT s */, 2.0 /* T0 s */, 12 /* Wm pkts */)
//	rate := pftk.SendRate(0.02, params) // packets per second at 2% loss
//
// SendRate implements the paper's "full model" (eq. 32); SendRateApprox
// the closed-form approximation (eq. 33); SendRateTDOnly the
// Mathis et al. square-root baseline the paper compares against;
// Throughput the receiver-side rate T(p) of eq. (37). LossRateFor inverts
// the model, which is the "TCP-friendly rate" computation that motivated
// the paper.
//
// # The validation stack
//
// Sim runs a packet-level TCP bulk transfer over an emulated lossy path
// and returns both the measured rates and the sender-side event trace;
// Analyze runs the paper's trace-analysis methodology
// (loss-indication classification, Karn RTT filtering, 100-second
// intervals) over any trace. The cmd/experiments binary regenerates
// Table I, Table II and Figs. 7-13.
package pftk

import (
	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/multiflow"
	"pftk/internal/obs"
	"pftk/internal/reno"
	"pftk/internal/scenario"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

// Params holds the model parameters (RTT, T0, Wm, b). See core.Params.
type Params = core.Params

// Model selects one of the analytic characterizations.
type Model = core.Model

// The available models.
const (
	// ModelFull is the paper's full model, eq. (32).
	ModelFull = core.ModelFull
	// ModelApprox is the approximate model, eq. (33).
	ModelApprox = core.ModelApprox
	// ModelTDOnly is the Mathis et al. baseline ("TD only"), eq. (20).
	ModelTDOnly = core.ModelTDOnly
	// ModelThroughput is the receiver-side throughput model, eq. (37).
	ModelThroughput = core.ModelThroughput
	// ModelNoTimeout is the no-timeout ablation of Section II-A.
	ModelNoTimeout = core.ModelNoTimeout
)

// DefaultB is the delayed-ACK ratio b = 2 used throughout the paper.
const DefaultB = core.DefaultB

// CurvePoint is one (p, rate) sample of a model curve.
type CurvePoint = core.CurvePoint

// NewParams returns Params for the given average RTT (seconds), timeout
// T0 (seconds) and receiver window wm (packets; <= 0 means unlimited),
// with delayed ACKs (b = 2).
func NewParams(rtt, t0, wm float64) Params { return core.NewParams(rtt, t0, wm) }

// SendRate returns the full-model send rate B(p) of eq. (32) in packets
// per second.
func SendRate(p float64, pr Params) float64 { return core.SendRateFull(p, pr) }

// SendRateApprox returns the approximate model of eq. (33).
func SendRateApprox(p float64, pr Params) float64 { return core.SendRateApprox(p, pr) }

// SendRateTDOnly returns the Mathis et al. square-root baseline of
// eq. (20), which ignores timeouts and the receiver window. An unset
// delayed-ACK ratio defaults to DefaultB inside core, identically for
// every caller.
func SendRateTDOnly(p float64, pr Params) float64 {
	return core.SendRateTDOnly(p, pr.RTT, float64(pr.B))
}

// Throughput returns the receiver-side rate T(p) of eq. (37).
func Throughput(p float64, pr Params) float64 { return core.Throughput(p, pr) }

// LossRateFor inverts the full model: the loss rate at which a connection
// with the given parameters achieves the target send rate (packets per
// second). This is the computation behind "TCP-friendly" rate control.
func LossRateFor(target float64, pr Params) (float64, error) {
	return core.LossRateFor(target, pr)
}

// FriendlyRate returns the TCP-friendly send rate for a non-TCP flow
// observing loss rate p on a path with the given parameters; always
// finite.
func FriendlyRate(p float64, pr Params) float64 { return core.FriendlyRate(p, pr) }

// Curve samples a model at n log-spaced loss rates in [pmin, pmax].
func Curve(m Model, pr Params, pmin, pmax float64, n int) []CurvePoint {
	return core.Curve(m, pr, pmin, pmax, n)
}

// Trace is a sender-side packet event trace.
type Trace = trace.Trace

// TraceRecord is one trace event.
type TraceRecord = trace.Record

// Summary is a Table II-style per-trace summary.
type Summary = analysis.Summary

// LossEvent is one classified loss indication.
type LossEvent = analysis.LossEvent

// Interval is one fixed-width analysis interval of a trace.
type Interval = analysis.Interval

// SimResult is the outcome of a simulated transfer. The embedded
// reno.Result carries the single-flow measurements (for multi-flow runs
// it is flow 0's result, kept for drop-in compatibility); the Flows,
// FlowResults and Fairness fields are populated only by multi-flow runs
// (WithFlows / WithFlowCount), and the Transfer fields only by finite
// transfers (WithTransfer).
type SimResult struct {
	reno.Result
	// Flows holds per-flow Table II-style summaries, computed by the
	// same loss-inference analysis as Analyze, indexed by flow ID.
	// (TFRC flows have no sender trace and summarize to zero.)
	Flows []Summary
	// FlowResults holds each flow's measured rates, loss, RTT,
	// bottleneck attribution and TD-only model prediction.
	FlowResults []FlowResult
	// Fairness aggregates the multi-flow run: Jain's index, aggregate
	// rate, utilization and the per-flow rate/prediction vectors.
	Fairness Fairness
	// TransferTime is the finite transfer's completion time in seconds
	// (the deadline when it did not finish).
	TransferTime float64
	// TransferComplete reports whether the finite transfer finished
	// before its deadline.
	TransferComplete bool
}

// Analyze runs Analyze over the result's trace at the fast-retransmit
// threshold of the sender that produced it, so inferred loss events
// match the simulated stack. opts are applied after that threshold.
func (r SimResult) Analyze(opts ...AnalyzeOption) Summary {
	return Analyze(r.Trace, append([]AnalyzeOption{WithDupThreshold(r.DupThreshold)}, opts...)...)
}

// Flow specifies one sender in a multi-flow simulation: its congestion
// control variant, path parameters and start offset. See WithFlows.
type Flow = multiflow.FlowSpec

// Bottleneck describes the link shared by all flows of a multi-flow
// simulation. See WithBottleneck.
type Bottleneck = multiflow.Bottleneck

// FlowResult is one flow's measured outcome in a multi-flow run.
type FlowResult = multiflow.FlowResult

// Fairness aggregates a multi-flow run: Jain's index and per-flow rates
// against the TD-only model predictions.
type Fairness = multiflow.Fairness

// Scenario is a declarative schedule of path changes and injected
// faults; see package internal/scenario for the semantics and
// ParseScenario for the JSON form.
type Scenario = scenario.Scenario

// Phase is one scheduled rewrite of the steady-state path parameters.
type Phase = scenario.Phase

// Fault is one transient perturbation window, optionally repeating.
type Fault = scenario.Fault

// LossSpec declaratively describes a steady-state loss process.
type LossSpec = scenario.LossSpec

// PhaseStat attributes packets offered/dropped/delivered on the data
// path to one scenario segment.
type PhaseStat = scenario.PhaseStat

// ParseScenario decodes and validates a JSON scenario document.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// ParseScenarioFile reads and parses the scenario document at path.
func ParseScenarioFile(path string) (*Scenario, error) { return scenario.ParseFile(path) }

// simConfig collects Sim's options; its zero value is the default run.
type simConfig struct {
	// flow holds the single-flow knobs (WithPath, WithLoss, WithOS,
	// WithWindow, ...); WithFlowCount replicates it.
	flow     Flow
	duration float64
	seed     uint64
	scenario *Scenario
	// phaseStats, linkStats, registry and flight are the single-flow
	// sinks of WithPhaseStats, WithLinkStats, WithObs and
	// WithFlightRecorder.
	phaseStats *[]PhaseStat
	linkStats  *PathStats
	registry   *obs.Registry
	flight     *FlightRecorder
	// totalPackets and transferDeadline make a single-flow run finite
	// (WithTransfer); a positive deadline selects the run-until-complete
	// loop.
	totalPackets     uint64
	transferDeadline float64
	// flows, or a positive flowCount, select a multi-flow run
	// (WithFlows, WithFlowCount) over bottleneck (WithBottleneck).
	flows      []Flow
	flowCount  int
	bottleneck Bottleneck
}

// Sim runs a TCP bulk transfer over an emulated — optionally
// time-varying — path and returns the measured result, including the
// sender-side trace:
//
//	res := pftk.Sim(
//		pftk.WithPath(0.2),
//		pftk.WithLoss(0.02),
//		pftk.WithDuration(1000),
//		pftk.WithSeed(42),
//	)
//
// Defaults: 0.1 s RTT, lossless path, 100 s saturated transfer, Reno
// sender with a 64-packet window, delayed ACKs (b = 2).
func Sim(opts ...SimOption) SimResult {
	var c simConfig
	for _, o := range opts {
		o(&c)
	}
	return run(c)
}

// run is the one execution path behind Sim. Every run is a list of
// flows wired by multiflow.New on one engine: a single-flow run is one
// flow on a private path, WithFlowCount replicates that flow and
// WithFlows supplies the list. Scenario, sinks and finite transfers
// apply to single-flow runs only. run is annotated deterministic: for a
// fixed config (including the seed) it must produce byte-identical
// traces — the contract the golden tests and serial==parallel campaign
// identity rest on — so the determinism analyzer checks it like the
// simulation packages themselves.
//
//pftk:deterministic
func run(c simConfig) SimResult {
	var eng sim.Engine
	cfg := multiflow.Config{Flows: c.flows, Duration: c.duration, Seed: c.seed}
	if len(c.flows) > 0 || c.flowCount > 0 {
		if len(cfg.Flows) == 0 {
			cfg.Flows = multiflow.SymmetricFlows(c.flowCount, c.flow)
		}
		cfg.Bottleneck = c.bottleneck
		m := multiflow.New(&eng, cfg)
		m.Start()
		eng.RunUntil(m.Duration())
		mres := m.Finish()
		out := SimResult{Result: mres.Flows[0].Result, FlowResults: mres.Flows, Fairness: mres.Fairness}
		for _, fr := range mres.Flows {
			out.Flows = append(out.Flows, Analyze(fr.Result.Trace, WithDupThreshold(fr.Result.DupThreshold)))
		}
		return out
	}

	spec := c.flow
	// WithSeed(0) seeds the flow's streams with sim.NewRNG(0); a zero
	// spec seed would instead derive one from the run seed.
	spec.Seed = c.seed
	if spec.Seed == 0 {
		spec.Seed = sim.ZeroSeed
	}
	cfg.Flows = []Flow{spec}
	cfg.TotalPackets = c.totalPackets
	cfg.Registry = c.registry
	eng.SetFlightRecorder(c.flight)
	m := multiflow.New(&eng, cfg)
	finite := c.transferDeadline > 0
	horizon := m.Duration()
	if finite {
		horizon = c.transferDeadline
	}
	var runner *scenario.Runner
	if c.scenario != nil {
		runner = m.BindScenario(0, c.scenario, horizon)
	}
	m.Start()
	var out SimResult
	if finite {
		out.TransferTime = horizon
		for eng.Now() < horizon && eng.Step() {
			if m.Complete() {
				out.TransferTime = eng.Now()
				break
			}
		}
		out.TransferComplete = out.TransferTime < horizon
	} else {
		eng.RunUntil(horizon)
	}
	out.Result = m.Stop(0)
	if runner != nil && c.phaseStats != nil {
		*c.phaseStats = runner.Finish()
	}
	if c.linkStats != nil {
		path := m.Path(0)
		*c.linkStats = PathStats{Forward: path.Forward.Stats(), Reverse: path.Reverse.Stats()}
	}
	return out
}

// Analyze runs the paper's trace-analysis programs over a sender-side
// trace: loss indications are inferred from wire-level records exactly as
// the paper's programs had to do from tcpdump output, then summarized
// Table II-style. The returned Summary embeds the classified loss events,
// so one call serves both the table row and event-level consumers:
//
//	sum := pftk.Analyze(res.Trace)                         // standard Reno (3 dupacks)
//	sum  = pftk.Analyze(res.Trace, pftk.WithDupThreshold(2)) // Linux-style senders
//	ivs := pftk.Intervals(res.Trace, sum.Events, 100)
func Analyze(tr Trace, opts ...AnalyzeOption) Summary {
	var c analyzeConfig
	for _, o := range opts {
		o(&c)
	}
	var events []LossEvent
	if c.groundTruth {
		events = analysis.GroundTruthLossEvents(tr)
	} else {
		events = analysis.InferLossEvents(tr, c.dupThreshold)
	}
	return analysis.Summarize(tr, events)
}

// Intervals splits a trace into width-second intervals with per-interval
// loss statistics, as in the paper's Fig. 7 methodology.
func Intervals(tr Trace, events []LossEvent, width float64) []Interval {
	return analysis.Intervals(tr, events, width)
}

// RTTWindowCorrelation returns the Section IV correlation between round
// duration and packets in flight for a simulated trace (near 0 on
// wide-area paths, near 1 behind a modem-style deep buffer).
func RTTWindowCorrelation(tr Trace) float64 { return analysis.RoundCorrelation(tr) }

// ShortFlowTime returns the expected completion time (seconds) of an
// n-packet transfer under loss rate p — the short-connection extension the
// paper lists as future work (Cardwell et al. developed it into a full
// model in 2000): slow start, the expected first-loss cost, then steady
// state at B(p).
func ShortFlowTime(n int, p float64, pr Params) float64 {
	return core.ShortFlowTime(n, p, pr)
}

// ShortFlowRate returns n / ShortFlowTime — the effective rate of a short
// transfer, which approaches SendRate only for large n.
func ShortFlowRate(n int, p float64, pr Params) float64 {
	return core.ShortFlowRate(n, p, pr)
}
