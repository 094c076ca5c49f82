package serve

import (
	"fmt"
	"math"

	"pftk"
	"pftk/internal/core"
	"pftk/internal/multiflow"
	"pftk/internal/reno"
	"pftk/internal/scenario"
)

// SimulateRequest describes one deterministic packet-level bulk-transfer
// simulation. Together with the seed it fully determines the outcome,
// which is what makes finished simulations exactly cacheable.
type SimulateRequest struct {
	// RTT is the two-way propagation delay in seconds; 0 means the
	// simulator default (0.1 s).
	RTT float64 `json:"rtt,omitempty"`
	// LossRate is the per-packet loss-burst start probability, in
	// [0, 1].
	LossRate float64 `json:"loss_rate"`
	// BurstDur is the loss-outage duration in seconds (0 = isolated
	// single-packet losses).
	BurstDur float64 `json:"burst_dur,omitempty"`
	// Wm is the receiver's advertised window in packets; 0 means the
	// simulator default (64).
	Wm int `json:"wm,omitempty"`
	// MinRTO floors the retransmission timeout in seconds; 0 means the
	// simulator default (1 s).
	MinRTO float64 `json:"min_rto,omitempty"`
	// Duration is the transfer length in simulated seconds; 0 means the
	// default 100 s.
	Duration float64 `json:"duration,omitempty"`
	// Seed makes the run reproducible (and the cache exact).
	Seed uint64 `json:"seed"`
	// Variant is the sender flavor: reno (default), tahoe, linux, irix
	// or newreno.
	Variant string `json:"variant,omitempty"`
	// AckEvery is the receiver's delayed-ACK ratio b; 0 means 2.
	AckEvery int `json:"ack_every,omitempty"`
	// Scenario optionally schedules time-varying path conditions and
	// fault injection over the run (see internal/scenario for the
	// schema). It participates in the canonical request hash, so a
	// scenario-bearing simulation never collides with its fixed-path
	// twin in the cache.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// normalize fills the simulator's defaults into zero fields only, so
// that equivalent requests share one cache key and the simulation layer
// never sees implicit zeros, while negative inputs still reach validate.
func (r SimulateRequest) normalize() SimulateRequest {
	if r.RTT == 0 {
		r.RTT = multiflow.DefaultRTT
	}
	// Writing +0 folds -0: the same simulation, which JSON (and so the
	// cache key) would otherwise keep apart.
	if r.LossRate == 0 {
		r.LossRate = 0
	}
	if r.Wm == 0 {
		r.Wm = reno.DefaultRWnd
	}
	if r.MinRTO == 0 {
		r.MinRTO = reno.DefaultMinRTO
	}
	if r.Duration == 0 {
		r.Duration = multiflow.DefaultDuration
	}
	if r.Variant == "" {
		r.Variant = reno.Reno.Name
	}
	if r.AckEvery == 0 {
		r.AckEvery = core.DefaultB
	}
	return r
}

// maxSimDuration bounds one job's simulated length; an hour-scale trace
// is the largest unit the paper's own campaigns use.
const maxSimDuration = 4 * 3600

// validate reports the first problem with a normalized request.
func (r SimulateRequest) validate() error {
	switch {
	case math.IsNaN(r.RTT) || math.IsInf(r.RTT, 0) || r.RTT <= 0:
		return fmt.Errorf("rtt must be positive and finite, got %v", r.RTT)
	case math.IsNaN(r.LossRate) || r.LossRate < 0 || r.LossRate > 1:
		return fmt.Errorf("loss_rate must be in [0, 1], got %v", r.LossRate)
	case math.IsNaN(r.BurstDur) || math.IsInf(r.BurstDur, 0) || r.BurstDur < 0:
		return fmt.Errorf("burst_dur must be non-negative and finite, got %v", r.BurstDur)
	case r.Wm < 1:
		return fmt.Errorf("wm must be at least 1, got %d", r.Wm)
	case math.IsNaN(r.MinRTO) || math.IsInf(r.MinRTO, 0) || r.MinRTO <= 0:
		return fmt.Errorf("min_rto must be positive and finite, got %v", r.MinRTO)
	case math.IsNaN(r.Duration) || r.Duration <= 0:
		return fmt.Errorf("duration must be positive, got %v", r.Duration)
	case r.Duration > maxSimDuration:
		return fmt.Errorf("duration must be at most %d simulated seconds, got %v", maxSimDuration, r.Duration)
	case r.AckEvery < 1:
		return fmt.Errorf("ack_every must be at least 1, got %d", r.AckEvery)
	}
	if _, err := reno.ParseVariant(r.Variant); err != nil {
		return err
	}
	if err := r.Scenario.Validate(); err != nil {
		return err
	}
	if r.Scenario != nil && r.Scenario.Duration > 0 && r.Scenario.Duration > r.Duration {
		return fmt.Errorf("scenario duration %v exceeds run duration %v (the program past %v would be silently truncated)",
			r.Scenario.Duration, r.Duration, r.Duration)
	}
	return nil
}

// SimulateResult is the serializable outcome of one finished simulation:
// the measured rates, the sender's ground-truth counters, the Table
// II-style trace analysis, and the full model's prediction at the
// measured operating point (the per-trace comparison at the heart of the
// paper's validation).
type SimulateResult struct {
	// Duration is the simulated length in seconds.
	Duration float64 `json:"duration"`
	// PacketsSent counts originals plus retransmissions.
	PacketsSent int `json:"packets_sent"`
	// Retransmits counts all retransmissions.
	Retransmits int `json:"retransmits"`
	// Delivered counts distinct in-order packets at the receiver.
	Delivered uint64 `json:"delivered"`
	// SendRate is packets sent per second — the paper's B.
	SendRate float64 `json:"send_rate"`
	// Throughput is distinct packets delivered per second — the paper's
	// T.
	Throughput float64 `json:"throughput"`
	// LossIndicationRate is loss indications over packets sent — the
	// sender's ground-truth p estimate.
	LossIndicationRate float64 `json:"loss_indication_rate"`
	// TDEvents and TimeoutEvents split the ground-truth indications.
	TDEvents      int `json:"td_events"`
	TimeoutEvents int `json:"timeout_events"`
	// TraceRecords is the length of the (not returned) sender trace.
	TraceRecords int `json:"trace_records"`

	// MeasuredP, MeasuredRTT and MeasuredT0 come from the wire-level
	// trace analysis (loss-indication inference, Karn-filtered RTT).
	MeasuredP   float64 `json:"measured_p"`
	MeasuredRTT float64 `json:"measured_rtt"`
	MeasuredT0  float64 `json:"measured_t0"`
	// PredictedFull and PredictedApprox evaluate eqs. (32) and (33) at
	// the measured (p, RTT, T0, Wm); 0 when the trace yielded no usable
	// measurements.
	PredictedFull   float64 `json:"predicted_full,omitempty"`
	PredictedApprox float64 `json:"predicted_approx,omitempty"`

	// Phases attributes offered/dropped packets to scenario segments;
	// present only for scenario-bearing requests.
	Phases []scenario.PhaseStat `json:"phases,omitempty"`
}

// Run normalizes, validates and executes one simulation request exactly
// as the /v1/simulate job path does (panic-guarded, flight recorder
// attached), returning the result the daemon would cache. Chaos
// campaigns use it as the local oracle when cross-checking a live
// daemon's responses: same request, same bytes, or the daemon has
// diverged from the library.
func Run(r SimulateRequest) (SimulateResult, error) {
	r = r.normalize()
	if err := r.validate(); err != nil {
		return SimulateResult{}, err
	}
	res, dump, err := runSimulationGuarded(r)
	if err != nil {
		return SimulateResult{}, fmt.Errorf("%w\n%s", err, dump)
	}
	return res, nil
}

// runSimulationGuarded runs one simulation with a default-sized flight
// recorder attached and converts a panic — a scenario fault or an
// engine invariant failure — into an error plus the recorder's dump, so
// one poisoned request fails its job instead of killing a worker
// goroutine.
func runSimulationGuarded(r SimulateRequest) (res SimulateResult, dump string, err error) {
	flight := pftk.NewFlightRecorder(0)
	defer func() {
		if p := recover(); p != nil {
			dump = flight.String()
			err = fmt.Errorf("simulation panicked: %v", p)
		}
	}()
	res = runSimulation(r, pftk.WithFlightRecorder(flight))
	return res, "", nil
}

// runSimulation executes a normalized, validated request. It is a pure
// function of the request — same input, same output — which the result
// cache relies on. Extra options (a flight recorder) must not change
// the simulated outcome.
func runSimulation(r SimulateRequest, extra ...pftk.SimOption) SimulateResult {
	var phases []pftk.PhaseStat
	opts := []pftk.SimOption{
		pftk.WithPath(r.RTT),
		pftk.WithBurstLoss(r.LossRate, r.BurstDur),
		pftk.WithWindow(r.Wm),
		pftk.WithMinRTO(r.MinRTO),
		pftk.WithDuration(r.Duration),
		pftk.WithSeed(r.Seed),
		pftk.WithOS(r.Variant),
		pftk.WithDelayedACKs(r.AckEvery),
		pftk.WithScenario(r.Scenario),
		pftk.WithPhaseStats(&phases),
	}
	opts = append(opts, extra...)
	res := pftk.Sim(opts...)
	sum := res.Analyze()
	out := SimulateResult{
		Duration:           res.Duration,
		PacketsSent:        res.Stats.TotalSent(),
		Retransmits:        res.Stats.Retransmits,
		Delivered:          res.Delivered,
		SendRate:           res.SendRate(),
		Throughput:         res.Throughput(),
		LossIndicationRate: res.LossIndicationRate(),
		TDEvents:           res.Stats.TDEvents,
		TimeoutEvents:      res.Stats.TimeoutEvents,
		TraceRecords:       len(res.Trace),
		MeasuredP:          sum.P,
		MeasuredRTT:        sum.MeanRTT,
		MeasuredT0:         sum.MeanT0,
		Phases:             phases,
	}
	params := core.Params{RTT: sum.MeanRTT, T0: sum.MeanT0, Wm: float64(r.Wm), B: r.AckEvery}
	if params.Validate() == nil && sum.P > 0 {
		out.PredictedFull = core.SendRateFull(sum.P, params)
		out.PredictedApprox = core.SendRateApprox(sum.P, params)
	}
	return out
}
