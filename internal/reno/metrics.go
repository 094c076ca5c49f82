package reno

import (
	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/sim"
)

// Metrics carries the sender's optional observability handles. The zero
// value (all-nil handles) disables collection; the ACK-processing hot
// path then pays one nil check per update and allocates nothing.
//
// The counters mirror the quantities the paper's Table II is built from,
// so a run's metric snapshot can be reconciled against its
// analysis.Summary (the experiments package tests exactly that):
// IndicationsTD matches the TD column, TimeoutSeqs the total of the
// T0..T5+ columns, and the Backoff histogram the per-column split.
type Metrics struct {
	// Cwnd samples the congestion window (packets) after every change.
	Cwnd *obs.Histogram
	// RTT samples Karn-valid round-trip measurements (seconds).
	RTT *obs.Histogram
	// IndicationsTD counts triple-duplicate loss indications.
	IndicationsTD *obs.Counter
	// TimeoutFires counts every RTO expiry (each backoff doubling fires
	// again).
	TimeoutFires *obs.Counter
	// TimeoutSeqs counts timeout *sequences*: fires at backoff depth 0,
	// i.e. the paper's per-trace timeout-event count.
	TimeoutSeqs *obs.Counter
	// Backoff records the backoff exponent of each fire (0 = single
	// timeout, 1 = first doubling, ...).
	Backoff *obs.Histogram
	// TimerCancels counts pending RTO timers cancelled before firing
	// (restarts on new ACKs plus the final Stop).
	TimerCancels *obs.Counter
	// Acks counts cumulative acknowledgments processed.
	Acks *obs.Counter
}

// Standard bucket bounds for the sender histograms: cwnd in powers of
// two up to the largest advertised windows of Table I, backoff by exact
// exponent (overflow = "T5 or more"), RTT log-spaced from LAN to
// satellite scale.
var (
	cwndBounds    = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	backoffBounds = []float64{0, 1, 2, 3, 4, 5}
	rttBounds     = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10}
)

// NewMetrics registers the standard sender metrics on r (names
// "reno.*"), returning the handle bundle. A nil registry yields the
// all-nil (disabled) bundle.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Cwnd:          r.Histogram("reno.cwnd", cwndBounds),
		RTT:           r.Histogram("reno.rtt", rttBounds),
		IndicationsTD: r.Counter("reno.indications.td"),
		TimeoutFires:  r.Counter("reno.timeouts.fired"),
		TimeoutSeqs:   r.Counter("reno.timeouts.sequences"),
		Backoff:       r.Histogram("reno.timeouts.backoff", backoffBounds),
		TimerCancels:  r.Counter("reno.timer.cancels"),
		Acks:          r.Counter("reno.acks"),
	}
}

// Observe instruments a connection about to be built on eng with the
// standard metrics on reg: the engine (sim.events, sim.queue.depth,
// sim.cancels), both path directions (netem.fwd.*, netem.rev.*) and the
// sender (reno.*). Every handle is preallocated, so the hooks never
// allocate on the hot path, and none draws randomness, so an observed
// run is byte-identical to an unobserved one. A nil registry leaves eng
// and cfg untouched.
func Observe(eng *sim.Engine, cfg *ConnConfig, reg *obs.Registry) {
	if reg == nil {
		return
	}
	cfg.Sender.Metrics = NewMetrics(reg)
	cfg.Path.Forward.Metrics = netem.NewLinkMetrics(reg, "netem.fwd")
	cfg.Path.Reverse.Metrics = netem.NewLinkMetrics(reg, "netem.rev")
	events := reg.Counter("sim.events")
	depth := reg.Gauge("sim.queue.depth")
	cancels := reg.Counter("sim.cancels")
	eng.SetHooks(sim.Hooks{
		EventFired: func(_ float64, pending int) {
			events.Inc()
			depth.Set(float64(pending))
		},
		Scheduled: func(_ float64, pending int) { depth.Set(float64(pending)) },
		Cancelled: func() { cancels.Inc() },
	})
}
