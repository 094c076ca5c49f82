// Package multiflow runs N concurrent flows — mixed TCP Reno/Tahoe/
// NewReno variants and TFRC — on one simulation engine, either through
// one shared bottleneck link (the regime the mean-field analyses of
// interacting TCP flows predict) or over disjoint per-flow paths (the
// lockstep baseline, byte-identical to N independent single-flow runs).
//
// The shared-bottleneck wiring follows the demultiplexing inherent in
// the link layer: every Send carries its own delivery callback, so N
// senders share one netem.Link without any extra routing machinery, and
// the typed packet union's Flow field attributes per-flow link counters
// and lets a receiver discard packets that are not its own.
//
// Determinism: for a fixed Config (including seeds) a run is
// byte-reproducible — per-flow RNG streams are forked from the config
// seed by flow index, and all flows share the engine's single event
// order.
package multiflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/pkt"
	"pftk/internal/reno"
	"pftk/internal/scenario"
	"pftk/internal/sim"
	"pftk/internal/tfrc"
)

// Run defaults for the knobs a caller leaves unset; the /v1/simulate
// request normalizer fills the same values from these constants. The
// sender defaults live in package reno.
const (
	// DefaultRTT is a flow's two-way propagation delay in seconds.
	DefaultRTT = 0.1
	// DefaultDuration is the run length in simulated seconds.
	DefaultDuration = 100
)

// FlowSpec describes one sender. A pftk.Sim run is always a list of
// FlowSpecs: a single-flow run is one spec, WithFlowCount replicates
// one spec n times and WithFlows passes the list through.
type FlowSpec struct {
	// Variant selects the flow's congestion control: "reno" (default),
	// "tahoe", "linux", "irix", "newreno" (see reno.ParseVariant) or
	// "tfrc". Any other name runs Reno, and the flow's result reports
	// "reno".
	Variant string
	// RTT is the flow's two-way propagation delay in seconds (default
	// DefaultRTT). On a shared bottleneck the forward direction
	// contributes the bottleneck's one-way delay; the reverse link
	// supplies the remainder.
	RTT float64
	// LossRate is a per-flow random loss probability applied on the
	// flow's access path, before the shared bottleneck (Bernoulli, or
	// a timed burst when BurstDur > 0). Congestive loss at the shared
	// queue comes on top.
	LossRate float64
	// BurstDur is the loss-outage duration in seconds (0 = isolated
	// single-packet losses).
	BurstDur float64
	// Wm is the receiver's advertised window in packets (default
	// reno.DefaultRWnd).
	Wm int
	// MinRTO floors the retransmission timeout (default
	// reno.DefaultMinRTO).
	MinRTO float64
	// AckEvery is the receiver's delayed-ACK ratio b (default
	// core.DefaultB).
	AckEvery int
	// Start delays the flow's first transmission (seconds from run
	// start).
	Start float64
	// Seed fixes the flow's private random streams; 0 derives one from
	// the run seed and the flow index.
	Seed uint64
}

// Bottleneck describes the shared link all flows traverse. A
// non-positive Rate disables sharing: each flow then runs over its own
// private path (disjoint mode).
type Bottleneck struct {
	// Rate is the transmission rate in packets per second.
	Rate float64
	// QueueCap is the drop-tail queue capacity in packets.
	QueueCap int
	// OneWay is the bottleneck's propagation delay in seconds.
	OneWay float64
	// RED manages the queue with Random Early Detection instead of
	// drop-tail.
	RED bool
}

// Config describes a multi-flow run.
type Config struct {
	Flows      []FlowSpec
	Bottleneck Bottleneck
	// Duration is the run length in simulated seconds (default
	// DefaultDuration).
	Duration float64
	// Seed derives per-flow seeds for flows that leave Seed zero, and
	// drives the shared RED controller when enabled.
	Seed uint64
	// TotalPackets, when positive, makes every TCP flow a finite
	// transfer of that many packets; Complete reports when all have
	// finished. Zero keeps the paper's saturated senders.
	TotalPackets uint64
	// Registry, when set, instruments the engine and each disjoint-mode
	// flow's path and sender with the standard metrics (see
	// reno.Observe). Flows share the metric names.
	Registry *obs.Registry
	// NoTrace runs every TCP sender without trace recording
	// (reno.SenderConfig.NoTrace): each FlowResult's Result.Trace is
	// nil. Everything else in the Result — stats, link attribution,
	// rates, P, MeanRTT, predictions and fairness — is bit-identical to
	// a traced run, so a large population costs no per-packet memory.
	NoTrace bool
}

// FlowResult is one flow's measured outcome.
type FlowResult struct {
	// ID is the flow's index in Config.Flows and its packet Flow stamp.
	ID int
	// Variant names the congestion control that ran (see
	// FlowSpec.Variant).
	Variant string
	// Result carries the TCP result (trace, sender stats, delivered);
	// zero-valued for TFRC flows, which have no sender-side trace. The
	// trace is nil under Config.NoTrace.
	Result reno.Result
	// Rate is the flow's send rate in packets per second (originals +
	// retransmissions; paced sends for TFRC).
	Rate float64
	// Throughput is distinct packets delivered per second.
	Throughput float64
	// P is the measured loss-indication rate (loss events per packet
	// for TFRC).
	P float64
	// MeanRTT is the average of the flow's Karn RTT samples, falling
	// back to the spec's propagation RTT when no sample was taken (and
	// for TFRC flows).
	MeanRTT float64
	// Predicted is the 1/(RTT·sqrt(2bp/3)) TD-only model rate at the
	// measured P and MeanRTT; 0 when P is 0 (the model diverges).
	Predicted float64
	// Link counts the flow's packets at the shared bottleneck
	// (zero-valued in disjoint mode).
	Link netem.FlowStats
}

// Fairness aggregates the run: Jain's index and per-flow rates against
// the TD-only model predictions.
type Fairness struct {
	// Jain is Jain's fairness index over per-flow send rates: 1 for a
	// perfectly even split, 1/n when one flow takes everything.
	Jain float64
	// AggregateRate is the sum of per-flow send rates (pkts/s).
	AggregateRate float64
	// Utilization is AggregateRate over the bottleneck rate; 0 in
	// disjoint mode.
	Utilization float64
	// Rates are the per-flow send rates, indexed by flow ID.
	Rates []float64
	// Predicted are the per-flow TD-only model rates at each flow's
	// measured loss rate and RTT (0 where the flow saw no loss).
	Predicted []float64
}

// Result is the outcome of a multi-flow run.
type Result struct {
	// Duration is the simulated run length in seconds.
	Duration float64
	Flows    []FlowResult
	Fairness Fairness
}

// normalize fills the spec's defaults and replaces an unknown variant
// name with the Reno that runs in its place.
func (s FlowSpec) normalize() FlowSpec {
	if _, err := reno.ParseVariant(s.Variant); err != nil && s.Variant != "tfrc" {
		s.Variant = reno.Reno.Name
	}
	if s.RTT <= 0 {
		s.RTT = DefaultRTT
	}
	return s
}

// flowSeed derives flow i's seed when the spec leaves it zero, forking
// the run seed by flow index so adding a flow never perturbs the
// others' streams.
func flowSeed(runSeed uint64, i int, spec FlowSpec) uint64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return sim.NewRNG(runSeed).Fork(fmt.Sprintf("flow.%d", i)).Uint64()
}

// lossModel builds the flow's private loss process, forked from the
// flow's own stream under the label "loss".
func lossModel(spec FlowSpec, rng *sim.RNG) netem.LossModel {
	switch {
	case spec.LossRate <= 0:
		return nil
	case spec.BurstDur > 0:
		return netem.NewTimedBurst(spec.LossRate, spec.BurstDur, rng.Fork("loss"))
	default:
		return netem.NewBernoulli(spec.LossRate, rng.Fork("loss"))
	}
}

// flow is the per-flow runtime state while the engine runs.
type flow struct {
	spec FlowSpec // normalized
	rng  *sim.RNG // the flow's stream, after the "loss" fork
	loss netem.LossModel
	path *netem.Path      // private path; nil on a shared bottleneck
	conn *reno.Connection // TCP flows
	tfrc *tfrc.Flow       // TFRC flows
}

// Engine is a multi-flow simulation bound to one sim.Engine. Build it
// with New, start it with Run (or drive the engine yourself between
// Start and Finish for mid-run probes).
type Engine struct {
	cfg   Config
	eng   *sim.Engine
	fwd   *netem.Link // shared bottleneck; nil in disjoint mode
	flows []flow
}

// New wires the flows onto eng according to cfg. The engine is ready to
// run but no flow has started.
func New(eng *sim.Engine, cfg Config) *Engine {
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultDuration
	}
	m := &Engine{cfg: cfg, eng: eng}
	shared := cfg.Bottleneck.Rate > 0
	var sharedPath reno.DataPath
	if shared {
		lcfg := netem.LinkConfig{
			Rate:     cfg.Bottleneck.Rate,
			QueueCap: cfg.Bottleneck.QueueCap,
			Delay:    netem.ConstantDelay(cfg.Bottleneck.OneWay),
		}
		if cfg.Bottleneck.RED {
			red := netem.NewREDLink(eng, lcfg, sim.NewRNG(cfg.Seed).Fork("red"))
			m.fwd = red.Link
			sharedPath = red
		} else {
			m.fwd = netem.NewLink(eng, lcfg)
			sharedPath = m.fwd
		}
		m.fwd.EnablePerFlowStats(len(cfg.Flows))
	}

	for i, spec := range cfg.Flows {
		f := flow{spec: spec.normalize()}
		f.rng = sim.NewRNG(flowSeed(cfg.Seed, i, f.spec))
		f.loss = lossModel(f.spec, f.rng)
		if shared {
			m.buildShared(i, &f, sharedPath)
		} else {
			m.buildDisjoint(i, &f)
		}
		m.flows = append(m.flows, f)
	}
	return m
}

// senderConfig is flow i's TCP sender configuration.
func (m *Engine) senderConfig(i int, spec FlowSpec) reno.SenderConfig {
	v, _ := reno.ParseVariant(spec.Variant) // normalized: always valid for TCP flows
	return reno.SenderConfig{
		Variant:      v,
		RWnd:         spec.Wm,
		MinRTO:       spec.MinRTO,
		TotalPackets: m.cfg.TotalPackets,
		FlowID:       int32(i),
		NoTrace:      m.cfg.NoTrace,
	}
}

// buildDisjoint gives flow i a private symmetric path. A one-flow
// disjoint run is the pftk facade's single-flow run, and N disjoint
// flows reproduce N such runs byte for byte — the lockstep oracle.
func (m *Engine) buildDisjoint(i int, f *flow) {
	cfg := reno.ConnConfig{
		Sender:   m.senderConfig(i, f.spec),
		Receiver: reno.ReceiverConfig{AckEvery: f.spec.AckEvery, FlowID: int32(i)},
		Path:     netem.SymmetricPath(f.spec.RTT/2, f.loss),
	}
	reno.Observe(m.eng, &cfg, m.cfg.Registry)
	if f.spec.Variant == "tfrc" {
		f.path = netem.NewPath(m.eng, cfg.Path)
		f.tfrc = tfrc.NewFlow(m.eng, f.path, tfrc.Config{FlowID: int32(i)})
		return
	}
	f.conn = reno.NewConnection(m.eng, cfg)
	f.path = f.conn.Path
}

// buildShared attaches flow i to the shared bottleneck: the forward
// direction is the common link (behind the flow's private access-loss
// wrapper when configured), the reverse direction a private delay link
// carrying the remainder of the flow's propagation RTT.
func (m *Engine) buildShared(i int, f *flow, shared reno.DataPath) {
	revDelay := f.spec.RTT - m.cfg.Bottleneck.OneWay
	if revDelay < 0 {
		revDelay = 0
	}
	rev := netem.NewLink(m.eng, netem.LinkConfig{Delay: netem.ConstantDelay(revDelay)})
	forward := shared
	if f.loss != nil {
		forward = &lossyPath{eng: m.eng, next: shared, loss: f.loss}
	}
	if f.spec.Variant == "tfrc" {
		f.tfrc = tfrc.NewFlowOnLinks(m.eng, forward, rev, tfrc.Config{FlowID: int32(i)})
		return
	}
	snd := reno.NewSender(m.eng, forward, m.senderConfig(i, f.spec))
	rcv := reno.NewReceiver(m.eng, rev, snd.OnAck, reno.ReceiverConfig{AckEvery: f.spec.AckEvery, FlowID: int32(i)})
	snd.SetDeliver(rcv.OnPacket)
	f.conn = &reno.Connection{Eng: m.eng, Sender: snd, Receiver: rcv}
}

// lossyPath drops packets with the flow's private loss process before
// they reach the shared bottleneck — random loss on the access path, as
// distinct from congestive loss at the shared queue.
type lossyPath struct {
	eng  *sim.Engine
	next reno.DataPath
	loss netem.LossModel
}

func (l *lossyPath) Send(p pkt.Packet, deliver func(pkt.Packet)) {
	if l.loss.Drop(l.eng.Now()) {
		return
	}
	l.next.Send(p, deliver)
}

// Start launches every flow: flows with a zero Start offset begin
// immediately (in flow order), later ones on the engine's event queue.
func (m *Engine) Start() {
	for i := range m.flows {
		f := &m.flows[i]
		start := func() {
			if f.tfrc != nil {
				f.tfrc.Start()
			} else {
				f.conn.Sender.Start()
			}
		}
		if f.spec.Start > 0 {
			m.eng.Schedule(f.spec.Start, start)
		} else {
			start()
		}
	}
}

// SenderRates returns each flow's cumulative send count divided by
// elapsed, for mid-run fairness probes.
func (m *Engine) SenderRates(elapsed float64) []float64 {
	rates := make([]float64, len(m.flows))
	if elapsed <= 0 {
		return rates
	}
	for i := range m.flows {
		rates[i] = float64(m.sent(i)) / elapsed
	}
	return rates
}

func (m *Engine) sent(i int) int {
	if f := &m.flows[i]; f.tfrc != nil {
		return f.tfrc.Sent()
	}
	return m.flows[i].conn.Sender.Stats().TotalSent()
}

// Bottleneck returns the shared forward link, or nil in disjoint mode.
func (m *Engine) Bottleneck() *netem.Link { return m.fwd }

// Duration is the run length: Config.Duration, or DefaultDuration when
// that was unset.
func (m *Engine) Duration() float64 { return m.cfg.Duration }

// Path returns flow i's private path, or nil on a shared bottleneck.
func (m *Engine) Path(i int) *netem.Path { return m.flows[i].path }

// BindScenario schedules sc over flow i's private path. The scenario's
// base state is the flow's propagation RTT and steady-state loss
// process, its randomness the flow's stream forked under "scenario"
// (after the "loss" fork), and horizon bounds the expansion of
// unbounded periodic faults. Call it between New and Start, in disjoint
// mode only.
func (m *Engine) BindScenario(i int, sc *scenario.Scenario, horizon float64) *scenario.Runner {
	f := &m.flows[i]
	return scenario.Bind(m.eng, f.path, scenario.Config{
		Scenario: sc,
		RNG:      f.rng.Fork("scenario"),
		Base:     scenario.Base{RTT: f.spec.RTT, Loss: f.loss},
		Horizon:  horizon,
		Registry: m.cfg.Registry,
	})
}

// Complete reports whether every flow has finished a finite transfer
// of Config.TotalPackets. It is false for saturated runs and whenever a
// TFRC flow is present.
func (m *Engine) Complete() bool {
	for i := range m.flows {
		if c := m.flows[i].conn; c == nil || !c.Sender.Complete() {
			return false
		}
	}
	return true
}

// Stop halts flow i and returns its TCP measurements at the engine's
// current time: trace, sender counters, delivered count and dup-ACK
// threshold (zero-valued for a TFRC flow, which has no sender-side
// trace). Callers that need only these skip the per-flow analysis
// Finish does.
func (m *Engine) Stop(i int) reno.Result {
	f := &m.flows[i]
	if f.tfrc != nil {
		f.tfrc.Stop()
		return reno.Result{}
	}
	return f.conn.Stop(m.eng.Now())
}

// Finish stops every flow and assembles the result at the engine's
// current time.
func (m *Engine) Finish() Result {
	now := m.eng.Now()
	res := Result{Duration: now}
	for i := range m.flows {
		f := &m.flows[i]
		fr := FlowResult{ID: i, Variant: f.spec.Variant, Result: m.Stop(i)}
		if f.tfrc != nil {
			fr.Rate = float64(f.tfrc.Sent()) / now
			fr.Throughput = float64(f.tfrc.Received()) / now
			fr.P = f.tfrc.LossEventRate()
			fr.MeanRTT = f.spec.RTT
		} else {
			fr.Rate = fr.Result.SendRate()
			fr.Throughput = fr.Result.Throughput()
			fr.P = fr.Result.LossIndicationRate()
			fr.MeanRTT = f.spec.RTT
			if n := fr.Result.Stats.RTTSamples; n > 0 {
				fr.MeanRTT = f.conn.Sender.RTTSum() / float64(n)
			}
		}
		if fr.P > 0 && fr.MeanRTT > 0 {
			fr.Predicted = core.SendRateTDOnly(fr.P, fr.MeanRTT, float64(f.spec.AckEvery))
		}
		if m.fwd != nil {
			fr.Link = m.fwd.FlowStats(i)
		}
		res.Flows = append(res.Flows, fr)
	}
	res.Fairness = fairness(res.Flows, m.cfg.Bottleneck.Rate)
	return res
}

// fairness computes Jain's index and the aggregate statistics over the
// per-flow send rates.
func fairness(flows []FlowResult, bottleneckRate float64) Fairness {
	f := Fairness{
		Rates:     make([]float64, len(flows)),
		Predicted: make([]float64, len(flows)),
	}
	var sum, sq float64
	for i, fr := range flows {
		f.Rates[i] = fr.Rate
		f.Predicted[i] = fr.Predicted
		sum += fr.Rate
		sq += fr.Rate * fr.Rate
	}
	f.AggregateRate = sum
	if sq > 0 && len(flows) > 0 {
		f.Jain = sum * sum / (float64(len(flows)) * sq)
	}
	if bottleneckRate > 0 {
		f.Utilization = sum / bottleneckRate
	}
	return f
}

// Jain computes Jain's fairness index over a rate vector: 1 when all
// rates are equal, 1/n when a single flow takes everything, 0 for an
// empty or all-zero vector.
func Jain(rates []float64) float64 {
	var sum, sq float64
	for _, r := range rates {
		sum += r
		sq += r * r
	}
	if sq == 0 || len(rates) == 0 || math.IsNaN(sum) {
		return 0
	}
	return sum * sum / (float64(len(rates)) * sq)
}

// Digest hashes every observable output of the run — each flow's trace,
// counters, delivery count and bottleneck attribution, plus the
// aggregate fairness statistics. Two executions of the same Config must
// digest identically, whether they ran serially or on concurrent
// engines: the multi-flow determinism contract in one string.
func (r Result) Digest() string {
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "dur %v flows %d\n", r.Duration, len(r.Flows))
	for _, f := range r.Flows {
		_, _ = fmt.Fprintf(h, "flow %d %s rate %v thr %v p %v rtt %v pred %v link %+v\n",
			f.ID, f.Variant, f.Rate, f.Throughput, f.P, f.MeanRTT, f.Predicted, f.Link)
		_, _ = fmt.Fprintf(h, "stats %+v delivered %d\n", f.Result.Stats, f.Result.Delivered)
		for i := range f.Result.Trace {
			_, _ = fmt.Fprintf(h, "%v\n", f.Result.Trace[i])
		}
	}
	_, _ = fmt.Fprintf(h, "fair %+v\n", r.Fairness)
	return hex.EncodeToString(h.Sum(nil))
}

// Run builds a fresh engine for cfg, runs it for cfg.Duration simulated
// seconds and returns the per-flow and aggregate results.
//
//pftk:deterministic
func Run(cfg Config) Result {
	var eng sim.Engine
	m := New(&eng, cfg)
	m.Start()
	eng.RunUntil(cfg.Duration)
	return m.Finish()
}

// SymmetricFlows returns n identical flow specs — the symmetric
// shared-bottleneck population of the fairness experiments.
func SymmetricFlows(n int, template FlowSpec) []FlowSpec {
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = template
	}
	return flows
}
