// Package reno implements a packet-level TCP Reno sender and receiver on
// top of the sim engine and netem links — the stand-in for the commercial
// TCP stacks (SunOS, Linux, Irix, ...) the paper measured.
//
// The implementation covers slow start, congestion avoidance, duplicate-ACK
// detection with fast retransmit, optional fast recovery (classic Reno) or
// Tahoe behavior, retransmission timeouts with exponential backoff capped
// at 64·T0, Karn's algorithm and Jacobson/Karels RTO estimation with a
// configurable coarse timer tick, delayed ACKs, and the receiver's
// advertised window. Per-OS quirks observed by the paper (Linux
// fast-retransmit after two duplicate ACKs, the Irix 2^5 backoff cap,
// SunOS Tahoe-derived behavior) are expressed as Variant presets.
//
// Sequence numbers count packets, matching the paper's packet-based model;
// every transmission is logged to a trace.Trace for the analysis package.
package reno

import (
	"fmt"
	"math"
	"strings"
)

// RTO estimation constants (Jacobson/Karels).
const (
	rttAlpha = 1.0 / 8 // SRTT gain
	rttBeta  = 1.0 / 4 // RTTVAR gain
)

// RTOEstimator tracks smoothed RTT and variance and derives the
// retransmission timeout, with optional coarse-clock quantization like the
// BSD 500 ms timer wheel that shapes the large T0 values in Table II.
type RTOEstimator struct {
	// MinRTO and MaxRTO clamp the computed timeout (seconds).
	MinRTO, MaxRTO float64
	// Tick, when positive, rounds the timeout up to a multiple of the
	// tick, emulating a coarse retransmission timer.
	Tick float64
	// InitialRTO is used before the first RTT sample (RFC 6298: 3 s).
	InitialRTO float64

	srtt   float64
	rttvar float64
	ok     bool
}

// NewRTOEstimator returns an estimator with the given clamps and tick and
// a 3-second initial RTO.
func NewRTOEstimator(minRTO, maxRTO, tick float64) *RTOEstimator {
	return &RTOEstimator{MinRTO: minRTO, MaxRTO: maxRTO, Tick: tick, InitialRTO: 3}
}

// Sample feeds one RTT measurement (seconds). Non-positive and NaN samples
// are ignored.
func (e *RTOEstimator) Sample(rtt float64) {
	if !(rtt > 0) || math.IsNaN(rtt) {
		return
	}
	if !e.ok {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.ok = true
		return
	}
	err := rtt - e.srtt
	e.rttvar = (1-rttBeta)*e.rttvar + rttBeta*math.Abs(err)
	e.srtt = (1-rttAlpha)*e.srtt + rttAlpha*rtt
}

// HasSample reports whether at least one RTT measurement was absorbed.
func (e *RTOEstimator) HasSample() bool { return e.ok }

// SRTT returns the smoothed RTT, or 0 before the first sample.
func (e *RTOEstimator) SRTT() float64 { return e.srtt }

// RTTVar returns the smoothed RTT deviation, or 0 before the first sample.
func (e *RTOEstimator) RTTVar() float64 { return e.rttvar }

// RTO returns the current base retransmission timeout (before exponential
// backoff): SRTT + 4·RTTVAR, clamped to [MinRTO, MaxRTO] and rounded up to
// the timer tick.
func (e *RTOEstimator) RTO() float64 {
	rto := e.InitialRTO
	if e.ok {
		rto = e.srtt + 4*e.rttvar
	}
	if rto < e.MinRTO {
		rto = e.MinRTO
	}
	if e.MaxRTO > 0 && rto > e.MaxRTO {
		rto = e.MaxRTO
	}
	if e.Tick > 0 {
		rto = math.Ceil(rto/e.Tick) * e.Tick
	}
	return rto
}

// Variant captures the per-OS protocol quirks the paper's trace-analysis
// programs had to account for (Section III and IV).
type Variant struct {
	// Name labels the variant in reports.
	Name string
	// DupThreshold is the number of duplicate ACKs that triggers fast
	// retransmit: 3 for standard Reno, 2 for the Linux stacks of the
	// paper's era.
	DupThreshold int
	// MaxBackoffExp caps the timeout backoff factor at 2^MaxBackoffExp:
	// 6 (64·T0) for standard Reno, 5 for the Irix stacks the paper
	// observed.
	MaxBackoffExp int
	// Tahoe, when set, disables fast recovery: after a fast retransmit
	// the window collapses to one and slow start follows (the paper
	// notes SunOS TCP is Tahoe-derived).
	Tahoe bool
	// NewReno, when set, keeps the sender in fast recovery across
	// partial ACKs (RFC 6582): each ACK that advances but does not
	// reach the recovery point triggers an immediate retransmission of
	// the next hole instead of waiting for three fresh duplicate ACKs
	// or an RTO. The paper predates NewReno's RFC and models plain
	// Reno; this variant exists for the fast-recovery ablation the
	// paper lists as future work.
	NewReno bool
}

// Standard protocol variants.
var (
	// Reno is standard 4.4BSD-style Reno.
	Reno = Variant{Name: "reno", DupThreshold: 3, MaxBackoffExp: 6}
	// Tahoe models Tahoe-derived stacks (SunOS 4.1.x): fast retransmit
	// without fast recovery.
	Tahoe = Variant{Name: "tahoe", DupThreshold: 3, MaxBackoffExp: 6, Tahoe: true}
	// Linux models the Linux 2.0.x stacks: fast retransmit after only
	// two duplicate ACKs.
	Linux = Variant{Name: "linux", DupThreshold: 2, MaxBackoffExp: 6}
	// Irix models the Irix 6.2 stacks: exponential backoff limited to
	// 2^5 instead of 2^6.
	Irix = Variant{Name: "irix", DupThreshold: 3, MaxBackoffExp: 5}
	// NewReno is Reno with RFC 6582 partial-ACK handling in fast
	// recovery — the fast-recovery refinement the paper lists as future
	// work.
	NewReno = Variant{Name: "newreno", DupThreshold: 3, MaxBackoffExp: 6, NewReno: true}
)

// variants is the name table over the standard variants.
var variants = [...]Variant{Reno, Tahoe, Linux, Irix, NewReno}

// ParseVariant returns the standard variant called name: "reno",
// "tahoe", "linux", "irix" or "newreno". Any other name is an error
// that lists the valid ones.
func ParseVariant(name string) (Variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.Name
	}
	return Variant{}, fmt.Errorf("unknown variant %q (valid: %s)", name, strings.Join(names, ", "))
}

// normalize fills zero fields with Reno defaults so the zero Variant is
// usable.
func (v Variant) normalize() Variant {
	if v.DupThreshold <= 0 {
		v.DupThreshold = Reno.DupThreshold
	}
	if v.MaxBackoffExp <= 0 {
		v.MaxBackoffExp = Reno.MaxBackoffExp
	}
	if v.Name == "" {
		v.Name = Reno.Name
	}
	return v
}
