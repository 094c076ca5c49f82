package sim

import (
	"testing"

	"pftk/internal/pkt"
)

// The fixed-delay lane benchmarks model the N = 1000 shared-bottleneck
// run's event mix: 1000 flows, each keeping one packet in flight that
// is re-sent a fixed delay after every delivery, and each owning three
// retransmission-style timers (3000 pending heap events) that rearm
// themselves when they fire; every third delivery also restarts one of
// its flow's timers (a cancel plus a heap push). One op is one Step.
// The heap sub-benchmark schedules deliveries on the zero Lane, the
// engine as it was before lanes; the lanes sub-benchmark gives each
// delay its own lane.

const (
	laneBenchFlows     = 1000
	laneBenchTimers    = 3 // per flow
	laneBenchBaseDelay = 0.04
)

// benchFixedDelay runs the mix with every flow on one delay (distinct
// false: all deliveries share a lane) or on 1000 distinct delays
// (distinct true: one lane per flow, the lane heap's worst case).
func benchFixedDelay(b *testing.B, distinct, lanes bool) {
	var e Engine
	rng := NewRNG(1)
	timers := make([]*Timer, 0, laneBenchFlows*laneBenchTimers)
	for i := 0; i < laneBenchFlows*laneBenchTimers; i++ {
		period := 0.2 + 0.8*rng.Float64()
		var tm *Timer
		tm = e.NewTimer(func() { tm.Reset(period) })
		tm.Reset(period * rng.Float64())
		timers = append(timers, tm)
	}
	delays := make([]float64, laneBenchFlows)
	laneOf := make([]Lane, laneBenchFlows)
	for i := range delays {
		delays[i] = laneBenchBaseDelay
		if distinct {
			delays[i] += float64(i) * 1e-5
		}
		if lanes {
			laneOf[i] = e.Lane(delays[i])
		}
	}
	var deliver func(pkt.Packet)
	send := func(p pkt.Packet, at float64) {
		e.ScheduleLanePacket(laneOf[p.Flow], at, deliver, p)
	}
	deliver = func(p pkt.Packet) {
		if p.Seq%3 == 0 {
			timers[int(p.Flow)*laneBenchTimers+int(p.Seq/3)%laneBenchTimers].Reset(0.5)
		}
		p.Seq++
		send(p, e.Now()+delays[p.Flow])
	}
	for i := 0; i < laneBenchFlows; i++ {
		send(pkt.Packet{Flow: int32(i)}, delays[i]*float64(i)/laneBenchFlows)
	}
	// Warm the arena, heap and lane rings past their growth phase.
	for i := 0; i < 200000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained")
		}
	}
}

// BenchmarkSimFixedDelayLanes: all 1000 flows share one delivery delay,
// so every delivery rides a single lane.
func BenchmarkSimFixedDelayLanes(b *testing.B) {
	b.Run("heap", func(b *testing.B) { benchFixedDelay(b, false, false) })
	b.Run("lanes", func(b *testing.B) { benchFixedDelay(b, false, true) })
}

// BenchmarkSimFixedDelayLanesDistinct: 1000 distinct delivery delays,
// one lane per flow, each holding a single event — the lanes gain no
// batching and Step pays the lane heap's O(log 1000).
func BenchmarkSimFixedDelayLanesDistinct(b *testing.B) {
	b.Run("heap", func(b *testing.B) { benchFixedDelay(b, true, false) })
	b.Run("lanes", func(b *testing.B) { benchFixedDelay(b, true, true) })
}
