package netem

import (
	"testing"

	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// Constant-delay links deliver through the engine's fixed-delay lanes;
// every other delay process uses the heap. These tests run the same
// scenario twice, once with ConstantDelay and once with each constant
// wrapped so it is not recognized as one (heapDelay), and require the
// same deliveries, at the same times, in the same order, with the same
// flight-recorder records.

// heapDelay hides a delay process's type, forcing its link's deliveries
// onto the engine's heap.
type heapDelay struct{ DelayProcess }

// delivery is one packet arrival observed by a test sink.
type delivery struct {
	link int
	seq  uint64
	at   float64
}

// laneRun is a scenario's observable output.
type laneRun struct {
	got    []delivery
	flight []sim.FlightEvent
	fired  uint64
}

// runLaneScenario drives links sharing lanes through scripted sends and
// runtime changes. setup builds the links, with wrap applied to each
// constant delay; script runs at every integer millisecond step i with
// a send helper, until steps is reached, and the engine then drains.
func runLaneScenario(wrap func(DelayProcess) DelayProcess, setup func(eng *sim.Engine, wrap func(DelayProcess) DelayProcess) []*Link,
	steps int, script func(i int, links []*Link, send func(link int, seq uint64))) laneRun {
	var eng sim.Engine
	fr := sim.NewFlightRecorder(1 << 14)
	eng.SetFlightRecorder(fr)
	links := setup(&eng, wrap)
	var run laneRun
	sinks := make([]func(pkt.Packet), len(links))
	for i := range links {
		i := i
		sinks[i] = func(p pkt.Packet) { run.got = append(run.got, delivery{i, p.Seq, eng.Now()}) }
	}
	send := func(link int, seq uint64) { links[link].Send(pkt.Packet{Seq: seq}, sinks[link]) }
	for i := 0; i < steps; i++ {
		eng.RunUntil(float64(i) * 0.001)
		script(i, links, send)
	}
	eng.Run()
	run.flight = fr.Events()
	run.fired = eng.Fired()
	return run
}

func constant(d DelayProcess) DelayProcess { return d }
func hidden(d DelayProcess) DelayProcess   { return heapDelay{d} }

// requireSameRun compares a lane run against its heap-only twin.
func requireSameRun(t *testing.T, lanes, heap laneRun) {
	t.Helper()
	if lanes.fired != heap.fired || len(lanes.got) != len(heap.got) {
		t.Fatalf("lanes fired %d events and delivered %d packets, heap %d and %d",
			lanes.fired, len(lanes.got), heap.fired, len(heap.got))
	}
	for i := range lanes.got {
		if lanes.got[i] != heap.got[i] {
			t.Fatalf("delivery %d: lanes %+v, heap %+v", i, lanes.got[i], heap.got[i])
		}
	}
	if len(lanes.flight) != len(heap.flight) {
		t.Fatalf("flight records: lanes %d, heap %d", len(lanes.flight), len(heap.flight))
	}
	for i := range lanes.flight {
		if lanes.flight[i] != heap.flight[i] {
			t.Fatalf("flight record %d: lanes %+v, heap %+v", i, lanes.flight[i], heap.flight[i])
		}
	}
}

// TestLaneFallbackShrinkingSetDelay: link A's delay shrinks from 0.2 s
// to 0.05 s mid-stream, so its next deliveries are clamped to the last
// 0.2-s delivery and queue on the 0.05-s lane at times far beyond its
// delay. Link B, already on that lane, then schedules now + 0.05 below
// the lane's tail: those deliveries must fall back to the heap and
// still fire in global time order.
func TestLaneFallbackShrinkingSetDelay(t *testing.T) {
	setup := func(eng *sim.Engine, wrap func(DelayProcess) DelayProcess) []*Link {
		return []*Link{
			NewLink(eng, LinkConfig{Delay: wrap(ConstantDelay(0.2))}),
			NewLink(eng, LinkConfig{Rate: 2000, QueueCap: 4, Delay: wrap(ConstantDelay(0.05))}),
		}
	}
	script := func(i int, links []*Link, send func(int, uint64)) {
		if i == 100 {
			links[0].SetDelay(constantOrHidden(links[0], ConstantDelay(0.05)))
		}
		send(0, uint64(i))
		send(1, uint64(i))
	}
	lanes := runLaneScenario(constant, setup, 300, script)
	heap := runLaneScenario(hidden, setup, 300, script)
	requireSameRun(t, lanes, heap)

	// Independent of the twin: every link stays FIFO, and A's first
	// packets after the shrink arrive clamped behind its last 0.2-s one.
	last := map[int]delivery{}
	clamped := 0
	for _, d := range lanes.got {
		if p, ok := last[d.link]; ok && (d.seq < p.seq || d.at < p.at) {
			t.Fatalf("link %d delivered %+v after %+v", d.link, d, p)
		}
		last[d.link] = d
		if d.link == 0 && d.seq >= 100 && d.at > float64(d.seq)*0.001+0.05+1e-9 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no delivery was clamped by the shrunken delay")
	}
}

// constantOrHidden wraps d like the link's current delay process is
// wrapped, so a mid-run SetDelay keeps the run's lane/heap choice.
func constantOrHidden(l *Link, d DelayProcess) DelayProcess {
	if _, ok := l.Delay().(heapDelay); ok {
		return heapDelay{d}
	}
	return d
}

// TestLaneFallbackReorderWindow: during a reordering window jittered
// deliveries (on the heap) overtake one another, and the constant-delay
// deliveries that follow them unclamped must not reach the shared lane
// out of order; before, during and after the window, the link and a
// second link sharing its lane deliver through the lane.
func TestLaneFallbackReorderWindow(t *testing.T) {
	setup := func(eng *sim.Engine, wrap func(DelayProcess) DelayProcess) []*Link {
		return []*Link{
			NewLink(eng, LinkConfig{Delay: wrap(ConstantDelay(0.1))}),
			NewLink(eng, LinkConfig{Rate: 800, QueueCap: 8, Delay: wrap(ConstantDelay(0.1))}),
		}
	}
	script := func(i int, links []*Link, send func(int, uint64)) {
		switch i {
		case 50:
			links[0].SetReorder(true)
		case 100:
			links[0].SetDelay(&UniformJitterDelay{Base: 0.02, Jitter: 0.2, RNG: sim.NewRNG(3)})
		case 150:
			links[0].SetDelay(constantOrHidden(links[1], ConstantDelay(0.1)))
		case 200:
			links[0].SetReorder(false)
		}
		send(0, uint64(i))
		send(1, uint64(i))
	}
	lanes := runLaneScenario(constant, setup, 300, script)
	heap := runLaneScenario(hidden, setup, 300, script)
	requireSameRun(t, lanes, heap)

	overtaken := 0
	var prev uint64
	for _, d := range lanes.got {
		if d.link != 0 {
			continue
		}
		if d.seq < prev {
			overtaken++
		}
		prev = d.seq
	}
	if overtaken == 0 {
		t.Fatal("the reorder window produced no overtaking")
	}
}

// TestLinkLaneSteadyStateZeroAlloc: with hundreds of packets in flight
// on a constant-delay, rate-limited link, the lanes' rings are warm and
// a send plus a millisecond of event processing allocates nothing.
func TestLinkLaneSteadyStateZeroAlloc(t *testing.T) {
	var eng sim.Engine
	l := NewLink(&eng, LinkConfig{Rate: 4000, QueueCap: 64, Delay: ConstantDelay(0.5)})
	payload := pkt.Packet{Seq: 1}
	tick := func() {
		l.Send(payload, benchDeliver)
		l.Send(payload, benchDeliver)
		eng.RunUntil(eng.Now() + 0.001)
	}
	for i := 0; i < 2000; i++ {
		tick()
	}
	if n := eng.Pending(); n < 500 {
		t.Fatalf("only %d events pending; the guard needs a deep lane", n)
	}
	if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
		t.Errorf("lane steady state allocates %.1f objects per tick, want 0", allocs)
	}
}
