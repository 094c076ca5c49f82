package sim

// Event-pool edge cases: the arena/free-list/generation machinery behind
// the zero-allocation engine rewrite. These tests pin the safety
// properties the pool must keep while recycling slots — stale handles are
// inert, FIFO ordering survives recycling, and a long randomized
// schedule/cancel/lane soak agrees event-for-event with the original
// container/heap implementation kept below as an oracle.

import (
	"container/heap"
	"strings"
	"testing"

	"pftk/internal/pkt"
)

// TestCancelThenRescheduleSlotReuse: cancelling an event recycles its
// arena slot; a later Schedule must reuse that slot (LIFO free list), and
// the stale handle from the cancelled event must not be able to cancel
// the slot's new occupant.
func TestCancelThenRescheduleSlotReuse(t *testing.T) {
	var e Engine
	stale := e.Schedule(1, nop)
	if !e.Cancel(stale) {
		t.Fatal("first Cancel should succeed")
	}
	fired := false
	fresh := e.Schedule(2, func() { fired = true })
	if got := e.PoolSize(); got != 1 {
		t.Fatalf("PoolSize = %d, want 1 (slot must be reused, not grown)", got)
	}
	if e.Cancel(stale) {
		t.Error("stale handle cancelled the slot's new occupant")
	}
	if !e.Scheduled(fresh) {
		t.Error("fresh event lost its slot to a stale cancel")
	}
	e.Run()
	if !fired {
		t.Error("fresh event never fired")
	}
}

// TestTimerResetInsideOwnCallback: a Timer that rearms itself from inside
// its own fire callback must behave like a periodic timer — each Reset
// observes the just-fired deadline as already gone (no pending cancel)
// and arms a fresh one.
func TestTimerResetInsideOwnCallback(t *testing.T) {
	var e Engine
	count := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		count++
		if tm.Pending() {
			t.Error("timer still pending inside its own callback")
		}
		if count < 3 {
			if tm.Reset(1) {
				t.Error("Reset inside the fire callback cancelled a phantom deadline")
			}
		}
	})
	tm.Reset(1)
	e.Run()
	if count != 3 {
		t.Errorf("timer fired %d times, want 3", count)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
}

// TestStaleTimerStopAfterSlotReuse: once a timer fires, its internal
// handle is stale. If another event recycles the same arena slot, Stop on
// the fired timer must not cancel that unrelated event.
func TestStaleTimerStopAfterSlotReuse(t *testing.T) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	e.Run() // timer fires; its slot returns to the free list
	other := e.Schedule(5, nop)
	if got := e.PoolSize(); got != 1 {
		t.Fatalf("PoolSize = %d, want 1 (other must reuse the timer's slot)", got)
	}
	if tm.Stop() {
		t.Error("Stop on a fired timer reported a cancel")
	}
	if !e.Scheduled(other) {
		t.Error("stale timer Stop cancelled an unrelated event in the reused slot")
	}
	if n := e.Run(); n != 1 {
		t.Errorf("fired %d, want 1", n)
	}
}

// TestEqualTimesFIFOAcrossRecycling: FIFO ordering of simultaneous events
// is carried by the sequence number, which must keep increasing across
// slot recycling. Three rounds of same-time batches all drawing from the
// same recycled slots must each fire in schedule order.
func TestEqualTimesFIFOAcrossRecycling(t *testing.T) {
	var e Engine
	for round := 0; round < 3; round++ {
		at := float64(round + 1)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			e.Schedule(at, func() { order = append(order, i) })
		}
		e.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("round %d: simultaneous events out of FIFO order: %v", round, order)
			}
		}
	}
	if got := e.PoolSize(); got != 8 {
		t.Errorf("PoolSize = %d, want 8 (rounds must recycle, not grow)", got)
	}
}

// TestScheduleStepSteadyStateZeroAlloc is the tentpole guard: once the
// arena and heap are warm, a schedule+fire cycle allocates nothing.
func TestScheduleStepSteadyStateZeroAlloc(t *testing.T) {
	var e Engine
	fill(&e, 64)
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(500, func() {
		e.Schedule(e.Now()+1, nop)
		if !e.Step() {
			t.Fatal("scheduled event did not fire")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Step allocates %.1f objects per op, want 0", allocs)
	}
}

// TestTimerResetZeroAlloc: rearming a warm timer is allocation-free —
// the property that lets the Reno sender Reset its RTO on every ACK.
func TestTimerResetZeroAlloc(t *testing.T) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	allocs := testing.AllocsPerRun(500, func() {
		tm.Reset(1)
	})
	if allocs != 0 {
		t.Errorf("Timer.Reset allocates %.1f objects per op, want 0", allocs)
	}
}

// TestAfterNegativeDelayPanicMessage: After with a negative delay must
// report the offending delay itself, not a confusing absolute-time
// comparison ("schedule at %g before now %g") computed from it.
func TestAfterNegativeDelayPanicMessage(t *testing.T) {
	var e Engine
	e.Schedule(10, nop)
	e.Run() // advance the clock so at = now + d stays positive
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for negative delay")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "negative delay -0.5") {
			t.Errorf("panic %q does not name the negative delay", msg)
		}
		if strings.Contains(msg, "before now") {
			t.Errorf("panic %q still reports the misleading absolute-time comparison", msg)
		}
	}()
	e.After(-0.5, nop)
}

// BenchmarkTimerReset measures the per-rearm cost of a warm timer — the
// sender's per-ACK RTO restart path.
func BenchmarkTimerReset(b *testing.B) {
	var e Engine
	tm := e.NewTimer(nop)
	tm.Reset(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(1)
	}
}

// --- container/heap oracle ---
//
// oracleEngine is the engine this PR replaced: a binary heap of
// per-event pointers via container/heap, one allocation per Schedule. It
// is kept verbatim in spirit (same (time, seq) ordering contract, same
// cancel semantics) as a differential-testing oracle for the pooled
// engine.

type oracleEvent struct {
	at        float64
	seq       uint64
	fn        func()
	index     int
	cancelled bool
	fired     bool
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[i].at > h[j].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type oracleEngine struct {
	now     float64
	heap    oracleHeap
	nextSeq uint64
	stopped bool
	// hooks and flight mirror the engine's Hooks and FlightRecorder so
	// the soak can compare them entry for entry.
	hooks  []hookRec
	flight []FlightEvent
}

// hookRec is one observed hook call: kind 's' (Scheduled), 'f'
// (EventFired) or 'c' (Cancelled), the time argument and the queue
// depth.
type hookRec struct {
	kind    byte
	at      float64
	pending int
}

func (o *oracleEngine) schedule(at float64, fn func()) *oracleEvent {
	ev := &oracleEvent{at: at, seq: o.nextSeq, fn: fn}
	o.nextSeq++
	heap.Push(&o.heap, ev)
	o.flight = append(o.flight, FlightEvent{Kind: FlightSchedule, Now: o.now, At: at, Seq: ev.seq})
	o.hooks = append(o.hooks, hookRec{'s', at, len(o.heap)})
	return ev
}

func (o *oracleEngine) cancel(ev *oracleEvent) bool {
	if ev.cancelled || ev.fired {
		return false
	}
	ev.cancelled = true
	o.flight = append(o.flight, FlightEvent{Kind: FlightCancel, Now: o.now, At: ev.at, Seq: ev.seq})
	heap.Remove(&o.heap, ev.index)
	o.hooks = append(o.hooks, hookRec{'c', 0, len(o.heap)})
	return true
}

func (o *oracleEngine) step() bool {
	if len(o.heap) == 0 {
		return false
	}
	ev := heap.Pop(&o.heap).(*oracleEvent)
	ev.fired = true
	o.now = ev.at
	o.flight = append(o.flight, FlightEvent{Kind: FlightFire, Now: o.now, At: ev.at, Seq: ev.seq})
	ev.fn()
	o.hooks = append(o.hooks, hookRec{'f', o.now, len(o.heap)})
	return true
}

func (o *oracleEngine) runUntil(deadline float64) int {
	n := 0
	o.stopped = false
	for !o.stopped && len(o.heap) > 0 && o.heap[0].at <= deadline {
		o.step()
		n++
	}
	if !o.stopped && o.now < deadline {
		o.now = deadline
	}
	return n
}

// TestRandomizedScheduleCancelSoakVsOracle drives the pooled engine and
// the container/heap oracle through the same long pseudo-random sequence
// of operations and requires identical fire order, cancel outcomes,
// clocks, Pending counts, hook calls (with their queue depths) and
// flight-recorder records throughout. The operations:
//   - heap events at coarse future times, so the seq tiebreak is
//     exercised across slot recycling;
//   - lane events on three fixed-delay lanes, a quarter of them at an
//     earlier time than the delay gives, which must fall back to the
//     heap when they land before the lane's tail, plus pushes on the
//     zero Lane;
//   - cancels through live and stale handles;
//   - single steps and RunUntil deadlines;
//   - events that, when fired, schedule a follow-up lane event or Stop
//     the run.
func TestRandomizedScheduleCancelSoakVsOracle(t *testing.T) {
	rng := NewRNG(0xdecade)
	var e Engine
	var o oracleEngine
	var got, want []int
	var hooks []hookRec
	e.SetHooks(Hooks{
		Scheduled:  func(at float64, pending int) { hooks = append(hooks, hookRec{'s', at, pending}) },
		EventFired: func(now float64, pending int) { hooks = append(hooks, hookRec{'f', now, pending}) },
		Cancelled:  func() { hooks = append(hooks, hookRec{'c', 0, e.Pending()}) },
	})
	const flightCap = 4096
	fr := NewFlightRecorder(flightCap)
	e.SetFlightRecorder(fr)

	delays := []float64{0.25, 0.5, 1.75}
	lanes := make([]Lane, len(delays))
	for i, d := range delays {
		lanes[i] = e.Lane(d)
	}

	// Fired events append their token; every fifth top-level token
	// schedules a follow-up lane event (token -tok-1) and every
	// eleventh stops the run. Both engines take the same decisions.
	var engineCb func(tok int) func()
	engineCb = func(tok int) func() {
		return func() {
			got = append(got, tok)
			if tok >= 0 && tok%5 == 0 {
				k := tok % len(delays)
				e.ScheduleLane(lanes[k], e.Now()+delays[k], engineCb(-tok-1))
			}
			if tok >= 0 && tok%11 == 0 {
				e.Stop()
			}
		}
	}
	var oracleCb func(tok int) func()
	oracleCb = func(tok int) func() {
		return func() {
			want = append(want, tok)
			if tok >= 0 && tok%5 == 0 {
				k := tok % len(delays)
				o.schedule(o.now+delays[k], oracleCb(-tok-1))
			}
			if tok >= 0 && tok%11 == 0 {
				o.stopped = true
			}
		}
	}
	deliver := func(p pkt.Packet) { engineCb(int(p.Seq))() }

	type pair struct {
		ev Event
		oe *oracleEvent
	}
	var handles []pair // includes stale entries on purpose
	token := 0
	var lanePushes, fallbacks int

	const ops = 30000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // schedule a heap event at a coarse future time
			tok := token
			token++
			at := e.Now() + float64(rng.Intn(40))/4
			ev := e.Schedule(at, engineCb(tok))
			oe := o.schedule(at, oracleCb(tok))
			handles = append(handles, pair{ev, oe})
		case op < 6: // a lane event, sometimes earlier than its delay
			tok := token
			token++
			k := rng.Intn(len(delays) + 1)
			ln, at := Lane(0), e.Now()+float64(rng.Intn(8))/8
			if k < len(delays) {
				ln = lanes[k]
				if rng.Intn(4) > 0 {
					at = e.Now() + delays[k]
				}
			}
			before := len(e.heap)
			if tok%2 == 0 {
				e.ScheduleLane(ln, at, engineCb(tok))
			} else {
				e.ScheduleLanePacket(ln, at, deliver, pkt.Packet{Seq: uint64(tok)})
			}
			if ln != 0 {
				lanePushes++
				if len(e.heap) > before {
					fallbacks++
				}
			}
			o.schedule(at, oracleCb(tok))
		case op < 8: // cancel a random handle, possibly stale
			if len(handles) == 0 {
				continue
			}
			p := handles[rng.Intn(len(handles))]
			cp, co := e.Cancel(p.ev), o.cancel(p.oe)
			if cp != co {
				t.Fatalf("op %d: Cancel disagreement: pooled=%v oracle=%v", i, cp, co)
			}
		case op < 9: // fire one event on both
			se, so := e.Step(), o.step()
			if se != so {
				t.Fatalf("op %d: Step disagreement: pooled=%v oracle=%v", i, se, so)
			}
		default: // run to a deadline, possibly cut short by Stop
			deadline := e.Now() + float64(rng.Intn(8))/4
			ne, no := e.RunUntil(deadline), o.runUntil(deadline)
			if int(ne) != no {
				t.Fatalf("op %d: RunUntil fired %d, oracle %d", i, ne, no)
			}
		}
		if e.Pending() != len(o.heap) {
			t.Fatalf("op %d: pending %d vs oracle %d", i, e.Pending(), len(o.heap))
		}
		if e.Now() < o.now || e.Now() > o.now {
			t.Fatalf("op %d: clock %g vs oracle %g", i, e.Now(), o.now)
		}
	}
	for e.Step() {
		if !o.step() {
			t.Fatal("oracle drained before pooled engine")
		}
	}
	if o.step() {
		t.Fatal("pooled engine drained before oracle")
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, oracle fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fire order diverges at %d: pooled=%d oracle=%d", i, got[i], want[i])
		}
	}
	if len(hooks) != len(o.hooks) {
		t.Fatalf("%d hook calls, oracle %d", len(hooks), len(o.hooks))
	}
	for i := range hooks {
		if hooks[i] != o.hooks[i] {
			t.Fatalf("hook call %d: %+v, oracle %+v", i, hooks[i], o.hooks[i])
		}
	}
	if fr.Total() != uint64(len(o.flight)) {
		t.Fatalf("flight recorder noted %d records, oracle %d", fr.Total(), len(o.flight))
	}
	tail := o.flight[len(o.flight)-flightCap:]
	for i, ev := range fr.Events() {
		if ev != tail[i] {
			t.Fatalf("flight record %d: %+v, oracle %+v", i, ev, tail[i])
		}
	}
	if lanePushes == 0 || fallbacks == 0 || fallbacks == lanePushes {
		t.Fatalf("lane pushes %d, heap fallbacks %d: the soak must exercise both", lanePushes, fallbacks)
	}
	t.Logf("soak: %d events fired in lockstep, %d lane pushes (%d fell back to the heap), pool working set %d slots",
		len(got), lanePushes, fallbacks, e.PoolSize())
}
