package sim

import (
	"math"

	"pftk/internal/pkt"
)

// Lane names one of the engine's FIFO event lanes. A lane holds events
// that arrive already in (time, seq) order: each is scheduled a fixed
// delay after the current time, so, the clock being monotone, every new
// event fires no earlier than the lane's tail. Such events need no heap
// sift. A lane is a ring buffer, and Step fires the smaller of the timer
// heap's top and the earliest lane head, which keeps the global firing
// order exactly that of one heap over all events.
//
// The zero Lane names no lane: scheduling on it uses the heap.
type Lane int32

// laneEvent is one queued lane event. It carries its own callback and
// payload: lane events cannot be cancelled, so they need no arena slot
// or generation-counted handle.
type laneEvent struct {
	at    float64
	seq   uint64
	fn    func()
	pktFn func(pkt.Packet)
	pkt   pkt.Packet
}

// lane is a growable ring of events in (at, seq) order. Its capacity is
// a power of two, so wrapping is a mask.
type lane struct {
	buf  []laneEvent
	head int
	n    int
}

// tail returns the newest queued event; the lane must be non-empty.
func (l *lane) tail() *laneEvent {
	return &l.buf[(l.head+l.n-1)&(len(l.buf)-1)]
}

// push appends ev behind the tail.
//
//pftk:hotpath
func (l *lane) push(ev laneEvent) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// pop removes and returns the head, dropping the vacated entry's
// callback references so the lane never pins caller memory.
//
//pftk:hotpath
func (l *lane) pop() laneEvent {
	ev := l.buf[l.head]
	l.buf[l.head].fn, l.buf[l.head].pktFn = nil, nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// grow doubles the ring, linearizing the queued events.
func (l *lane) grow() {
	newCap := 2 * len(l.buf)
	if newCap < 4 {
		newCap = 4
	}
	buf := make([]laneEvent, newCap)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf = buf
	l.head = 0
}

// Lane returns the lane for events scheduled d seconds after the
// current time, creating it on first use. Every caller asking for the
// same d shares one lane, so N links with one propagation delay feed a
// single ring. Lanes are keyed by the delay's bit pattern.
func (e *Engine) Lane(d float64) Lane {
	key := math.Float64bits(d)
	if ln, ok := e.laneKeys[key]; ok {
		return ln
	}
	if e.laneKeys == nil {
		e.laneKeys = make(map[uint64]Lane)
	}
	e.lanes = append(e.lanes, lane{})
	ln := Lane(len(e.lanes))
	e.laneKeys[key] = ln
	return ln
}

// ScheduleLane runs fn at absolute time at, queued on lane ln when at is
// no earlier than the lane's tail. An earlier time (a clamped or
// shrunken delay) or the zero Lane falls back to the heap, so the
// choice of lane never changes when or in which order events fire.
// Unlike Schedule it returns no handle: lane events cannot be
// cancelled. Scheduling rules, hooks and flight-recorder entries match
// Schedule's exactly.
//
//pftk:hotpath
func (e *Engine) ScheduleLane(ln Lane, at float64, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.scheduleLane(ln, at, fn, nil, pkt.Packet{})
}

// ScheduleLanePacket is ScheduleLane for a packet-carrying callback:
// the typed payload rides with the event (in a lane entry, or in the
// heap event's arena slot), so hot paths that deliver a packet (link
// propagation) need neither a per-event closure nor an interface box.
// The zero Lane schedules fn(p) on the heap.
//
//pftk:hotpath
func (e *Engine) ScheduleLanePacket(ln Lane, at float64, fn func(pkt.Packet), p pkt.Packet) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.scheduleLane(ln, at, nil, fn, p)
}

// scheduleLane queues one event on a lane, or on the heap when the lane
// cannot take it in order.
//
//pftk:hotpath
func (e *Engine) scheduleLane(ln Lane, at float64, fn func(), pktFn func(pkt.Packet), p pkt.Packet) {
	e.checkTime(at)
	i := int32(ln) - 1
	if i < 0 {
		e.pushHeap(at, fn, pktFn, p)
		return
	}
	l := &e.lanes[i]
	if l.n > 0 && at < l.tail().at {
		e.pushHeap(at, fn, pktFn, p)
		return
	}
	seq := e.nextSeq
	e.nextSeq++
	l.push(laneEvent{at: at, seq: seq, fn: fn, pktFn: pktFn, pkt: p})
	e.laneLen++
	if l.n == 1 {
		//pftklint:ignore hotalloc lane-heap growth is amortized; capacity tracks the number of lanes
		e.laneHeap = append(e.laneHeap, node{at: at, seq: seq, id: i})
		e.laneSiftUp(len(e.laneHeap) - 1)
	}
	e.noteScheduled(at, seq)
}

// stepLane fires the head of the lane at the root of the lane heap.
//
//pftk:hotpath
func (e *Engine) stepLane() {
	root := &e.laneHeap[0]
	l := &e.lanes[root.id]
	ev := l.pop()
	e.laneLen--
	if l.n > 0 {
		h := &l.buf[l.head]
		root.at, root.seq = h.at, h.seq
	} else {
		last := len(e.laneHeap) - 1
		e.laneHeap[0] = e.laneHeap[last]
		e.laneHeap = e.laneHeap[:last]
	}
	if len(e.laneHeap) > 1 {
		e.laneSiftDown(0)
	}
	e.fire(ev.at, ev.seq, ev.fn, ev.pktFn, ev.pkt)
}

// --- lane heap ---
//
// The non-empty lanes, ordered by their heads' (at, seq); node.id is
// the lane index. Only the root's head ever changes (Step pops the
// globally earliest lane event), and a lane joins only when it turns
// non-empty, so a binary heap without position tracking suffices and a
// step costs O(log lanes), not a scan over them.

func (e *Engine) laneSiftUp(i int) {
	h := e.laneHeap
	n := h[i]
	for i > 0 {
		p := (i - 1) >> 1
		if !nodeLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
}

func (e *Engine) laneSiftDown(i int) {
	h := e.laneHeap
	n := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && nodeLess(h[c+1], h[c]) {
			c++
		}
		if !nodeLess(h[c], n) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = n
}
