package reno

import (
	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// ReceiverConfig controls receiver behavior.
type ReceiverConfig struct {
	// AckEvery is the paper's b: a cumulative ACK is generated for every
	// AckEvery in-order packets (2 emulates delayed ACKs, 1 acks every
	// packet). Values < 1 default to core.DefaultB.
	AckEvery int
	// DelAckTimeout flushes a holding delayed ACK after this many
	// seconds. Zero defaults to the classic 200 ms heartbeat; negative
	// disables the timer entirely (a sender with a one-packet window
	// then recovers only via RTO, so disable it in tests only).
	DelAckTimeout float64
	// FlowID stamps outgoing ACKs so per-flow link counters attribute
	// them when several flows share a reverse link. Single-flow runs
	// leave it 0.
	FlowID int32
}

func (c ReceiverConfig) normalize() ReceiverConfig {
	if c.AckEvery < 1 {
		c.AckEvery = core.DefaultB
	}
	if c.DelAckTimeout == 0 {
		c.DelAckTimeout = 0.2
	}
	return c
}

// Receiver consumes packets from the forward link and produces cumulative
// (possibly delayed) ACKs on the reverse link. Out-of-order arrivals are
// acknowledged immediately, generating the duplicate ACKs that drive fast
// retransmit — "these ACKs are not delayed" (Section II-B).
type Receiver struct {
	cfg      ReceiverConfig
	eng      *sim.Engine
	reverse  *netem.Link
	toSender func(pkt.Packet)

	rcvNext uint64 // next in-order packet expected
	buffer  map[uint64]bool
	pending int // in-order packets not yet acknowledged
	// delTimer is a reusable delayed-ACK heartbeat; rearming allocates
	// nothing (the callback is captured once in NewReceiver).
	delTimer *sim.Timer

	received   int // total packets observed, including duplicates
	duplicates int // packets at or below rcvNext seen again
}

// NewReceiver builds a receiver that sends its ACKs over reverse and
// delivers them to the sender via toSender.
func NewReceiver(eng *sim.Engine, reverse *netem.Link, toSender func(pkt.Packet), cfg ReceiverConfig) *Receiver {
	r := &Receiver{
		cfg:      cfg.normalize(),
		eng:      eng,
		reverse:  reverse,
		toSender: toSender,
		rcvNext:  1,
		buffer:   make(map[uint64]bool),
	}
	r.delTimer = eng.NewTimer(func() {
		if r.pending > 0 {
			r.sendAck()
		}
	})
	return r
}

// Delivered returns the number of distinct packets delivered in order —
// the receiver-side count behind the paper's throughput T(p).
func (r *Receiver) Delivered() uint64 { return r.rcvNext - 1 }

// Received returns the total packets that arrived, including duplicates
// and out-of-order packets.
func (r *Receiver) Received() int { return r.received }

// Duplicates returns the number of arrivals the receiver had already seen.
func (r *Receiver) Duplicates() int { return r.duplicates }

// OnPacket handles one arriving data packet. Pass it as the forward link's
// delivery callback. Packets of other kinds (other protocols sharing the
// link) are ignored, as are data packets stamped with another flow's ID.
//
//pftk:hotpath
func (r *Receiver) OnPacket(p pkt.Packet) {
	if p.Kind != pkt.Data || p.Flow != r.cfg.FlowID {
		return // the link is shared; this packet is not ours
	}
	r.received++
	switch {
	case p.Seq == r.rcvNext:
		r.rcvNext++
		for len(r.buffer) > 0 && r.buffer[r.rcvNext] {
			delete(r.buffer, r.rcvNext)
			r.rcvNext++
		}
		r.pending++
		if r.pending >= r.cfg.AckEvery || len(r.buffer) > 0 {
			// Ack immediately at the delayed-ACK quota, or when the
			// arrival fills a hole (fast-retransmit recovery wants
			// prompt cumulative ACKs).
			r.sendAck()
		} else if r.cfg.DelAckTimeout > 0 && !r.delTimer.Pending() {
			r.delTimer.Reset(r.cfg.DelAckTimeout)
		}
	case p.Seq > r.rcvNext:
		// Out of order: buffer and emit an immediate duplicate ACK.
		if !r.buffer[p.Seq] {
			r.buffer[p.Seq] = true
		} else {
			r.duplicates++
		}
		r.sendAck()
	default:
		// Below rcvNext: a retransmission of data already received.
		r.duplicates++
		r.sendAck()
	}
}

// sendAck emits the current cumulative acknowledgment.
//
//pftk:hotpath
func (r *Receiver) sendAck() {
	r.delTimer.Stop()
	r.pending = 0
	r.reverse.Send(pkt.Packet{Seq: r.rcvNext, Kind: pkt.Ack, Flow: r.cfg.FlowID}, r.toSender)
}
