package netem

import (
	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// MultiHop chains several links into one logical direction: a packet
// traverses hop 0, then hop 1, and so on, accumulating each hop's
// serialization, queueing, delay and loss. It models real Internet paths
// — where the bottleneck is one hop among many and loss can occur at any
// of them — more faithfully than a single composite link.
type MultiHop struct {
	hops []*Link
}

// NewMultiHop builds the chain from per-hop configurations, in order from
// sender to receiver.
func NewMultiHop(eng *sim.Engine, hops ...LinkConfig) *MultiHop {
	m := &MultiHop{}
	for _, cfg := range hops {
		m.hops = append(m.hops, NewLink(eng, cfg))
	}
	return m
}

// NumHops returns the number of hops.
func (m *MultiHop) NumHops() int { return len(m.hops) }

// Send offers a packet to the first hop; deliver fires when (and if) it
// exits the last.
func (m *MultiHop) Send(payload pkt.Packet, deliver func(pkt.Packet)) {
	if len(m.hops) == 0 {
		deliver(payload)
		return
	}
	m.forward(0, payload, deliver)
}

func (m *MultiHop) forward(hop int, payload pkt.Packet, deliver func(pkt.Packet)) {
	if hop == len(m.hops)-1 {
		m.hops[hop].Send(payload, deliver)
		return
	}
	m.hops[hop].Send(payload, func(p pkt.Packet) {
		m.forward(hop+1, p, deliver)
	})
}

// Stats aggregates the per-hop counters: offered at the first hop,
// delivered from the last, and drops summed across hops.
func (m *MultiHop) Stats() LinkStats {
	var agg LinkStats
	if len(m.hops) == 0 {
		return agg
	}
	agg.Offered = m.hops[0].Stats().Offered
	agg.Delivered = m.hops[len(m.hops)-1].Stats().Delivered
	for _, h := range m.hops {
		st := h.Stats()
		agg.RandomDrops += st.RandomDrops
		agg.QueueDrops += st.QueueDrops
		if st.MaxQueue > agg.MaxQueue {
			agg.MaxQueue = st.MaxQueue
		}
	}
	return agg
}
