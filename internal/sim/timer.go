package sim

// Timer is a reusable rearmable timer: one callback, captured once at
// construction, scheduled again and again without allocating. Rearming a
// pending timer implicitly cancels the previous deadline, so callers like
// a TCP sender's retransmission timeout can Reset on every ACK with zero
// per-rearm garbage.
//
// Timers are generation-safe: after the timer fires, the handle it kept
// goes stale, so a Stop or Reset racing the timer's own fire (including
// from inside the callback) can never cancel an unrelated event that
// recycled the same arena slot.
//
// A Timer belongs to the single goroutine driving its Engine, like the
// Engine itself.
type Timer struct {
	eng *Engine
	fn  func()
	ev  Event
}

// NewTimer returns a stopped timer that will run fn each time an armed
// deadline expires. The one callback allocation happens here; Reset and
// Stop are allocation-free thereafter.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	return &Timer{eng: e, fn: fn}
}

// Reset (re)arms the timer to fire after delay d seconds, cancelling any
// pending deadline first. A negative or NaN delay panics (see
// Engine.After). It reports whether a pending deadline was cancelled.
func (t *Timer) Reset(d float64) bool {
	cancelled := t.eng.Cancel(t.ev)
	t.ev = t.eng.After(d, t.fn)
	return cancelled
}

// Stop cancels the pending deadline, if any, and reports whether one was
// cancelled. Stopping an unarmed or already-fired timer is a no-op.
func (t *Timer) Stop() bool { return t.eng.Cancel(t.ev) }

// Pending reports whether a deadline is currently armed.
func (t *Timer) Pending() bool { return t.eng.Scheduled(t.ev) }
