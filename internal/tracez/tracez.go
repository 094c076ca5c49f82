// Package tracez is the request-scoped tracing layer of the
// reproduction: value-type span contexts recorded into a lock-sharded
// ring buffer, with JSONL export and an HTML+JSON /debug/tracez view of
// recent, slow and errored spans per name.
//
// The design follows internal/obs's nil-handle convention: a nil
// *Tracer is the disabled tracer. Starting a span on it returns the
// zero Span, every Span method on a disabled span is a no-op, and the
// disabled path costs one nil check with zero allocations — components
// hold and use tracers unconditionally, there is no separate "enabled"
// flag to branch on.
//
// # Span model
//
// A trace is a tree of spans sharing one trace ID. Spans are plain
// values (no per-span heap allocation at Start): StartRoot opens a new
// trace, Span.StartChild opens a child in the same trace, and End
// stamps the duration and commits an immutable Record into the ring.
// Attributes are bounded (maxSpanAttrs) so a span never grows.
//
// # Clock discipline
//
// The tracer's clock is pluggable. The default wall tracer stamps spans
// with Unix seconds; simulation contexts pass the engine clock instead
// (Options.Now), so spans recorded inside a deterministic simulation
// carry engine time and are themselves deterministic — the golden test
// for the /debug/tracez JSON view relies on exactly this.
//
// # Ring discipline
//
// Completed spans land in a fixed ring sharded by span ID, each shard
// behind its own mutex, so concurrent End calls from many request
// goroutines contend only 1/shards of the time. The ring overwrites
// oldest-first; Dropped counts what was overwritten. Nothing in the
// package allocates after the rings are built except the Record commit
// itself (the attribute copy), which only runs when tracing is on.
package tracez

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpanAttrs bounds the attributes one span can carry; SetAttr calls
// beyond the cap are dropped (and counted on the tracer).
const maxSpanAttrs = 8

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Record is one completed span as stored in the ring and exported over
// JSONL and /debug/tracez.
type Record struct {
	// Trace groups the spans of one request or one run.
	Trace uint64 `json:"trace"`
	// Span is the span's own ID, unique within the tracer.
	Span uint64 `json:"span"`
	// Parent is the parent span ID; 0 for root spans.
	Parent uint64 `json:"parent,omitempty"`
	// Name is the operation ("POST /v1/predict", "eval", ...).
	Name string `json:"name"`
	// Start is the span's start time in the tracer's clock: Unix
	// seconds for the wall tracer, engine seconds for sim tracers.
	Start float64 `json:"start"`
	// Duration is the span length in seconds.
	Duration float64 `json:"duration"`
	// Err is the span's error annotation, empty when it succeeded.
	Err string `json:"err,omitempty"`
	// Attrs are the span's annotations, in SetAttr order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// shard is one mutex-protected slice of the span ring.
type shard struct {
	mu sync.Mutex
	//pftk:guardedby mu
	ring []Record
	//pftk:guardedby mu
	next int
	//pftk:guardedby mu
	total uint64
}

// Options sizes a Tracer. The zero value is usable: 8 shards of 512
// records on the wall clock.
type Options struct {
	// Shards is the number of ring shards (rounded up to a power of
	// two; default 8).
	Shards int
	// PerShard is the ring capacity of each shard (default 512).
	PerShard int
	// Now supplies span timestamps in seconds; nil means wall time
	// (Unix seconds). Simulation contexts pass the engine clock so
	// spans stay deterministic and wall-time-free.
	Now func() float64
}

// Tracer records completed spans into a sharded ring. A nil *Tracer is
// the disabled tracer: StartRoot returns a disabled span and every
// accessor returns zeros.
type Tracer struct {
	now       func() float64
	sim       bool // true when Options.Now was supplied (deterministic clock)
	shardMask uint64
	shards    []shard
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64
	attrDrops atomic.Uint64
}

// New builds a tracer from o.
func New(o Options) *Tracer {
	shards := o.Shards
	if shards < 1 {
		shards = 8
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	per := o.PerShard
	if per < 1 {
		per = 512
	}
	t := &Tracer{
		now:       o.Now,
		sim:       o.Now != nil,
		shardMask: uint64(n - 1),
		shards:    make([]shard, n),
	}
	if t.now == nil {
		t.now = wallSeconds
	}
	for i := range t.shards {
		t.shards[i].ring = make([]Record, 0, per)
	}
	return t
}

// wallSeconds is the default clock: Unix time in seconds.
func wallSeconds() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// NowSeconds returns the tracer's current clock reading, or 0 on the
// disabled tracer. Callers use it to timestamp work (queue submission)
// that later becomes a span via StartRootAt/StartChildAt.
func (t *Tracer) NowSeconds() float64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// StartRoot opens a new trace with one root span. On the disabled
// tracer it returns the zero (disabled) span.
func (t *Tracer) StartRoot(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.StartRootAt(name, t.now())
}

// StartRootAt is StartRoot with an explicit start time in the tracer's
// clock — the shape used for queue-wait spans, whose start (submission)
// precedes the goroutine that opens them.
func (t *Tracer) StartRootAt(name string, start float64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:    t,
		trace: t.nextTrace.Add(1),
		id:    t.nextSpan.Add(1),
		name:  name,
		start: start,
	}
}

// Span is one in-flight span. The zero Span is the disabled span: every
// method is a no-op, so code holds and annotates spans unconditionally.
// Spans are values; use them from one goroutine at a time (handing a
// span to the goroutine that ends it is fine, concurrent SetAttr is
// not).
type Span struct {
	tr     *Tracer
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  float64
	err    string
	nattr  int
	attrs  [maxSpanAttrs]Attr
	ended  bool
}

// Enabled reports whether the span records anywhere.
func (sp *Span) Enabled() bool { return sp.tr != nil }

// Trace returns the span's trace ID (0 when disabled).
func (sp *Span) Trace() uint64 { return sp.trace }

// ID returns the span's own ID (0 when disabled).
func (sp *Span) ID() uint64 { return sp.id }

// StartChild opens a child span in the same trace, starting now.
func (sp *Span) StartChild(name string) Span {
	if sp.tr == nil {
		return Span{}
	}
	return sp.StartChildAt(name, sp.tr.now())
}

// StartChildAt is StartChild with an explicit start time in the
// tracer's clock.
func (sp *Span) StartChildAt(name string, start float64) Span {
	t := sp.tr
	if t == nil {
		return Span{}
	}
	return Span{
		tr:     t,
		trace:  sp.trace,
		id:     t.nextSpan.Add(1),
		parent: sp.id,
		name:   name,
		start:  start,
	}
}

// SetAttr annotates the span. Attributes beyond the per-span cap are
// dropped and counted on the tracer.
func (sp *Span) SetAttr(key, value string) {
	if sp.tr == nil || sp.ended {
		return
	}
	if sp.nattr >= maxSpanAttrs {
		sp.tr.attrDrops.Add(1)
		return
	}
	sp.attrs[sp.nattr] = Attr{Key: key, Value: value}
	sp.nattr++
}

// SetError marks the span failed. The last non-empty message wins.
func (sp *Span) SetError(msg string) {
	if sp.tr == nil || sp.ended || msg == "" {
		return
	}
	sp.err = msg
}

// End stamps the duration and commits the span to the ring. Ending a
// disabled or already-ended span is a no-op, so exactly-once commit
// holds even when an error path and a defer both call End.
func (sp *Span) End() {
	t := sp.tr
	if t == nil || sp.ended {
		return
	}
	sp.ended = true
	rec := Record{
		Trace:    sp.trace,
		Span:     sp.id,
		Parent:   sp.parent,
		Name:     sp.name,
		Start:    sp.start,
		Duration: t.now() - sp.start,
		Err:      sp.err,
	}
	if sp.nattr > 0 {
		rec.Attrs = make([]Attr, sp.nattr)
		copy(rec.Attrs, sp.attrs[:sp.nattr])
	}
	t.commit(rec)
}

// commit appends one record to the shard owned by its span ID,
// overwriting oldest-first once the ring is full.
func (t *Tracer) commit(rec Record) {
	s := &t.shards[rec.Span&t.shardMask]
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, rec)
	} else {
		s.ring[s.next] = rec
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
		}
	}
	s.total++
	s.mu.Unlock()
}

// Len returns the number of records currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// Total returns the number of spans ever committed.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.total
		s.mu.Unlock()
	}
	return n
}

// Dropped returns the number of committed spans the ring has already
// overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var total, kept uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		total += s.total
		kept += uint64(len(s.ring))
		s.mu.Unlock()
	}
	return total - kept
}

// AttrDrops returns the number of SetAttr calls dropped by the per-span
// attribute cap.
func (t *Tracer) AttrDrops() uint64 {
	if t == nil {
		return 0
	}
	return t.attrDrops.Load()
}

// Snapshot copies every retained record, sorted by (Start, Span) so the
// output is deterministic for a deterministic clock. The slice is
// freshly allocated and safe to retain.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out = append(out, s.ring...)
		s.mu.Unlock()
	}
	sortRecords(out)
	return out
}

// sortRecords orders by (Start, Span): span IDs are unique, so the
// order is total and stable across runs of a deterministic clock.
// Ordered comparisons only — ties fall through to the span ID without a
// raw float equality test.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Start < b.Start {
			return true
		}
		if a.Start > b.Start {
			return false
		}
		return a.Span < b.Span
	})
}
