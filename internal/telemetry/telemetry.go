// Package telemetry provides end-to-end distributed tracing and
// trace-correlated structured logging for the shiftex daemons.
//
// The design is deliberately minimal: a Tracer mints W3C-style trace
// contexts (propagated via the `traceparent` header over HTTP and a
// Traceparent field over the fl gob wire), spans record load-bearing
// decisions as flat key/value attributes, and finished spans land in a
// bounded ring of preallocated slots served by GET /v1/debug/traces.
// There is no sampling, no export pipeline, and no clock skew
// correction — the ring is a flight recorder for debugging one
// process, not an APM.
//
// Everything is nil-safe: a nil *Tracer or nil *Span no-ops on every
// method, so call sites pay one pointer check when tracing is off.
// The enabled path is built to be allocation-free: hot paths start
// spans in stack storage via Tracer.BeginAt, End copies the finished
// record into a preallocated ring slot, and span timestamps reuse
// instants the caller already measured (BeginAt/EndAt). The
// serving benchmark (BENCH_tracing.json) gates the enabled path at
// <=5% throughput overhead.
package telemetry

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 16-byte W3C trace ID (32 hex chars on the wire).
type TraceID [16]byte

// SpanID is an 8-byte W3C span ID (16 hex chars on the wire).
type SpanID [8]byte

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }
func (s SpanID) IsZero() bool  { return s == SpanID{} }

// MarshalJSON renders IDs as lowercase hex strings, matching the
// traceparent wire form, so /v1/debug/traces output is greppable
// against propagated headers.
func (t TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }
func (s SpanID) MarshalJSON() ([]byte, error)  { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the hex string form produced by MarshalJSON.
func (t *TraceID) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	id, ok := parseTraceID(str)
	if !ok {
		return errMalformed
	}
	*t = id
	return nil
}

func (s *SpanID) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	id, ok := parseSpanID(str)
	if !ok {
		return errMalformed
	}
	*s = id
	return nil
}

// SpanContext identifies one span within one trace. The zero value is
// invalid and means "no context".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero, per the W3C rules.
func (c SpanContext) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Attr is one key/value pair on a span. Values are pre-rendered
// strings: spans are debugging artifacts, not metrics, and keeping the
// record flat avoids interface boxing on the request path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is the immutable form of a finished span as stored in the
// ring buffer and served by /v1/debug/traces. Records are never
// mutated after End publishes them.
type SpanRecord struct {
	TraceID    TraceID   `json:"traceId"`
	SpanID     SpanID    `json:"spanId"`
	ParentID   SpanID    `json:"parentSpanId,omitempty"`
	Name       string    `json:"name"`
	Daemon     string    `json:"daemon"`
	Start      time.Time `json:"start"`
	DurationUs int64     `json:"durationUs"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// ring is a bounded span buffer of preallocated value slots: a
// monotonically increasing claim counter plus one tiny mutex per slot.
// End copies the finished record into its claimed slot, so the steady
// state allocates nothing — spans themselves can live on the caller's
// stack (see Tracer.BeginAt). Writers contend only on the claim
// counter (one atomic add); the per-slot mutexes are effectively
// uncontended and exist so readers always see whole records. Under
// wraparound a reader can observe a mix of old and new records —
// acceptable for a debug flight recorder.
type ring struct {
	slots []slot
	// mask is len(slots)-1 when the capacity is a power of two (the
	// default), replacing the modulo in put with one AND on the span
	// hot path; zero falls back to modulo for odd capacities.
	mask uint64
	next atomic.Uint64
}

// slot owns the storage for one recorded span, including its first few
// attributes, so recording a span allocates only when a fat span
// spills past the inline attribute array.
type slot struct {
	mu   sync.Mutex
	full bool
	rec  SpanRecord
	buf  [spanInlineAttrs]Attr
}

func newRing(capacity int) *ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	r := &ring{slots: make([]slot, capacity)}
	if capacity&(capacity-1) == 0 {
		r.mask = uint64(capacity - 1)
	}
	return r
}

// put records one finished span: rec's scalar fields plus its
// attributes, split as head (the span's inline array, passed as a
// transient slice so the Span can stay on the caller's stack) followed
// by rec.Attrs (heap overflow, usually nil).
func (r *ring) put(rec *SpanRecord, head []Attr) {
	i := r.next.Add(1) - 1
	if r.mask != 0 {
		i &= r.mask
	} else {
		i %= uint64(len(r.slots))
	}
	sl := &r.slots[i]
	sl.mu.Lock()
	sl.rec = *rec
	if len(rec.Attrs) == 0 {
		n := copy(sl.buf[:], head)
		sl.rec.Attrs = sl.buf[:n]
	} else {
		// A span with more attributes than the inline array (admin and
		// adaptation paths); copy to the heap rather than truncate.
		all := make([]Attr, 0, len(head)+len(rec.Attrs))
		all = append(all, head...)
		all = append(all, rec.Attrs...)
		sl.rec.Attrs = all
	}
	sl.full = true
	sl.mu.Unlock()
}

// snapshot returns private copies of all live records (callers may
// hold them indefinitely; slots are reused as the ring wraps).
func (r *ring) snapshot() []*SpanRecord {
	out := make([]*SpanRecord, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		sl.mu.Lock()
		if sl.full {
			rec := sl.rec
			rec.Attrs = append([]Attr(nil), sl.rec.Attrs...)
			out = append(out, &rec)
		}
		sl.mu.Unlock()
	}
	return out
}

// DefaultRingSize is the per-daemon span buffer capacity when the
// operator does not size it explicitly (-trace-buffer).
const DefaultRingSize = 4096

// Tracer mints spans for one daemon and owns its ring buffer. A nil
// Tracer is valid and disables tracing at the cost of one nil check
// per call site.
type Tracer struct {
	daemon string
	ring   *ring
	// idState seeds a splitmix64 sequence: ID generation is one atomic
	// add plus a few multiplies, far cheaper than crypto/rand on the
	// request path. IDs are unique per process, which is all the
	// flight recorder needs.
	idState atomic.Uint64
	// active holds an ambient span context for call paths that cannot
	// thread a context.Context (the fl wire protocol's Transport
	// interface). Set by the adaptation driver around each stage.
	active atomic.Pointer[SpanContext]
}

// NewTracer creates a tracer for the named daemon with a ring of the
// given capacity (<=0 selects DefaultRingSize).
func NewTracer(daemon string, capacity int) *Tracer {
	t := &Tracer{daemon: daemon, ring: newRing(capacity)}
	t.idState.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// Daemon returns the name the tracer stamps on every span record.
func (t *Tracer) Daemon() string {
	if t == nil {
		return ""
	}
	return t.daemon
}

// SpanCount returns the number of spans recorded since creation
// (including ones evicted from the ring). The ring's slot counter is
// exactly this number, so no separate counter is maintained — one
// fewer contended atomic on the span hot path.
func (t *Tracer) SpanCount() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.next.Load()
}

// nextID returns the next splitmix64 output.
func (t *Tracer) nextID() uint64 {
	z := t.idState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// StartSpan starts a span. If parent is valid the span continues that
// trace; otherwise it roots a new one. Nil-safe: returns nil on a nil
// tracer, and every Span method no-ops on nil.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	s := &Span{}
	t.BeginAt(s, name, parent, time.Now())
	return s
}

// BeginAt starts a span in place in caller-owned storage, typically a
// stack variable — the zero-allocation form of StartSpan for the
// request hot path (End copies the record into the ring, so the ring
// never references s and the compiler keeps s off the heap):
//
//	var span telemetry.Span
//	tracer.BeginAt(&span, "serve.route", parent, start)
//	...
//	span.End()
//
// s is reset entirely, so a loop may reuse one Span variable across
// iterations after each End. On a nil tracer s becomes the zero Span,
// whose methods all no-op. Begin-ing a span that has been started but
// not yet ended discards it unrecorded.
func (t *Tracer) BeginAt(s *Span, name string, parent SpanContext, start time.Time) {
	if t == nil {
		*s = Span{}
		return
	}
	s.tracer = t
	s.ended = false
	s.nattr = 0
	s.rec = SpanRecord{
		Name:   name,
		Daemon: t.daemon,
		Start:  start,
		SpanID: t.newSpanID(),
	}
	if parent.Valid() {
		s.rec.TraceID = parent.TraceID
		s.rec.ParentID = parent.SpanID
	} else {
		s.rec.TraceID = t.newTraceID()
	}
}

// StartRoot starts a span that roots a fresh trace.
func (t *Tracer) StartRoot(name string) *Span { return t.StartSpan(name, SpanContext{}) }

// SetActive publishes an ambient span context for ctx-less call paths
// (the fl wire). ClearActive removes it.
func (t *Tracer) SetActive(c SpanContext) {
	if t == nil {
		return
	}
	t.active.Store(&c)
}

// ClearActive removes the ambient span context.
func (t *Tracer) ClearActive() {
	if t == nil {
		return
	}
	t.active.Store(nil)
}

// Active returns the ambient span context, or the zero context when
// none is set.
func (t *Tracer) Active() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	if c := t.active.Load(); c != nil {
		return *c
	}
	return SpanContext{}
}

// Spans returns a snapshot of the ring filtered by the given options.
// A zero filter returns everything, oldest first.
func (t *Tracer) Spans(f Filter) []*SpanRecord {
	if t == nil {
		return nil
	}
	recs := t.ring.snapshot()
	out := recs[:0]
	for _, rec := range recs {
		if !f.TraceID.IsZero() && rec.TraceID != f.TraceID {
			continue
		}
		if f.MinDuration > 0 && time.Duration(rec.DurationUs)*time.Microsecond < f.MinDuration {
			continue
		}
		out = append(out, rec)
	}
	sortRecords(out)
	return out
}

// Filter selects spans from the ring.
type Filter struct {
	TraceID     TraceID       // zero = any trace
	MinDuration time.Duration // 0 = any duration
}

func sortRecords(recs []*SpanRecord) {
	// Insertion sort by start time: the ring is nearly ordered already
	// (slots fill in claim order) and capacities are small.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Start.Before(recs[j-1].Start); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// spanInlineAttrs is the attribute count a span (and a ring slot)
// stores without heap allocation; the serving hot path records at most
// four attributes per span.
const spanInlineAttrs = 4

// Span is one in-flight operation. All methods are nil-safe (and
// no-op on the zero Span); End is idempotent so rejection paths can
// close a span defensively while the happy path closes it at the
// natural boundary.
//
// The record and its first few attributes are embedded, and End copies
// the finished record into the tracer's ring — the ring never holds a
// reference to the Span. Hot paths exploit this by declaring a Span as
// a local variable and starting it in place with Tracer.BeginAt: the
// span never escapes to the heap, so tracing a request allocates
// nothing. A Span must not be copied after it is started (its record
// points into the embedded attribute array), and must not be reused
// until after End.
type Span struct {
	tracer *Tracer
	// rec.Attrs stays nil while the span is in flight — the first
	// spanInlineAttrs attributes live in inline, counted by nattr, and
	// only later attributes spill into rec.Attrs. Keeping the interior
	// pointer out of the struct matters: a self-referential slice
	// (rec.Attrs = inline[:0]) would defeat escape analysis and force
	// every hot-path span onto the heap.
	rec    SpanRecord
	inline [spanInlineAttrs]Attr
	nattr  int
	// ended is deliberately a plain bool: a span belongs to one
	// goroutine from Begin to End (the batching pipeline hands results
	// back over a channel, which orders any cross-goroutine touch), and
	// an atomic RMW costs more than the rest of End's bookkeeping on
	// paravirt hosts. Idempotence guards double-End from one goroutine
	// (defensive closes on rejection paths), not concurrent Ends.
	ended bool
}

// Context returns the span's context for propagation, or the zero
// context on a nil or zero span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// Tracer returns the tracer the span records to, or nil for a nil or
// zero span. Hot paths use it to Begin child spans in caller-owned
// storage.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Child starts a child span on the same tracer.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.StartSpan(name, s.Context())
}

// SetAttr records a string attribute. Must not be called concurrently
// with End on the same span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tracer == nil || s.ended {
		return
	}
	if s.nattr < len(s.inline) {
		s.inline[s.nattr] = Attr{Key: key, Value: value}
		s.nattr++
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, itoa(value))
}

// SetAttrBool records a boolean attribute.
func (s *Span) SetAttrBool(key string, value bool) {
	if value {
		s.SetAttr(key, "true")
	} else {
		s.SetAttr(key, "false")
	}
}

// SetError records an error on the span (nil clears nothing and is a
// no-op).
func (s *Span) SetError(err error) {
	if s == nil || s.tracer == nil || err == nil || s.ended {
		return
	}
	s.rec.Error = err.Error()
}

// End finishes the span and copies its record into the ring.
// Idempotent: only the first call records.
func (s *Span) End() {
	if s == nil || s.tracer == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.DurationUs = time.Since(s.rec.Start).Microseconds()
	s.tracer.ring.put(&s.rec, s.inline[:s.nattr])
}

// EndAt is End with a caller-supplied completion instant, for hot
// paths that already measured the operation (e.g. for a latency
// histogram) and can spare the span a second clock read.
func (s *Span) EndAt(now time.Time) {
	if s == nil || s.tracer == nil || s.ended {
		return
	}
	s.ended = true
	if d := now.Sub(s.rec.Start).Microseconds(); d > 0 {
		s.rec.DurationUs = d
	}
	s.tracer.ring.put(&s.rec, s.inline[:s.nattr])
}

// EndErr records err (if non-nil) and ends the span.
func (s *Span) EndErr(err error) {
	s.SetError(err)
	s.End()
}

// smallInts interns the formatted form of the small non-negative
// integers so the common span attributes (expert index, snapshot
// version, batch size, short queue waits) never allocate.
var smallInts [256]string

func init() {
	for i := range smallInts {
		smallInts[i] = formatInt(int64(i))
	}
}

// itoa is a minimal allocation-light int64 formatter for span attrs.
func itoa(v int64) string {
	if v >= 0 && v < int64(len(smallInts)) {
		return smallInts[v]
	}
	return formatInt(v)
}

func formatInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
