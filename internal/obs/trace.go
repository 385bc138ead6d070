package obs

import (
	"context"
	"sync"
	"time"
)

// Trace accumulates per-stage timings for one request. It is created
// by the serving layer's request middleware, carried in the request
// context, and read back at response time to feed stage histograms and
// access-log lines. Safe for concurrent spans — batch elements fan out
// on a shared request context.
//
// A trace is one allocation. It keeps a running total per stage name —
// a span adds to its stage's total as it ends, so a batch's fan-out
// grows nothing — and the serving pipeline's four names, like the
// request's traced context, live inside the Trace itself. Fold reads the
// totals without building anything; Stages builds the map form, for
// callers that keep or print them (the access log, tests).
type Trace struct {
	ID string

	ctx traceCtx // the first context made for this trace

	mu     sync.Mutex
	stages []stageTime  // in first-span order; inline until a fifth name
	inline [4]stageTime // stages' first backing array
}

// stageTime is one stage's total so far.
type stageTime struct {
	name string
	dur  time.Duration
}

// NewTrace returns a trace for one request.
func NewTrace(id string) *Trace { return &Trace{ID: id} }

// add records one finished span on its stage's total.
func (t *Trace) add(name string, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.stages {
		if t.stages[i].name == name {
			t.stages[i].dur += dur
			return
		}
	}
	if t.stages == nil {
		t.stages = t.inline[:0]
	}
	t.stages = append(t.stages, stageTime{name, dur})
}

// Fold calls fn with each stage's name and the total time attributed
// to it, in first-span order; a stage spanned more than once (batch
// elements, retries) has been summed. It works on a snapshot, which
// fits the stack unless a fifth stage name appeared.
func (t *Trace) Fold(fn func(name string, total time.Duration)) {
	var snap [len(t.inline)]stageTime
	t.mu.Lock()
	stages := append(snap[:0], t.stages...)
	t.mu.Unlock()
	for _, st := range stages {
		fn(st.name, st.dur)
	}
}

// Stages returns the stage totals as a map; the per-request path uses
// Fold.
func (t *Trace) Stages() map[string]time.Duration {
	out := map[string]time.Duration{}
	t.Fold(func(name string, total time.Duration) { out[name] = total })
	return out
}

type traceKey struct{}

// traceCtx is context.WithValue for the one key this package looks
// up, as a type FromContext recognises without a Value call.
type traceCtx struct {
	context.Context
	tr *Trace
}

func (c *traceCtx) Value(key any) any {
	if key == (traceKey{}) {
		return c.tr
	}
	return c.Context.Value(key)
}

// ContextWithTrace attaches t to ctx. The first context made for a
// trace lives inside the trace and costs no allocation.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.ctx
	if c.tr != nil {
		c = new(traceCtx)
	}
	*c = traceCtx{ctx, t}
	return c
}

// FromContext returns the request's trace, or nil if the context is
// untraced (direct library calls, tests).
func FromContext(ctx context.Context) *Trace {
	if c, ok := ctx.(*traceCtx); ok {
		return c.tr
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Span is one in-flight stage timing. It is a value type: starting and
// ending a span allocates nothing, and a span started on an untraced
// context is a no-op.
type Span struct {
	tr    *Trace
	name  string
	start time.Time
}

// StartSpan begins timing the named stage on ctx's trace. Call End on
// the returned span when the stage finishes; on an untraced context
// both calls are no-ops.
func StartSpan(ctx context.Context, name string) Span {
	return StartSpanAt(ctx, name, time.Time{})
}

// StartSpanAt is StartSpan for a stage that began at an instant the
// caller already read — the End of the stage before it — so stages
// that abut share a clock read. The zero time reads the clock.
func StartSpanAt(ctx context.Context, name string, at time.Time) Span {
	tr := FromContext(ctx)
	if tr == nil {
		return Span{}
	}
	if at.IsZero() {
		at = time.Now()
	}
	return Span{tr: tr, name: name, start: at}
}

// End finishes the span, records its duration on the trace and returns
// the instant it ended (the zero time on an untraced context).
func (s Span) End() time.Time {
	if s.tr == nil {
		return time.Time{}
	}
	end := time.Now()
	s.tr.add(s.name, end.Sub(s.start))
	return end
}
