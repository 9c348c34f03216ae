package obs

import (
	"context"
	"time"

	"github.com/patternsoflife/pol/internal/obs/trace"
)

// MetricStageSeconds is the shared histogram family for pipeline stage
// durations: the batch dataflow stages, the live engine's merge/publish/
// journal work, and any future stage all record here under distinct
// stage labels, so one scrape shows where pipeline time goes.
const MetricStageSeconds = "pol_pipeline_stage_seconds"

// Span measures one timed region of a pipeline stage. Spans are values:
// start with StartSpan, finish with End. A zero Span (nil registry) is a
// no-op, so instrumented code needs no nil checks. When started through
// StartSpanCtx with an ambient trace in the context, the stage span is
// also recorded as a child trace span, so one trace shows
// ingest→clean→trip→merge→publish end to end alongside the aggregate
// histograms.
type Span struct {
	hist *Histogram
	ts   *trace.Span
	t0   time.Time
}

// StartSpan begins a timed span recording into the stage-duration
// histogram of reg under the given stage label. A nil registry returns a
// no-op span.
func StartSpan(reg *Registry, stage string) Span {
	if reg == nil {
		return Span{}
	}
	return Span{
		hist: reg.Histogram(MetricStageSeconds, Labels{"stage": stage}),
		t0:   time.Now(),
	}
}

// StartSpanCtx is StartSpan joined to the ambient trace: when ctx
// carries a trace span (and tr is non-nil), the stage also records a
// child trace span named "stage.<stage>", and the returned context
// carries it so nested stages chain. Without an ambient span or tracer
// it behaves exactly like StartSpan.
func StartSpanCtx(ctx context.Context, tr *trace.Tracer, reg *Registry, stage string) (context.Context, Span) {
	s := StartSpan(reg, stage)
	if parent := trace.FromContext(ctx); parent != nil && tr != nil {
		s.ts = tr.StartChild(parent, "stage."+stage)
		ctx = trace.ContextWith(ctx, s.ts)
	}
	return ctx, s
}

// End finishes the span, records its duration (with the trace ID as the
// histogram exemplar when traced), and returns it.
func (s Span) End() time.Duration {
	if s.hist == nil {
		s.ts.Finish()
		return 0
	}
	d := time.Since(s.t0)
	if s.ts != nil {
		s.ts.Finish()
		s.hist.ObserveExemplar(d.Seconds(), s.ts.Trace.String())
	} else {
		s.hist.Observe(d.Seconds())
	}
	return d
}

// ObserveStage records an already-measured stage duration — for callers
// that time work themselves (the dataflow engine's per-stage busy time).
// A nil registry is a no-op.
func ObserveStage(reg *Registry, stage string, d time.Duration) {
	if reg == nil {
		return
	}
	reg.Histogram(MetricStageSeconds, Labels{"stage": stage}).Observe(d.Seconds())
}
