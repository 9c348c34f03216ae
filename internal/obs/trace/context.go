package trace

import "context"

type ctxKey struct{}

// ContextWith returns a context carrying the span as the ambient parent
// for downstream child spans.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the ambient span, or nil when the context carries
// none.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
