package obs

import "context"

// Context plumbing for traces. The context is the one route by which a trace
// reaches the nexus pipeline: a caller attaches it with WithTrace and every
// stage reads it back with TraceFrom, so concurrent requests each carry their
// own — a server typically builds one short-lived Trace per request with
// NewWithCounters over its shared counter set and reads it once it is closed.
// A context without a trace keeps the nil no-op path.

type traceCtxKey struct{}

// WithTrace returns a context carrying tr. A nil tr returns ctx unchanged.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}
