package obs

import (
	"sort"
	"strings"
	"sync"
)

// Unit declares how a histogram's raw int64 samples are interpreted by the
// exposition layer.
type Unit int

const (
	// UnitNone exposes bucket bounds and sums as raw integers (counts,
	// retries, sizes).
	UnitNone Unit = iota
	// UnitSeconds means samples are nanoseconds; the exposition divides
	// bounds and sums by 1e9 so scrapes see base-unit seconds.
	UnitSeconds
)

// Registry is the collection point of a process's serving metrics: one
// shared Counters set plus named histograms, gauges and gauge callbacks.
// It is what GET /metrics renders (WritePrometheus). All methods are safe
// for concurrent use and no-ops on a nil receiver — a nil *Registry hands
// out nil *Histogram / *Gauge, which no-op in turn, so instrumented code
// needs no enabled-check (the obs nil invariant).
//
// Histogram and Gauge are get-or-create and build a lookup key, so hot
// paths should call them once and keep the returned pointer; the record
// methods themselves are allocation-free.
type Registry struct {
	counters *Counters

	mu       sync.RWMutex
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	gaugeFns map[string]gaugeFn
}

type gaugeFn struct {
	name   string
	labels string
	fn     func() int64
}

// NewRegistry builds a registry over the given counter set (nil allocates
// a private one). Sharing the set with a nexus.Session's Metrics makes the
// whole pipeline's counters scrape-able alongside the serving metrics.
func NewRegistry(c *Counters) *Registry {
	if c == nil {
		c = NewCounters()
	}
	return &Registry{
		counters: c,
		hists:    map[string]*Histogram{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]gaugeFn{},
	}
}

// Counters exposes the registry's counter set (nil for a nil registry).
func (r *Registry) Counters() *Counters {
	if r == nil {
		return nil
	}
	return r.counters
}

// renderLabels turns ("outcome", "ok", "route", "explain") into
// `outcome="ok",route="explain"`. Pairs keep caller order; values are
// escaped per the Prometheus text format.
func renderLabels(labelPairs []string) string {
	if len(labelPairs) == 0 {
		return ""
	}
	if len(labelPairs)%2 != 0 {
		panic("obs: labelPairs must be key,value,...")
	}
	var b strings.Builder
	for i := 0; i < len(labelPairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labelPairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func metricKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Histogram returns the named histogram, creating it on first use. name
// must be snake_case and end with its unit suffix (_seconds for
// UnitSeconds); the exposition lint enforces this. labelPairs is an
// optional key,value,... list — each distinct label set is its own series.
func (r *Registry) Histogram(name string, unit Unit, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := metricKey(name, renderLabels(labelPairs))
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[key]; h == nil {
		h = &Histogram{name: name, labels: renderLabels(labelPairs), unit: unit}
		r.hists[key] = h
	}
	return h
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := metricKey(name, renderLabels(labelPairs))
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[key]; g == nil {
		g = &Gauge{name: name, labels: renderLabels(labelPairs)}
		r.gauges[key] = g
	}
	return g
}

// SetGaugeFunc registers a callback evaluated at exposition time — the
// natural shape for levels the owner can read but not eventfully track
// (queue depth and busy workers from len(chan)). Re-registering
// a name replaces the callback.
func (r *Registry) SetGaugeFunc(name string, fn func() int64, labelPairs ...string) {
	if r == nil || fn == nil {
		return
	}
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	r.gaugeFns[metricKey(name, labels)] = gaugeFn{name: name, labels: labels, fn: fn}
	r.mu.Unlock()
}

// histSnapshots returns stable-ordered snapshots of every histogram.
func (r *Registry) histSnapshots() []HistSnapshot {
	r.mu.RLock()
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.RUnlock()
	out := make([]HistSnapshot, len(hs))
	for i, h := range hs {
		out[i] = h.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// gaugeValue is one gauge series at exposition time.
type gaugeValue struct {
	name, labels string
	value        int64
}

func (r *Registry) gaugeValues() []gaugeValue {
	r.mu.RLock()
	out := make([]gaugeValue, 0, len(r.gauges)+len(r.gaugeFns))
	fns := make([]gaugeFn, 0, len(r.gaugeFns))
	for _, g := range r.gauges {
		out = append(out, gaugeValue{name: g.name, labels: g.labels, value: g.Get()})
	}
	for _, f := range r.gaugeFns {
		fns = append(fns, f)
	}
	r.mu.RUnlock()
	for _, f := range fns { // call outside the lock: fn may take other locks
		out = append(out, gaugeValue{name: f.name, labels: f.labels, value: f.fn()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// StageSink projects the spans of a per-request Trace, once it is closed,
// into the registry's per-stage latency histograms: every span whose base
// name (the part before the first space — "ned Country" → "ned",
// "iteration 3" → "iteration") is a known pipeline stage records its
// duration into pipeline_stage_seconds{stage="..."}. This is how the
// paper's per-phase runtime breakdown (extraction vs. pruning vs. MCIMR
// vs. subgroup search) becomes a first-class serving metric without any
// new instrumentation in the pipeline itself. Unknown span names are
// ignored, so metric cardinality stays bounded no matter what a trace
// emits. Safe for concurrent use by many traces.
type StageSink struct {
	stages map[string]*Histogram
}

// PipelineStages are the span base names the StageSink projects into
// pipeline_stage_seconds, i.e. the sequential backbone of an Explain.
var PipelineStages = []string{
	"parse", "prepare", "execute-query", "encode-exposure-outcome",
	"input-candidates", "kg-extract", "ned", "kg-prefetch", "kg-walk",
	"core-explain", "offline-prune", "online-prune", "relevance-pass",
	"mcimr", "iteration", "final-score", "responsibility",
	"subgroup-search",
}

// NewStageSink builds the sink with one histogram per known stage,
// pre-created so recording never allocates a lookup key.
func NewStageSink(r *Registry) *StageSink {
	s := &StageSink{stages: make(map[string]*Histogram, len(PipelineStages))}
	for _, st := range PipelineStages {
		label := strings.ReplaceAll(st, "-", "_")
		s.stages[st] = r.Histogram("pipeline_stage_seconds", UnitSeconds, "stage", label)
	}
	return s
}

// Observe records the spans of a closed trace's snapshot (Trace.Close's
// return), each through Emit.
func (s *StageSink) Observe(snap Snapshot) { s.observe(snap.Root) }

func (s *StageSink) observe(d *SpanData) {
	if d == nil {
		return
	}
	s.Emit(Event{Type: "span", Name: d.Name, DurNS: d.DurNS})
	for _, c := range d.Children {
		s.observe(c)
	}
}

// Emit records one span event's duration when its span is a known stage;
// everything else (unknown spans, a counters event) is dropped.
func (s *StageSink) Emit(e Event) {
	if e.Type != "span" {
		return
	}
	base := e.Name
	if i := strings.IndexByte(base, ' '); i >= 0 {
		base = base[:i]
	}
	if h, ok := s.stages[base]; ok {
		h.Record(e.DurNS)
	}
}
