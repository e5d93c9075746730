package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions. Spans of one op share Op; Parent is the span
// that caused this one (0 for an op's root span). IDs start at 1.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Span     int    `json:"span"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps the spans of a traced run in memory; they are written out
// once, when the run ends.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id.
func (r *recorder) begin(op, parent int, name string) int {
	now := time.Since(r.t0).Nanoseconds()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Workload: r.workload, Op: op, Span: id, Parent: parent, Name: name, StartNS: now})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	s := &r.spans[id-1]
	s.EndNS = now
	return time.Duration(s.dur())
}

func (r *recorder) snapshot() []span {
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (r *recorder) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+r.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Span] = s.dur() - covered
	}
	return self
}

// spanMillis groups the durations of the spans named name, in milliseconds.
func spanMillis(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}
