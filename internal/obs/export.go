package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// Event is one record of a closed trace's event form (Trace.Events,
// Trace.WriteJSONL, SlowEntry.Events): one per ended span, plus a final
// counters record in the JSONL file.
type Event struct {
	Type       string           `json:"type"` // "span" | "counters"
	Name       string           `json:"name,omitempty"`
	Path       string           `json:"path,omitempty"`
	DurNS      int64            `json:"dur_ns,omitempty"`
	AllocBytes int64            `json:"alloc_bytes,omitempty"`
	Attrs      []Attr           `json:"attrs,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// WriteJSONL writes the closed trace as JSON Lines: its span events in the
// order the spans ended, then one counters event. It returns the first
// write error.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range append(t.Events(), Event{Type: "counters", Counters: t.Counters().Snapshot()}) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SpanData is the exported form of one span in a Snapshot.
type SpanData struct {
	Name       string      `json:"name"`
	StartNS    int64       `json:"start_ns"` // relative to the trace start
	DurNS      int64       `json:"dur_ns"`
	AllocBytes int64       `json:"alloc_bytes,omitempty"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanData `json:"children,omitempty"`
}

// Snapshot is a point-in-time export of a trace (Trace.Close returns it):
// the span tree plus the counter values. It marshals to JSON directly (the
// export consumed by the harness and bench_test.go).
type Snapshot struct {
	Name     string           `json:"name"`
	TotalNS  int64            `json:"total_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Root     *SpanData        `json:"root,omitempty"`
}

func (t *Trace) snapshot() Snapshot {
	t.mu.Lock()
	root := exportSpan(t.root, t.start)
	t.mu.Unlock()
	return Snapshot{
		Name:     t.root.Name,
		TotalNS:  root.DurNS,
		Counters: t.counters.Snapshot(),
		Root:     root,
	}
}

func exportSpan(s *Span, origin time.Time) *SpanData {
	d := &SpanData{
		Name:    s.Name,
		StartNS: s.start.Sub(origin).Nanoseconds(),
		DurNS:   s.durationLocked().Nanoseconds(),
	}
	if s.ended && s.alloc1 >= s.alloc0 {
		d.AllocBytes = int64(s.alloc1 - s.alloc0)
	}
	if len(s.attrs) > 0 {
		d.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		d.Children = append(d.Children, exportSpan(c, origin))
	}
	return d
}

// WriteTree renders the snapshot as a human-readable phase tree: every span
// with its duration, its share of the total, allocation delta and
// attributes, followed by the sorted counters.
func (s Snapshot) WriteTree(w io.Writer) error {
	if s.Root == nil {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	total := float64(s.TotalNS)
	if total <= 0 {
		total = 1
	}
	var b strings.Builder
	var render func(d *SpanData, prefix string, last bool, depth int)
	render = func(d *SpanData, prefix string, last bool, depth int) {
		connector, childPrefix := "", ""
		if depth > 0 {
			if last {
				connector, childPrefix = prefix+"└─ ", prefix+"   "
			} else {
				connector, childPrefix = prefix+"├─ ", prefix+"│  "
			}
		}
		pad := 44 - utf8.RuneCountInString(connector)
		if pad < len(d.Name) {
			pad = len(d.Name)
		}
		line := fmt.Sprintf("%s%-*s %10s %6.1f%%", connector, pad, d.Name,
			time.Duration(d.DurNS).Round(time.Microsecond), 100*float64(d.DurNS)/total)
		if d.AllocBytes > 0 {
			line += fmt.Sprintf("  %8s", fmtBytes(d.AllocBytes))
		}
		if len(d.Attrs) > 0 {
			parts := make([]string, len(d.Attrs))
			for i, a := range d.Attrs {
				parts[i] = a.Key + "=" + a.Value
			}
			line += "  {" + strings.Join(parts, " ") + "}"
		}
		b.WriteString(line)
		b.WriteByte('\n')
		for i, c := range d.Children {
			render(c, childPrefix, i == len(d.Children)-1, depth+1)
		}
	}
	render(s.Root, "", true, 0)
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		names := make([]string, 0, len(s.Counters))
		for n := range s.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-40s %d\n", n, s.Counters[n])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
