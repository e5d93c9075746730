package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SlowEntry is one captured slow request: identity, wall-clock cost, and
// (when the request ran under a traced pipeline) its trace's span events,
// i.e. the span lines of Trace.WriteJSONL.
type SlowEntry struct {
	// ID names the request (job id for nexusd, method+path for kgd).
	ID string `json:"id"`
	// Detail is free-form context — the SQL text, the endpoint, a status.
	Detail string `json:"detail,omitempty"`
	// Start is when the request began executing.
	Start time.Time `json:"start"`
	// DurNS is the end-to-end wall clock in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Events is the request's span events in end order (empty when the
	// request had no trace attached).
	Events []Event `json:"events,omitempty"`
}

// SlowLog retains the N slowest requests that exceeded a threshold — a
// bounded min-heap, so a long-running daemon keeps the worst offenders
// and the memory bound no matter how much traffic passes. All methods are
// safe for concurrent use and no-ops on a nil receiver. Exposed at
// GET /debug/slow and dumped as JSONL on SIGQUIT by both daemons.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	keep      int
	heap      []SlowEntry // min-heap on DurNS: heap[0] is the fastest retained
	seen      int64       // qualifying entries offered so far
}

// NewSlowLog retains the keep slowest entries at or above threshold
// (keep <= 0 selects 32). A threshold <= 0 disables the log: NewSlowLog
// returns nil, and every method on a nil *SlowLog is a no-op.
func NewSlowLog(threshold time.Duration, keep int) *SlowLog {
	if threshold <= 0 {
		return nil
	}
	if keep <= 0 {
		keep = 32
	}
	return &SlowLog{threshold: threshold, keep: keep}
}

// Threshold returns the capture threshold (0 for a nil log).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Record offers an entry and reports whether it was retained: entries
// under the threshold never are; past the retention bound the entry must
// be slower than the fastest retained one, which it then evicts. A
// retained entry gets the span events of the request's closed trace tr
// (none for a nil tr), so only a kept request pays for building them.
func (l *SlowLog) Record(e SlowEntry, tr *Trace) bool {
	if l == nil || time.Duration(e.DurNS) < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	full := len(l.heap) == l.keep
	if full && e.DurNS <= l.heap[0].DurNS {
		return false
	}
	e.Events = tr.Events()
	if !full {
		l.heap = append(l.heap, e)
		l.siftUp(len(l.heap) - 1)
		return true
	}
	l.heap[0] = e
	l.siftDown(0)
	return true
}

func (l *SlowLog) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if l.heap[p].DurNS <= l.heap[i].DurNS {
			return
		}
		l.heap[p], l.heap[i] = l.heap[i], l.heap[p]
		i = p
	}
}

func (l *SlowLog) siftDown(i int) {
	for {
		min, left, right := i, 2*i+1, 2*i+2
		if left < len(l.heap) && l.heap[left].DurNS < l.heap[min].DurNS {
			min = left
		}
		if right < len(l.heap) && l.heap[right].DurNS < l.heap[min].DurNS {
			min = right
		}
		if min == i {
			return
		}
		l.heap[i], l.heap[min] = l.heap[min], l.heap[i]
		i = min
	}
}

// Snapshot returns the retained entries, slowest first. Nil-safe.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]SlowEntry(nil), l.heap...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurNS > out[j].DurNS })
	return out
}

// Seen returns how many qualifying (over-threshold) entries were offered,
// retained or not.
func (l *SlowLog) Seen() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// WriteJSONL dumps the retained entries, slowest first, one JSON object
// per line — the SIGQUIT dump format, greppable and jq-able.
func (l *SlowLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Snapshot() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
