package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear ("HDR-lite"). Values 0..2·histSub-1
// get an exact bucket each; beyond that, every power-of-two octave is split
// into histSub linear sub-buckets, bounding the relative error of any
// recorded value by 1/histSub (25%). With int64 inputs the largest octave
// is 2^62, giving histBuckets buckets total — small enough to keep a full
// array per stripe and never allocate on the record path.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	histBuckets = (63-histSubBits)*histSub + histSub
	// histStripes spreads concurrent Record calls over independent count
	// arrays so goroutines don't serialize on the same cache lines. A
	// snapshot merges the stripes. Must be a power of two.
	histStripes = 8
)

// histStripe is one shard of a histogram's counts. All fields are updated
// with atomics only.
type histStripe struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
}

// Histogram is a lock-free, log-bucketed distribution of int64 samples
// (typically nanoseconds). The record path is a pseudo-random stripe pick
// plus three atomic adds: no locks, no allocation — cheap enough for
// per-request serving paths. The zero value is usable; a nil *Histogram is
// an allocation-free no-op like the rest of obs. Construct through
// Registry.Histogram so the exposition layer knows about it.
type Histogram struct {
	name   string
	labels string // pre-rendered `k="v",...`, "" when unlabelled
	unit   Unit

	stripes [histStripes]histStripe
}

// bucketIndex maps a sample to its bucket. Negative samples clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := (u >> uint(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits)*histSub + int(sub) + histSub
}

// bucketUpper returns the largest sample value bucket i holds (inclusive).
func bucketUpper(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	j := i - histSub
	exp := uint(j/histSub + histSubBits)
	sub := uint64(j % histSub)
	lower := uint64(1)<<exp + sub<<(exp-histSubBits)
	upper := lower + uint64(1)<<(exp-histSubBits) - 1
	if upper > math.MaxInt64 {
		upper = math.MaxInt64
	}
	return int64(upper)
}

// Record adds one sample. Safe from any goroutine; allocation-free; no-op
// on a nil histogram.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	// rand/v2's global generator is per-thread runtime state: no lock, no
	// allocation. The stripe pick only spreads contention; counts land in
	// the same logical bucket regardless.
	s := &h.stripes[rand.Uint64()&(histStripes-1)]
	atomic.AddInt64(&s.counts[bucketIndex(v)], 1)
	atomic.AddInt64(&s.count, 1)
	atomic.AddInt64(&s.sum, v)
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// RecordSince records the elapsed time since t0 in nanoseconds.
func (h *Histogram) RecordSince(t0 time.Time) { h.Record(int64(time.Since(t0))) }

// HistBucket is one non-empty bucket of a snapshot. Upper is the largest
// sample the bucket holds (inclusive), in the histogram's raw unit; Count
// is that bucket's own count (not cumulative).
type HistBucket struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram, stripes merged.
type HistSnapshot struct {
	Name    string       `json:"name"`
	Labels  string       `json:"labels,omitempty"`
	Unit    Unit         `json:"-"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot merges the stripes into an exportable copy. Nil-safe.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Name: h.name, Labels: h.labels, Unit: h.unit}
	var merged [histBuckets]int64
	for si := range h.stripes {
		st := &h.stripes[si]
		for b := range st.counts {
			merged[b] += atomic.LoadInt64(&st.counts[b])
		}
		s.Count += atomic.LoadInt64(&st.count)
		s.Sum += atomic.LoadInt64(&st.sum)
	}
	for b, n := range merged {
		if n != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Upper: bucketUpper(b), Count: n})
		}
	}
	return s
}

// Gauge is an instantaneous int64 level (queue depth, busy workers,
// retained jobs). All methods are atomic and no-ops on a nil receiver.
// Construct through Registry.Gauge.
type Gauge struct {
	name   string
	labels string
	v      int64
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, delta)
}

// Inc and Dec move the level by ±1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Get returns the current level (0 for a nil gauge).
func (g *Gauge) Get() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}
