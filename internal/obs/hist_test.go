package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketLayoutContiguousAndMonotonic(t *testing.T) {
	// Every bucket's upper bound must be >= its lower neighbour's, and
	// bucketIndex(bucketUpper(i)) must map back to i (the bound is the
	// largest value the bucket holds).
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucket %d upper %d not above previous %d", i, up, prev)
		}
		if got := bucketIndex(up); got != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", i, up, got)
		}
		prev = up
	}
	// Probe values round-trip: a value lands in a bucket whose bound is
	// within 25% above it (the log-linear resolution guarantee).
	for _, v := range []int64{0, 1, 7, 8, 9, 100, 12345, 1e6, 1e9, 1e12, math.MaxInt64} {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("value %d lands in bucket %d with upper %d < value", v, i, up)
		}
		if v >= 8 && float64(up) > 1.25*float64(v) {
			t.Fatalf("value %d bucket upper %d exceeds 25%% relative error", v, up)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0 (clamped)", got)
	}
	if bucketIndex(math.MaxInt64) >= histBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d out of range %d", bucketIndex(math.MaxInt64), histBuckets)
	}
}

// quantile returns an upper bound on the q-quantile of a snapshot's samples:
// the inclusive upper edge of the bucket the quantile falls in, 0 when empty.
func quantile(s HistSnapshot, q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(s.Count))), 1)
	var cum int64
	for _, b := range s.Buckets {
		if cum += b.Count; cum >= rank {
			return b.Upper
		}
	}
	return s.Buckets[len(s.Buckets)-1].Upper
}

func TestHistogramRecordAndQuantile(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("request_seconds", UnitSeconds)
	for i := 1; i <= 1000; i++ {
		h.Record(int64(i) * 1000) // 1µs .. 1ms
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	wantSum := int64(1000*1001/2) * 1000
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	// Quantile estimates are upper bounds within the 25% bucket resolution.
	for _, tc := range []struct {
		q    float64
		true int64
	}{{0.5, 500e3}, {0.99, 990e3}, {1, 1000e3}} {
		got := quantile(s, tc.q)
		if got < tc.true || float64(got) > 1.25*float64(tc.true) {
			t.Fatalf("q%.2f = %d, want in [%d, %d]", tc.q, got, tc.true, int64(1.25*float64(tc.true)))
		}
	}
	if quantile(HistSnapshot{}, 0.5) != 0 {
		t.Fatalf("quantile of empty snapshot should be 0")
	}
}

func TestHistogramConcurrentRecordStripes(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("latency_seconds", UnitSeconds)
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestNilHistogramGaugeRegistryNoOp(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.RecordDuration(time.Second)
	h.RecordSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil histogram snapshot = %+v", s)
	}
	var g *Gauge
	g.Inc()
	g.Dec()
	g.Add(7)
	if g.Get() != 0 {
		t.Fatalf("nil gauge Get = %d", g.Get())
	}
	var r *Registry
	if r.Histogram("x_seconds", UnitSeconds) != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	if r.Gauge("x") != nil {
		t.Fatal("nil registry must hand out nil gauges")
	}
	r.SetGaugeFunc("x", func() int64 { return 1 })
	if r.Counters() != nil {
		t.Fatal("nil registry Counters must be nil")
	}
}

// TestRecordPathAllocationFree pins the acceptance criterion: the
// record path — enabled or disabled (nil) — performs zero allocations.
func TestRecordPathAllocationFree(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("request_seconds", UnitSeconds)
	g := r.Gauge("queue_depth")
	var nilH *Histogram
	var nilG *Gauge
	allocs := testing.AllocsPerRun(500, func() {
		h.Record(12345)
		g.Add(1)
		g.Add(-1)
		nilH.Record(12345)
		nilG.Inc()
	})
	if allocs != 0 {
		t.Fatalf("record path allocated %v objects/op, want 0", allocs)
	}
}

func TestGaugeAddGet(t *testing.T) {
	r := NewRegistry(nil)
	g := r.Gauge("workers_busy")
	g.Add(5)
	g.Add(3)
	g.Dec()
	if got := g.Get(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	// Same name returns the same gauge; different labels a different one.
	if r.Gauge("workers_busy") != g {
		t.Fatal("same-name gauge not deduplicated")
	}
	if r.Gauge("workers_busy", "pool", "a") == g {
		t.Fatal("labelled gauge must be a distinct series")
	}
}
