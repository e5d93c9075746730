package colstore_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"nexus/internal/colstore"
	"nexus/internal/kg"
	"nexus/internal/workload"
)

// BenchmarkFromCSV times the load path every binary runs, FromCSV then
// Drain, over generated Flights CSVs: 50,000 rows (the benchmark's
// flights_rows inputs, inside the inference sample) and 200,000 rows (past
// it). It reports time and allocated bytes per row.
func BenchmarkFromCSV(b *testing.B) {
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	for _, rows := range []int{50000, 200000} {
		var csv bytes.Buffer
		if err := workload.FlightsCSV(world, workload.Config{Rows: rows, Seed: 12}, &csv); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				st, err := colstore.FromCSV(bytes.NewReader(csv.Bytes()), colstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Drain(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perRow := float64(b.N) * float64(rows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRow, "B/row")
		})
	}
}
