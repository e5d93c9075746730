package nexus_test

import (
	"io"
	"os"
	"strconv"
	"testing"

	"nexus/internal/colstore"
	"nexus/internal/kg"
	"nexus/internal/obs"
	"nexus/internal/workload"
)

// TestScaleIngestBoundedMemory streams generated Flights rows through the
// CSV ingester and asserts the data engine's bounded-memory claim: what
// stays resident is the typed columns, well under half of what
// materializing the CSV records would hold. 200,000 rows by default;
// NEXUS_SCALE_ROWS=5819079 runs the paper's full Flights size (allow a few
// minutes and -timeout 60m).
//
// Not t.Parallel(): at paper scale it holds ~430 MB of columns, which should
// not sit under other tests' tables.
func TestScaleIngestBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-row ingest; skipped in -short mode")
	}
	rows := 200000
	if s := os.Getenv("NEXUS_SCALE_ROWS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad NEXUS_SCALE_ROWS %q", s)
		}
		rows = v
	}

	// Generator and ingester run as a producer/consumer pair over a pipe:
	// at no point do the raw CSV bytes or records exist in full.
	world := kg.NewWorld(kg.WorldConfig{Seed: 11})
	counters := obs.NewCounters()
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(workload.FlightsCSV(world, workload.Config{Rows: rows, Seed: 12}, pw)) }()
	st, err := colstore.FromCSV(pr, colstore.Options{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}

	stats := st.Stats()
	if int(stats.Rows) != rows {
		t.Fatalf("ingested %d rows, want %d", stats.Rows, rows)
	}
	if stats.ChunkBytes*2 >= stats.SourceBytesEst {
		t.Fatalf("column bytes %d not well below materialized estimate %d", stats.ChunkBytes, stats.SourceBytesEst)
	}
	for name, want := range map[string]int64{obs.IngestRows: stats.Rows, obs.DictEntries: stats.DictEntries} {
		if got := counters.Get(name); got != want || got == 0 {
			t.Errorf("counter %s = %d, want %d (nonzero)", name, got, want)
		}
	}
	t.Logf("%d rows: %d dictionary entries, %d column bytes (materialized estimate %d)",
		rows, stats.DictEntries, stats.ChunkBytes, stats.SourceBytesEst)
}
