// Package colstore is the repository's one CSV ingester: FromCSV streams the
// records in a single pass (csv.Reader with ReuseRecord) straight into typed,
// dictionary-encoded table.Columns, so the Flights dataset at its published
// size (5.8M rows) loads without ever holding the raw records in memory.
//
// Column types are inferred on a bounded sample of raw records; rows that
// later contradict a sampled type demote the column to String and replay
// earlier values (losslessly inside the retained sample, canonically
// formatted past it). Non-finite numerics (NaN/Inf spellings) are stored as
// nulls: they parse as floats but would poison the entropy and CMI
// estimators downstream. A string column has one dictionary, in first-seen
// order, and each entry is a copy of its field, so no column pins a csv
// record. What stays resident is the columns plus the inference sample,
// never the records past it.
//
// A table is read once, by Drain, which hands the pipeline its
// table.Table.
package colstore

import (
	"fmt"

	"nexus/internal/table"
)

// Stats summarizes one ingested table.
type Stats struct {
	// Rows is the number of ingested rows.
	Rows int64 `json:"rows"`
	// DictEntries is the total number of dictionary entries across all
	// string columns.
	DictEntries int64 `json:"dict_entries"`
	// ChunkBytes is the bytes of the ingested columns: values, validity
	// bitmaps and dictionaries.
	ChunkBytes int64 `json:"chunk_bytes"`
	// SourceBytesEst estimates what materializing the raw records as
	// [][]string would have held resident: field bytes plus string-header
	// and slice-header overhead.
	SourceBytesEst int64 `json:"source_bytes_est"`
}

// Table is an ingested table. Construct it with FromCSV; read it once, with
// Drain.
type Table struct {
	tbl   *table.Table
	stats Stats
}

// Stats returns the ingest statistics of this table.
func (t *Table) Stats() Stats { return t.stats }

// Drain hands the ingested columns over as a table.Table. It succeeds once;
// the Table holds nothing afterwards.
func (t *Table) Drain() (*table.Table, error) {
	if t.tbl == nil {
		return nil, fmt.Errorf("colstore: table already drained")
	}
	out := t.tbl
	t.tbl = nil
	return out, nil
}

// columnBytes is what an ingested column holds: its value array, its packed
// validity words and its dictionary entries (bytes plus a string header).
func columnBytes(c *table.Column) int64 {
	perRow := map[table.Type]int64{table.Float: 8, table.String: 4, table.Bool: 1}[c.Typ]
	b := int64(c.Len())*perRow + int64((c.Len()+63)/64)*8
	for _, s := range c.Dict {
		b += int64(len(s)) + 16
	}
	return b
}
