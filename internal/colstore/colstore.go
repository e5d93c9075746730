// Package colstore is the paper-scale columnar data engine: a chunked,
// dictionary-encoded column store with a streaming CSV ingester, built so
// the Flights dataset at its published size (5.8M rows) flows through the
// Explain pipeline without ever materializing the raw records in memory.
//
// Layout. A table is a set of columns; each column is a sequence of
// fixed-size row chunks (DefaultChunkRows rows, the last chunk partial).
// Every chunk carries its own validity bitmap (table.Bitmap) plus one typed
// value array: float64 values, dictionary codes (int32) or bools. String
// columns are dictionary-encoded twice over: while a chunk is being filled
// its codes index a small chunk-local dictionary, and when the chunk seals
// the local entries are remapped into a table-global dictionary. Because
// chunks seal in row order and local entries are first-seen ordered, the
// global dictionary ends up in overall first-seen order — exactly the order
// table.Column.AppendString would have produced — so draining a column into
// a table.Column is a flat copy of code arrays, never a re-hash.
//
// Ingest. FromCSV streams records in a single pass (csv.Reader with
// ReuseRecord). Column types are inferred on a bounded sample of raw
// records; rows that later contradict a sampled type demote the column to
// String and backfill earlier values (losslessly inside the retained
// sample, canonically formatted past it). Non-finite numerics (NaN/Inf
// spellings) are stored as nulls: they parse as floats but would poison the
// entropy and CMI estimators downstream. Resident memory
// is bounded by the sealed chunks (tracked by a process-wide gauge,
// ResidentBytes) plus one open chunk per column and the inference sample —
// never by the size of the input.
//
// Read. A table is read once, by Drain, which hands the pipeline an
// in-memory table.Table and releases the chunks as it goes.
//
// The design follows grailbio gql's chunked columns ("arbitrarily large
// files regardless of memory"): sequential ingest, bounded residency,
// dictionary codes as the interchange currency with the counting kernel.
package colstore

import (
	"fmt"
	"sync/atomic"

	"nexus/internal/table"
)

// DefaultChunkRows is the default number of rows per chunk.
const DefaultChunkRows = 1 << 16

// residentBytes tracks sealed-chunk bytes (values, validity bitmaps,
// dictionaries) across all live colstore tables in the process. It is the
// source of the colstore_resident_chunk_bytes gauge.
var residentBytes atomic.Int64

// ResidentBytes returns the process-wide resident sealed-chunk bytes.
func ResidentBytes() int64 { return residentBytes.Load() }

// Stats summarizes one ingested table.
type Stats struct {
	// Rows is the number of ingested rows.
	Rows int64 `json:"rows"`
	// Chunks is the number of row-chunks sealed (each spanning all columns).
	Chunks int64 `json:"chunks"`
	// DictEntries is the total number of table-global dictionary entries
	// across all string columns.
	DictEntries int64 `json:"dict_entries"`
	// ChunkBytes is the resident bytes of sealed chunk storage, validity
	// bitmaps and dictionaries for this table.
	ChunkBytes int64 `json:"chunk_bytes"`
	// SourceBytesEst estimates what materializing the raw records as
	// [][]string would have held resident: field bytes plus string-header
	// and slice-header overhead.
	SourceBytesEst int64 `json:"source_bytes_est"`
}

// chunk is one fixed-size run of rows of a single column. Exactly one of
// the value arrays is populated, per the column type.
type chunk struct {
	valid  *table.Bitmap
	floats []float64
	codes  []int32
	bools  []bool
}

func newChunk(typ table.Type, capRows int) *chunk {
	ch := &chunk{valid: table.NewBitmap(0)}
	switch typ {
	case table.Float:
		ch.floats = make([]float64, 0, capRows)
	case table.String:
		ch.codes = make([]int32, 0, capRows)
	case table.Bool:
		ch.bools = make([]bool, 0, capRows)
	}
	return ch
}

func (ch *chunk) rows() int { return ch.valid.Len() }

// bytes is the resident-memory estimate of the chunk: value array plus
// packed validity words.
func (ch *chunk) bytes() int64 {
	b := int64(len(ch.floats))*8 + int64(len(ch.codes))*4 + int64(len(ch.bools))
	b += int64((ch.valid.Len()+63)/64) * 8
	return b
}

// column is one finished chunked column.
type column struct {
	name   string
	typ    table.Type
	rows   int
	chunks []*chunk
	dict   []string // table-global dictionary (String columns)
	bytes  int64    // accounted chunk+dict bytes
}

// Table is a finished chunked columnar table. Construct via FromCSV or
// Ingest.Finish; read it once, with Drain.
type Table struct {
	cols     []*column
	stats    Stats
	released bool
}

// Stats returns the ingest statistics of this table.
func (t *Table) Stats() Stats { return t.stats }

// Drain materializes the store as an in-memory table.Table and releases the
// chunks column by column as it goes, so peak residency is the flat table
// plus roughly one column of chunks: global dictionary codes are
// concatenated, never re-hashed. The store is unusable afterwards.
func (t *Table) Drain() (*table.Table, error) {
	if t.released {
		return nil, fmt.Errorf("colstore: table already drained")
	}
	out := table.New()
	for _, c := range t.cols {
		fc, err := c.drain()
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(fc); err != nil {
			return nil, err
		}
	}
	t.released = true
	t.stats.ChunkBytes = 0
	return out, nil
}

func (c *column) drain() (*table.Column, error) {
	n := c.rows
	valid := table.NewBitmap(0)
	for _, ch := range c.chunks {
		for i, m := 0, ch.rows(); i < m; i++ {
			valid.Append(ch.valid.Get(i))
		}
	}
	var (
		fc  *table.Column
		err error
	)
	switch c.typ {
	case table.Float:
		vals := make([]float64, 0, n)
		for _, ch := range c.chunks {
			vals = append(vals, ch.floats...)
		}
		fc, err = table.NewFloatColumnWithValid(c.name, vals, valid)
	case table.Bool:
		vals := make([]bool, 0, n)
		for _, ch := range c.chunks {
			vals = append(vals, ch.bools...)
		}
		fc, err = table.NewBoolColumnWithValid(c.name, vals, valid)
	case table.String:
		codes := make([]int32, 0, n)
		for _, ch := range c.chunks {
			codes = append(codes, ch.codes...)
		}
		fc, err = table.NewStringColumnFromCodes(c.name, codes, c.dict, valid)
	default:
		return nil, fmt.Errorf("colstore: column %q: unsupported type %v", c.name, c.typ)
	}
	if err != nil {
		return nil, err
	}
	residentBytes.Add(-c.bytes)
	c.bytes = 0
	c.chunks = nil
	c.dict = nil
	return fc, nil
}
