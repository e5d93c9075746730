package colstore

import (
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"

	"nexus/internal/obs"
	"nexus/internal/table"
)

// defaultSampleRows bounds the type-inference sample when Options.SampleRows
// is unset.
const defaultSampleRows = 1 << 16

// Options configures an ingest.
type Options struct {
	// SampleRows bounds the type-inference sample (1<<16 rows when <= 0).
	SampleRows int
	// Counters, when non-nil, receives the obs.IngestRows and
	// obs.DictEntries totals of the ingest.
	Counters *obs.Counters
}

// FromCSV streams a CSV input (header row first) into a table in a single
// pass. It is the repository's one CSV ingester: every binary and the
// benchmark read tables through FromCSV(...).Drain(). Column types follow
// table.InferCSVType over the inference sample; empty fields and non-finite
// numerics are nulls; string dictionaries are in first-seen order.
func FromCSV(r io.Reader, opt Options) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("colstore: empty CSV input")
	}
	if err != nil {
		return nil, err
	}
	in, err := newIngest(header, opt)
	if err != nil {
		return nil, err
	}
	in.size, in.offset = inputSize(r), cr.InputOffset
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		in.append(rec)
	}
	return in.finish()
}

// inputSize is the byte length of an input that knows it (an in-memory
// reader or a regular file), else 0.
func inputSize(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Size() int64 }:
		return r.Size()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// ingest builds a table record by record: newIngest, append for each
// record, then finish.
type ingest struct {
	opt      Options
	names    []string
	cols     []*colBuilder // nil until types are decided
	sample   [][]string    // retained raw sample for inference and demotion
	rows     int
	room     int          // rows the columns are sized for
	size     int64        // input bytes (0 when unknown)
	offset   func() int64 // input bytes read so far
	srcBytes int64
}

func newIngest(header []string, opt Options) (*ingest, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("colstore: no columns")
	}
	seen := make(map[string]bool, len(header))
	for _, name := range header {
		if seen[name] {
			return nil, fmt.Errorf("colstore: duplicate column %q", name)
		}
		seen[name] = true
	}
	if opt.SampleRows <= 0 {
		opt.SampleRows = defaultSampleRows
	}
	return &ingest{opt: opt, names: append([]string(nil), header...)}, nil
}

// append adds one record. Missing trailing fields read as empty (null); the
// record slice may be reused by the caller once append returns.
func (in *ingest) append(rec []string) {
	in.srcBytes += recordBytesEst(rec)
	if in.cols != nil {
		in.appendRecord(rec)
		return
	}
	in.sample = append(in.sample, append([]string(nil), rec...))
	if len(in.sample) >= in.opt.SampleRows {
		in.decideTypes()
	}
}

// recordBytesEst estimates the resident cost of holding one raw CSV record
// as a []string: field bytes, a 16-byte string header per field and a
// 24-byte slice header per record.
func recordBytesEst(rec []string) int64 {
	b := int64(24)
	for _, f := range rec {
		b += int64(len(f)) + 16
	}
	return b
}

// decideTypes infers every column's type over the buffered sample (the
// oracle verdict on that prefix), creates the builders and appends the
// sample. The raw sample stays resident until finish so demotions inside it
// replay losslessly.
func (in *ingest) decideTypes() {
	in.cols = make([]*colBuilder, len(in.names))
	in.room = len(in.sample)
	for j := range in.names {
		b := &colBuilder{in: in, j: j}
		if typ, any := table.InferCSVType(in.sample, j); any {
			b.decide(typ)
		}
		in.cols[j] = b
	}
	for _, rec := range in.sample {
		in.appendRecord(rec)
	}
}

func (in *ingest) appendRecord(rec []string) {
	if in.rows == in.room {
		in.grow()
	}
	for _, b := range in.cols {
		field := ""
		if b.j < len(rec) {
			field = rec[b.j]
		}
		b.append(field)
	}
	in.rows++
}

// grow sizes the columns for the rows still to come once the rows reach
// what they were sized for (first the sample). An input of known size
// expects its rows so far scaled by its bytes over the bytes read, 2 % over
// so that somewhat longer rows later still fit; any other input doubles.
// Growing by append's quarter steps instead allocates about five times the
// final columns over a paper-size input.
func (in *ingest) grow() {
	want := 2 * in.rows
	if in.size > 0 {
		want = max(in.rows+1, int(1.02*float64(in.rows)*float64(in.size)/float64(in.offset())))
	}
	for _, b := range in.cols {
		if b.col != nil {
			b.col.Grow(want - in.rows)
		}
	}
	in.room = want
}

// finish decides what is still undecided and returns the table.
func (in *ingest) finish() (*Table, error) {
	if in.cols == nil {
		// Input fit entirely inside the inference sample.
		in.decideTypes()
	}
	t := &Table{tbl: table.New(), stats: Stats{Rows: int64(in.rows), SourceBytesEst: in.srcBytes}}
	for _, b := range in.cols {
		if b.col == nil {
			// Every field was empty: an all-null String column.
			b.decide(table.String)
		}
		if err := t.tbl.AddColumn(b.col); err != nil {
			return nil, err
		}
		t.stats.DictEntries += int64(len(b.col.Dict))
		t.stats.ChunkBytes += columnBytes(b.col)
	}
	in.sample = nil
	in.opt.Counters.Add(obs.IngestRows, t.stats.Rows)
	in.opt.Counters.Add(obs.DictEntries, t.stats.DictEntries)
	return t, nil
}

// colBuilder appends one column's fields into its table.Column. Until the
// first non-empty field arrives the column is undecided: it only counts its
// rows, which become nulls once a type is decided. A decided column that
// meets a contradicting field demotes to String.
type colBuilder struct {
	in    *ingest
	j     int
	col   *table.Column // nil while undecided
	nulls int           // rows seen while undecided

	// nonFinite remembers, by row, the original spelling of numeric fields
	// stored as nulls (NaN/Inf) so a demotion to String can restore them.
	nonFinite map[int]string
}

// decide creates the column, sized like the others (first to the sample),
// and appends the rows seen while undecided as nulls.
func (b *colBuilder) decide(typ table.Type) {
	b.col = table.NewColumn(b.in.names[b.j], typ)
	b.col.Grow(max(b.nulls, b.in.room))
	for range b.nulls {
		b.col.AppendNull()
	}
}

func (b *colBuilder) append(field string) {
	if field == "" {
		if b.col == nil {
			b.nulls++
		} else {
			b.col.AppendNull()
		}
		return
	}
	if b.col == nil {
		b.decide(classifyField(field))
	}
	switch b.col.Typ {
	case table.Float:
		v, err := strconv.ParseFloat(field, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			if b.nonFinite == nil {
				b.nonFinite = make(map[int]string)
			}
			b.nonFinite[b.col.Len()] = strings.Clone(field)
			b.col.AppendNull()
			return
		}
		if err == nil {
			b.col.AppendFloat(v)
			return
		}
	case table.Bool:
		if field == "true" || field == "false" {
			b.col.AppendBool(field == "true")
			return
		}
	}
	if b.col.Typ != table.String {
		b.demote()
	}
	b.col.AppendStringCopy(field)
}

// demote rebuilds the column as String after a contradicting field,
// replaying its rows by index: inside the retained sample from the raw
// fields, past it from the non-finite sidecar or the typed column.
func (b *colBuilder) demote() {
	old, n := b.col, b.col.Len()
	b.col = table.NewColumn(old.Name, table.String)
	b.col.Grow(b.in.room)
	for i := range n {
		field := ""
		switch {
		case i < len(b.in.sample):
			if rec := b.in.sample[i]; b.j < len(rec) {
				field = rec[b.j]
			}
		case b.nonFinite[i] != "":
			field = b.nonFinite[i]
		default:
			field = old.StringAt(i) // "" when null
		}
		if field == "" {
			b.col.AppendNull()
		} else {
			b.col.AppendStringCopy(field)
		}
	}
	b.nonFinite = nil
}

// classifyField is the single-field type verdict for the first non-empty
// value of a column: numeric (including non-finite spellings) over bool
// over string, matching table.InferCSVType precedence.
func classifyField(field string) table.Type {
	if _, err := strconv.ParseFloat(field, 64); err == nil {
		return table.Float
	}
	if field == "true" || field == "false" {
		return table.Bool
	}
	return table.String
}
