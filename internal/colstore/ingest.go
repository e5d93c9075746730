package colstore

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"nexus/internal/obs"
	"nexus/internal/table"
)

// Options configures an ingest.
type Options struct {
	// ChunkRows is the rows-per-chunk (DefaultChunkRows when <= 0).
	ChunkRows int
	// SampleRows bounds the type-inference sample (ChunkRows when <= 0).
	SampleRows int
	// Counters, when non-nil, receives the obs.IngestRows /
	// obs.IngestChunks / obs.DictEntries totals at Finish.
	Counters *obs.Counters
}

// FromCSV streams a CSV input (header row first) into a chunked table in a
// single pass. It is the repository's one CSV ingester: every binary and the
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
	in, err := NewIngest(append([]string(nil), header...), opt)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			in.abort()
			return nil, err
		}
		if err := in.Append(rec); err != nil {
			in.abort()
			return nil, err
		}
	}
	return in.Finish()
}

// Ingest builds a chunked table record by record. Use NewIngest, Append for
// each record, then Finish.
type Ingest struct {
	opt      Options
	names    []string
	cols     []*colBuilder // nil until types are decided
	sample   [][]string    // retained raw sample for inference and backfill
	rows     int
	chunks   int64
	srcBytes int64
	done     bool
}

// NewIngest starts an ingest for the given column names.
func NewIngest(header []string, opt Options) (*Ingest, error) {
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
	if opt.ChunkRows <= 0 {
		opt.ChunkRows = DefaultChunkRows
	}
	if opt.SampleRows <= 0 {
		opt.SampleRows = opt.ChunkRows
	}
	return &Ingest{opt: opt, names: append([]string(nil), header...)}, nil
}

// Append adds one record. Missing trailing fields read as empty (null);
// the record slice may be reused by the caller after Append returns.
func (in *Ingest) Append(rec []string) error {
	if in.done {
		return fmt.Errorf("colstore: append after Finish")
	}
	in.srcBytes += recordBytesEst(rec)
	if in.cols == nil {
		in.sample = append(in.sample, append([]string(nil), rec...))
		if len(in.sample) >= in.opt.SampleRows {
			in.decideTypes()
			for _, r := range in.sample {
				in.appendRecord(r)
			}
		}
		return nil
	}
	in.appendRecord(rec)
	return nil
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
// oracle verdict on that prefix) and creates the builders. The raw sample
// stays resident until Finish so demotions inside it backfill losslessly.
func (in *Ingest) decideTypes() {
	in.cols = make([]*colBuilder, len(in.names))
	for j, name := range in.names {
		b := &colBuilder{in: in, name: name, j: j}
		if typ, any := table.InferCSVType(in.sample, j); any {
			b.decide(typ)
		}
		in.cols[j] = b
	}
}

func (in *Ingest) appendRecord(rec []string) {
	for _, b := range in.cols {
		field := ""
		if b.j < len(rec) {
			field = rec[b.j]
		}
		b.append(field)
	}
	in.rows++
	if in.rows%in.opt.ChunkRows == 0 {
		in.sealAll()
	}
}

func (in *Ingest) sealAll() {
	for _, b := range in.cols {
		b.seal()
	}
	in.chunks++
}

// Finish seals the trailing partial chunk and returns the table.
func (in *Ingest) Finish() (*Table, error) {
	if in.done {
		return nil, fmt.Errorf("colstore: Finish called twice")
	}
	if in.cols == nil {
		// Input fit entirely inside the inference sample.
		in.decideTypes()
		for _, r := range in.sample {
			in.appendRecord(r)
		}
	}
	for _, b := range in.cols {
		if !b.decided {
			// Every field was empty: an all-null String column.
			b.decide(table.String)
		}
	}
	if in.rows%in.opt.ChunkRows != 0 {
		in.sealAll()
	}
	in.done = true
	in.sample = nil

	t := &Table{}
	var dictEntries, chunkBytes int64
	for _, b := range in.cols {
		t.cols = append(t.cols, &column{
			name:   b.name,
			typ:    b.typ,
			rows:   b.rows,
			chunks: b.sealed,
			dict:   b.dict,
			bytes:  b.bytes,
		})
		dictEntries += int64(len(b.dict))
		chunkBytes += b.bytes
	}
	t.stats = Stats{
		Rows:           int64(in.rows),
		Chunks:         in.chunks,
		DictEntries:    dictEntries,
		ChunkBytes:     chunkBytes,
		SourceBytesEst: in.srcBytes,
	}
	in.opt.Counters.Add(obs.IngestRows, t.stats.Rows)
	in.opt.Counters.Add(obs.IngestChunks, t.stats.Chunks)
	in.opt.Counters.Add(obs.DictEntries, t.stats.DictEntries)
	return t, nil
}

// abort releases the gauge contribution of an ingest that will not Finish.
func (in *Ingest) abort() {
	if in.done {
		return
	}
	in.done = true
	for _, b := range in.cols {
		residentBytes.Add(-b.bytes)
		b.bytes = 0
	}
}

// colBuilder accumulates one column during ingest. Until the first
// non-empty field arrives the column is undecided: rows are counted and
// sealed chunk slots hold nil placeholders, materialized as all-null chunks
// if and when a type is decided. A decided column that meets a
// contradicting field demotes to String, rebuilding its storage.
type colBuilder struct {
	in      *Ingest
	name    string
	j       int
	decided bool
	typ     table.Type
	rows    int      // rows appended so far
	sealed  []*chunk // nil entries: sealed while undecided
	cur     *chunk   // open chunk (nil while undecided or freshly sealed)
	bytes   int64    // accounted sealed-chunk + dictionary bytes

	// String-column dictionaries: chunk-local first, remapped into the
	// table-global dict at seal so global order is overall first-seen order.
	dict      []string
	dictIdx   map[string]int32
	localDict []string
	localIdx  map[string]int32

	// nonFinite remembers the original spelling of numeric fields stored as
	// nulls (NaN/Inf) so a demotion to String can restore them.
	nonFinite map[int]string
}

func (b *colBuilder) decide(typ table.Type) {
	b.decided = true
	b.typ = typ
	if typ == table.String {
		b.dictIdx = make(map[string]int32)
		b.localIdx = make(map[string]int32)
	}
	// Materialize the rows appended while undecided as all-null storage.
	for k, ch := range b.sealed {
		if ch == nil {
			b.sealed[k] = b.nullChunk(b.in.opt.ChunkRows)
			b.account(b.sealed[k].bytes())
		}
	}
	if open := b.rows - len(b.sealed)*b.in.opt.ChunkRows; open > 0 {
		b.cur = b.nullChunk(open)
	}
}

// nullChunk builds an all-null chunk of n rows for the decided type.
func (b *colBuilder) nullChunk(n int) *chunk {
	ch := newChunk(b.typ, b.in.opt.ChunkRows)
	for i := 0; i < n; i++ {
		appendNullTo(ch, b.typ)
	}
	return ch
}

func appendNullTo(ch *chunk, typ table.Type) {
	ch.valid.Append(false)
	switch typ {
	case table.Float:
		ch.floats = append(ch.floats, math.NaN())
	case table.String:
		ch.codes = append(ch.codes, -1)
	case table.Bool:
		ch.bools = append(ch.bools, false)
	}
}

func (b *colBuilder) ensureCur() *chunk {
	if b.cur == nil {
		b.cur = newChunk(b.typ, b.in.opt.ChunkRows)
	}
	return b.cur
}

func (b *colBuilder) account(delta int64) {
	b.bytes += delta
	residentBytes.Add(delta)
}

func (b *colBuilder) append(field string) {
	if field == "" {
		if b.decided {
			appendNullTo(b.ensureCur(), b.typ)
		}
		b.rows++
		return
	}
	if !b.decided {
		b.decide(classifyField(field))
	}
	switch b.typ {
	case table.Float:
		v, err := strconv.ParseFloat(field, 64)
		switch {
		case err != nil:
			b.demote()
			b.appendString(field)
		case math.IsNaN(v) || math.IsInf(v, 0):
			appendNullTo(b.ensureCur(), table.Float)
			if b.nonFinite == nil {
				b.nonFinite = make(map[int]string)
			}
			b.nonFinite[b.rows] = strings.Clone(field)
		default:
			ch := b.ensureCur()
			ch.valid.Append(true)
			ch.floats = append(ch.floats, v)
		}
	case table.Bool:
		if field != "true" && field != "false" {
			b.demote()
			b.appendString(field)
			break
		}
		ch := b.ensureCur()
		ch.valid.Append(true)
		ch.bools = append(ch.bools, field == "true")
	default:
		b.appendString(field)
	}
	b.rows++
}

// appendString appends one value with chunk-local dictionary coding. Local
// entries may alias the transient csv record buffer; they are cloned when
// promoted into the global dictionary at seal.
func (b *colBuilder) appendString(v string) {
	code, ok := b.localIdx[v]
	if !ok {
		code = int32(len(b.localDict))
		b.localDict = append(b.localDict, v)
		b.localIdx[v] = code
	}
	ch := b.ensureCur()
	ch.valid.Append(true)
	ch.codes = append(ch.codes, code)
}

// seal closes the open chunk: string chunks remap their local codes into
// the table-global dictionary (first-seen order preserved), and the chunk's
// resident bytes are accounted.
func (b *colBuilder) seal() {
	if !b.decided {
		b.sealed = append(b.sealed, nil)
		return
	}
	ch := b.ensureCur() // zero-row chunk if nothing appended since last seal
	if b.typ == table.String {
		remap := make([]int32, len(b.localDict))
		for li, s := range b.localDict {
			g, ok := b.dictIdx[s]
			if !ok {
				g = int32(len(b.dict))
				s = strings.Clone(s)
				b.dict = append(b.dict, s)
				b.dictIdx[s] = g
				b.account(int64(len(s)) + 16)
			}
			remap[li] = g
		}
		for i, c := range ch.codes {
			if c >= 0 {
				ch.codes[i] = remap[c]
			}
		}
		b.localDict = b.localDict[:0]
		clear(b.localIdx)
	}
	b.account(ch.bytes())
	b.sealed = append(b.sealed, ch)
	b.cur = nil
}

// demote rebuilds the column as String after a contradicting field: rows
// inside the retained sample replay from their raw fields, later rows from
// the typed storage (non-finite spellings restored from the sidecar).
func (b *colBuilder) demote() {
	old := struct {
		typ       table.Type
		sealed    []*chunk
		cur       *chunk
		nonFinite map[int]string
	}{b.typ, b.sealed, b.cur, b.nonFinite}
	rows := b.rows

	b.account(-b.bytes)
	b.typ = table.String
	b.dict, b.localDict = nil, nil
	b.dictIdx = make(map[string]int32)
	b.localIdx = make(map[string]int32)
	b.sealed, b.cur = nil, nil
	b.nonFinite = nil
	b.rows = 0

	chunkRows := b.in.opt.ChunkRows
	oldAt := func(i int) (*chunk, int) {
		if k := i / chunkRows; k < len(old.sealed) {
			return old.sealed[k], i % chunkRows
		}
		return old.cur, i - len(old.sealed)*chunkRows
	}
	for i := 0; i < rows; i++ {
		field := ""
		switch {
		case i < len(b.in.sample):
			if rec := b.in.sample[i]; b.j < len(rec) {
				field = rec[b.j]
			}
		case old.nonFinite[i] != "":
			field = old.nonFinite[i]
		default:
			ch, off := oldAt(i)
			if ch.valid.Get(off) {
				if old.typ == table.Float {
					field = strconv.FormatFloat(ch.floats[off], 'g', -1, 64)
				} else {
					field = strconv.FormatBool(ch.bools[off])
				}
			}
		}
		if field == "" {
			appendNullTo(b.ensureCur(), table.String)
		} else {
			b.appendString(field)
		}
		b.rows++
		if b.rows%chunkRows == 0 {
			b.seal()
		}
	}
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
