package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ReadCSVOracle parses a CSV stream by materializing every record and
// scanning each column twice: once to infer its type over all rows, once to
// fill it. It is the reference the streaming ingester (colstore.FromCSV) is
// checked against — the two must agree cell for cell on inputs that fit in
// the ingester's inference sample, including the non-finite-numerics-as-nulls
// rule — and exists only for the differential tests in csv_test.go.
func ReadCSVOracle(r io.Reader) (*Table, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("table: empty CSV input")
	}
	header := records[0]
	rows := records[1:]

	t := New()
	for j, name := range header {
		typ, _ := InferCSVType(rows, j)
		col := NewColumn(name, typ)
		for _, rec := range rows {
			field := ""
			if j < len(rec) {
				field = rec[j]
			}
			if field == "" {
				col.AppendNull()
				continue
			}
			switch typ {
			case Float:
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("table: column %q row value %q: %v", name, field, err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					col.AppendNull()
					continue
				}
				col.AppendFloat(v)
			case Bool:
				col.AppendBool(field == "true")
			default:
				col.AppendString(field)
			}
		}
		if err := t.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return t, nil
}
