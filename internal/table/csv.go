package table

import "strconv"

// InferCSVType is the CSV type-inference rule of the ingester
// (colstore.FromCSV): it reports the verdict for column j over the given raw
// records — a column where every non-empty field parses as a number is Float
// (non-finite spellings included; the ingester stores those as nulls), every
// non-empty field "true"/"false" is Bool, anything else String — and whether
// any non-empty field was seen at all (when none was, the String verdict is
// provisional: the ingester keeps the column undecided until a value
// arrives).
func InferCSVType(rows [][]string, j int) (typ Type, any bool) {
	allNum, allBool := true, true
	for _, rec := range rows {
		if j >= len(rec) || rec[j] == "" {
			continue
		}
		any = true
		if _, err := strconv.ParseFloat(rec[j], 64); err != nil {
			allNum = false
		}
		if rec[j] != "true" && rec[j] != "false" {
			allBool = false
		}
		if !allNum && !allBool {
			break
		}
	}
	switch {
	case !any:
		return String, false
	case allNum:
		return Float, true
	case allBool:
		return Bool, true
	default:
		return String, true
	}
}
