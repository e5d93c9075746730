package workload

import (
	"encoding/csv"
	"io"
	"math"
	"strconv"

	"nexus/internal/kg"
	"nexus/internal/stats"
)

// FlightsColumns is the column order of the Flights dataset, shared by the
// materializing generator and the CSV stream.
var FlightsColumns = []string{
	"Origin_city", "Origin_state", "Dest_city", "Dest_state", "Airline",
	"Month", "Day", "Distance", "Departure_delay", "Arrival_delay",
	"Security_delay", "Cancelled",
}

// FlightsLinkColumns are the extraction columns of the Flights dataset
// (Table 1, "Columns used for extraction").
var FlightsLinkColumns = []string{"Airline", "Origin_city", "Dest_city", "Origin_state", "Dest_state"}

// FlightsExcludeCandidates are the sibling outcome measurements an analyst
// rules out as candidate confounders.
var FlightsExcludeCandidates = []string{"Departure_delay", "Arrival_delay"}

// flightsRow is one generated flight record.
type flightsRow struct {
	origin, originState, dest, destState, airline string
	month, day, distance                          float64
	depDelay, arrDelay, secDelay                  float64
	cancelled                                     string
}

// flightsGen draws flight rows sequentially. The per-row RNG draw order is
// the generator's contract: Flights and FlightsCSV share it, so both
// produce identical values for the same (World, Config).
type flightsGen struct {
	w        *kg.World
	rng      *stats.RNG
	cityW    []float64
	affinity [][]float64
}

// newFlightsGen sets up the sampling weights and returns the generator plus
// the configured row count (0 = the paper's Flights size, 5,819,079 rows).
func newFlightsGen(w *kg.World, cfg Config) (*flightsGen, int) {
	n := cfg.Rows
	if n == 0 {
		n = 5819079
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xF1)

	nc := len(w.Cities)
	na := len(w.Airlines)

	// City sampling ∝ population; airline choice per city via an affinity
	// matrix so that Airline is genuinely confounded with Origin city.
	cityW := make([]float64, nc)
	for i, c := range w.Cities {
		cityW[i] = math.Exp((c.Size - 11) / 2)
	}
	affinity := make([][]float64, nc)
	for i := range affinity {
		affinity[i] = make([]float64, na)
		for j := range affinity[i] {
			affinity[i][j] = math.Exp(0.9 * rng.Norm())
		}
	}
	return &flightsGen{w: w, rng: rng, cityW: cityW, affinity: affinity}, n
}

func (g *flightsGen) next() flightsRow {
	rng := g.rng
	oi := rng.Choice(g.cityW)
	di := rng.Choice(g.cityW)
	ai := rng.Choice(g.affinity[oi])
	oc := &g.w.Cities[oi]
	dc := &g.w.Cities[di]
	al := &g.w.Airlines[ai]

	var r flightsRow
	r.origin = oc.Name
	r.originState = oc.State
	r.dest = dc.Name
	r.destState = dc.State
	r.airline = al.Name
	r.month = float64(1 + rng.Intn(12))
	r.day = float64(1 + rng.Intn(28))
	r.distance = math.Round(200 + 2200*rng.Float64())

	winter := 0.0
	if r.month <= 2 || r.month == 12 {
		winter = 1
	}
	sec := math.Max(0, 2+1.5*oc.SecurityIdx+rng.Norm())
	r.secDelay = math.Round(sec)
	delay := 9 + 5.5*oc.Climate + 2.2*winter*oc.Climate + 1.6*(oc.Size-11)/1.6 -
		3.8*al.Quality + sec + 7*rng.Norm()
	r.depDelay = math.Round(delay)
	r.arrDelay = math.Round(delay + 2 + 3*rng.Norm())
	if rng.Float64() < 0.015 {
		r.cancelled = "yes"
	} else {
		r.cancelled = "no"
	}
	return r
}

// FlightsCSV streams the Flights dataset as CSV text (header first) without
// ever materializing the table: resident memory is one record regardless of
// the row count. Numeric fields use the canonical strconv 'g' form, which
// parses back to the same float, so for equal (World, Config) ingesting the
// output yields exactly the table Flights generates.
func FlightsCSV(w *kg.World, cfg Config, out io.Writer) error {
	g, n := newFlightsGen(w, cfg)
	cw := csv.NewWriter(out)
	if err := cw.Write(FlightsColumns); err != nil {
		return err
	}
	rec := make([]string, len(FlightsColumns))
	for i := 0; i < n; i++ {
		r := g.next()
		rec[0] = r.origin
		rec[1] = r.originState
		rec[2] = r.dest
		rec[3] = r.destState
		rec[4] = r.airline
		rec[5] = strconv.FormatFloat(r.month, 'g', -1, 64)
		rec[6] = strconv.FormatFloat(r.day, 'g', -1, 64)
		rec[7] = strconv.FormatFloat(r.distance, 'g', -1, 64)
		rec[8] = strconv.FormatFloat(r.depDelay, 'g', -1, 64)
		rec[9] = strconv.FormatFloat(r.arrDelay, 'g', -1, 64)
		rec[10] = strconv.FormatFloat(r.secDelay, 'g', -1, 64)
		rec[11] = r.cancelled
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
