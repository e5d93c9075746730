package kg

import (
	"fmt"
	"math"

	"nexus/internal/stats"
)

// usStates is the roster of US state codes used by the Flights world.
var usStates = []string{
	"AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA",
	"HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD",
	"MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ",
	"NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC",
	"SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY",
}

// realCities seeds the roster with recognizable city names (and pins several
// to CA for the Flights Q3 "origin cities in CA" refinement).
var realCities = []struct{ name, state string }{
	{"Los Angeles", "CA"}, {"San Francisco", "CA"}, {"San Diego", "CA"},
	{"San Jose", "CA"}, {"Sacramento", "CA"}, {"Oakland", "CA"},
	{"Fresno", "CA"}, {"Long Beach", "CA"},
	{"New York", "NY"}, {"Buffalo", "NY"},
	{"Chicago", "IL"}, {"Houston", "TX"}, {"Dallas", "TX"}, {"Austin", "TX"},
	{"Phoenix", "AZ"}, {"Philadelphia", "PA"}, {"Seattle", "WA"},
	{"Denver", "CO"}, {"Boston", "MA"}, {"Atlanta", "GA"}, {"Miami", "FL"},
	{"Orlando", "FL"}, {"Detroit", "MI"}, {"Minneapolis", "MN"},
	{"Portland", "OR"}, {"Las Vegas", "NV"}, {"Charlotte", "NC"},
	{"Nashville", "TN"}, {"Baltimore", "MD"}, {"Salt Lake City", "UT"},
	{"Anchorage", "AK"}, {"Honolulu", "HI"}, {"New Orleans", "LA"},
	{"Kansas City", "MO"}, {"Cleveland", "OH"}, {"Pittsburgh", "PA"},
}

func (w *World) genStatesAndCities(rng *stats.RNG) {
	g := w.Graph

	// States first: each carries its own climate/size latents that its
	// cities inherit (correlated but not identical).
	for idx, code := range usStates {
		climate := rng.Norm()
		size := 13 + 1.5*rng.Norm()
		s := State{
			Name:       code,
			Climate:    climate,
			Size:       size,
			YearSnow:   math.Max(0, 20+25*climate+5*rng.Norm()),
			YearLowF:   30 - 18*climate + 4*rng.Norm(),
			Population: math.Exp(size),
			Density:    math.Exp(3.5 + rng.Norm()),
			MedianInc:  40000 + 12000*rng.Norm(),
		}
		id := g.AddEntity("State "+code, "State")
		s.ID = id
		w.States = append(w.States, s)
		w.StateIdx[code] = idx

		g.Set(id, "Year Snow", Num(s.YearSnow))
		g.Set(id, "Year Low F", Num(s.YearLowF))
		g.Set(id, "Population estimation", Num(s.Population))
		g.Set(id, "Density", Num(s.Density))
		g.Set(id, "Median Household Income", Num(s.MedianInc))
		g.Set(id, "Record Low F", Num(s.YearLowF-25+3*rng.Norm()))
		g.Set(id, "Area Km", Num(s.Population/s.Density))
		g.Set(id, "Admission Year", Num(float64(1780+rng.Intn(180))))
		g.Set(id, "wikiID", Str(fmt.Sprintf("QS%04d", idx)))
		g.Set(id, "Type", Str("State"))
		for f := 0; f < 60; f++ {
			corr := 0.0
			name := fmt.Sprintf("State Indicator %03d", f)
			if f%4 == 0 {
				corr = 0.6
				name = fmt.Sprintf("State Climate Index %03d", f)
			}
			v := corr*climate + math.Sqrt(1-corr*corr)*rng.Norm()
			g.Set(id, name, Num(v))
		}
	}
	w.setStateRank("Population Rank", func(s *State) float64 { return -s.Population })

	// Cities.
	type roster struct{ name, state string }
	cities := make([]roster, 0, numCities)
	for _, rc := range realCities {
		if len(cities) == numCities {
			break
		}
		cities = append(cities, roster{rc.name, rc.state})
	}
	prefixes := []string{"North", "South", "East", "West", "New", "Old", "Lake", "Fort", "Port", "Mount"}
	stems := []string{"field", "ville", "burg", "ton", "wood", "haven", "dale", "ford", "crest", "view"}
	for i := 0; len(cities) < numCities; i++ {
		name := fmt.Sprintf("%s %s%s", prefixes[i%len(prefixes)], string(rune('A'+(i/len(prefixes))%26)), stems[(i/len(prefixes)/26)%len(stems)])
		cities = append(cities, roster{name, usStates[rng.Intn(len(usStates))]})
	}

	fillerCorr := make([]float64, cityFillers)
	for f := range fillerCorr {
		if rng.Float64() < 0.2 {
			fillerCorr[f] = 0.4 + 0.4*rng.Float64()
		}
	}

	for idx, r := range cities {
		st := &w.States[w.StateIdx[r.state]]
		climate := 0.7*st.Climate + 0.7*rng.Norm() // correlated with state
		size := 11 + 1.6*rng.Norm()
		c := City{
			Name:        r.name,
			State:       r.state,
			Climate:     climate,
			Size:        size,
			YearLowF:    28 - 16*climate + 3*rng.Norm(),
			PrecipDays:  math.Max(0, 90+35*climate+10*rng.Norm()),
			PrecipInch:  math.Max(0, 30+12*climate+5*rng.Norm()),
			Population:  math.Exp(size),
			Density:     math.Exp(6 + 0.8*rng.Norm()),
			MedianInc:   st.MedianInc * (1 + 0.15*rng.Norm()),
			SecurityIdx: rng.Norm(),
		}
		c.Metro = c.Population * (1.5 + rng.Float64())
		id := g.AddEntity(r.name, "City")
		c.ID = id
		w.Cities = append(w.Cities, c)
		w.CityIdx[r.name] = idx

		g.Set(id, "Year Low F", Num(c.YearLowF))
		g.Set(id, "Year Avg F", Num(c.YearLowF+25+2*rng.Norm()))
		g.Set(id, "December Low F", Num(c.YearLowF-8+2*rng.Norm()))
		g.Set(id, "December percent sun", Num(clamp(55-12*climate+5*rng.Norm(), 5, 95)))
		g.Set(id, "May Precipitation Inch", Num(c.PrecipInch/10*(1+0.2*rng.Norm())))
		g.Set(id, "Precipitation Days", Num(c.PrecipDays))
		g.Set(id, "Precipitation Inch", Num(c.PrecipInch))
		g.Set(id, "UV", Num(clamp(6-1.5*climate+rng.Norm(), 1, 12)))
		g.Set(id, "Sunshine Hours", Num(clamp(2800-350*climate+150*rng.Norm(), 1200, 4000)))
		g.Set(id, "Population estimation", Num(c.Population))
		g.Set(id, "Population urban", Num(c.Population*(0.8+0.15*rng.Float64())))
		g.Set(id, "Population Metropolitan", Num(c.Metro))
		g.Set(id, "Population Total", Num(c.Population))
		g.Set(id, "Density", Num(c.Density))
		g.Set(id, "Median Household Income", Num(c.MedianInc))
		g.Set(id, "Elevation", Num(math.Max(0, 300+400*rng.Norm())))
		g.Set(id, "Founded Year", Num(float64(1650+rng.Intn(300))))
		g.Set(id, "wikiID", Str(fmt.Sprintf("QC%05d", idx)))
		g.Set(id, "Type", Str("City"))
		g.Set(id, "State", Str(r.state))
		if sid, ok := g.Lookup("State " + r.state); ok {
			g.Set(id, "State Entity", Ent(sid))
		}
		for f := 0; f < cityFillers; f++ {
			if f%6 == 2 {
				g.Set(id, fmt.Sprintf("City Code %03d", f), Str(fmt.Sprintf("C%d", rng.Intn(5))))
				continue
			}
			name := fmt.Sprintf("City Indicator %03d", f)
			if fillerCorr[f] != 0 {
				name = fmt.Sprintf("Climate Index %03d", f)
			}
			v := fillerCorr[f]*climate + math.Sqrt(1-fillerCorr[f]*fillerCorr[f])*rng.Norm()
			g.Set(id, name, Num(v))
		}
	}
	w.setCityRank("Population Ranking", func(c *City) float64 { return -c.Population })

	w.injectMissing(rng, "State", cityMissing, biasedFraction, []string{"Type", "wikiID"})
	w.injectMissing(rng, "City", cityMissing, biasedFraction, []string{"Type", "wikiID", "State"})
}

func (w *World) setStateRank(prop string, key func(*State) float64) {
	order := make([]int, len(w.States))
	for i := range order {
		order[i] = i
	}
	sortByKey(order, func(i int) float64 { return key(&w.States[i]) })
	for rank, i := range order {
		w.Graph.Set(w.States[i].ID, prop, Num(float64(rank+1)))
	}
}

func (w *World) setCityRank(prop string, key func(*City) float64) {
	order := make([]int, len(w.Cities))
	for i := range order {
		order[i] = i
	}
	sortByKey(order, func(i int) float64 { return key(&w.Cities[i]) })
	for rank, i := range order {
		w.Graph.Set(w.Cities[i].ID, prop, Num(float64(rank+1)))
	}
}

var airlineNames = []string{
	"Apex Airways", "BlueJet", "Cirrus Air", "Delta Wing", "Eagle Express",
	"Falcon Air", "Golden Skies", "Horizon Jet", "Ionosphere", "Jetstream",
	"Kestrel Air", "Latitude", "Meridian Air", "Nimbus Airlines",
}

func (w *World) genAirlines(rng *stats.RNG) {
	g := w.Graph
	for idx := 0; idx < numAirlines; idx++ {
		name := airlineNames[idx%len(airlineNames)]
		if idx >= len(airlineNames) {
			name = fmt.Sprintf("%s %d", name, idx)
		}
		quality := rng.Norm()
		scale := math.Exp(5 + 0.8*rng.Norm())
		a := Airline{
			Name:      name,
			Quality:   quality,
			FleetSize: math.Floor(scale * (2 + quality*0.5)),
			Equity:    scale * 1e8 * (1 + 0.5*quality + 0.2*rng.Norm()),
			NetIncome: scale * 1e7 * (0.5 + 0.8*quality + 0.3*rng.Norm()),
			Revenue:   scale * 5e8 * (1 + 0.2*rng.Norm()),
			Employees: math.Floor(scale * 100 * (1 + 0.2*rng.Norm())),
		}
		if a.FleetSize < 5 {
			a.FleetSize = 5
		}
		id := g.AddEntity(name, "Airline")
		a.ID = id
		w.Airlines = append(w.Airlines, a)
		w.AirlineIdx[name] = idx

		g.Set(id, "Fleet size", Num(a.FleetSize))
		g.Set(id, "Equity", Num(a.Equity))
		g.Set(id, "Net Income", Num(a.NetIncome))
		g.Set(id, "Revenue", Num(a.Revenue))
		g.Set(id, "Num of Employees", Num(a.Employees))
		g.Set(id, "Founded Year", Num(float64(1930+rng.Intn(80))))
		g.Set(id, "Destinations", Num(float64(30+rng.Intn(200))))
		g.Set(id, "Headquarters State", Str(usStates[rng.Intn(len(usStates))]))
		g.Set(id, "wikiID", Str(fmt.Sprintf("QA%04d", idx)))
		g.Set(id, "Type", Str("Airline"))
		for f := 0; f < 40; f++ {
			corr := 0.0
			name := fmt.Sprintf("Airline Indicator %03d", f)
			if f%5 == 0 {
				corr = 0.5
				name = fmt.Sprintf("Operations Index %03d", f)
			}
			v := corr*quality + math.Sqrt(1-corr*corr)*rng.Norm()
			g.Set(id, name, Num(v))
		}
	}
	w.injectMissing(rng, "Airline", 0.15, biasedFraction, []string{"Type", "wikiID"})
}

func sortByKey(order []int, key func(int) float64) {
	// Insertion sort keeps this dependency-free and stable; rosters are small.
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && key(order[j]) < key(order[j-1]) {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
}
