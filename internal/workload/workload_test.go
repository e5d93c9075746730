package workload

import (
	"math"
	"strings"
	"sync"
	"testing"

	"nexus/internal/kg"
	"nexus/internal/stats"
)

var (
	worldOnce sync.Once
	world     *kg.World
)

func sharedWorld() *kg.World {
	worldOnce.Do(func() { world = kg.NewWorld(kg.WorldConfig{Seed: 42}) })
	return world
}

func TestStackOverflowShape(t *testing.T) {
	ds := StackOverflow(sharedWorld(), Config{Rows: 5000, Seed: 1})
	if ds.Table.NumRows() != 5000 {
		t.Fatalf("rows = %d", ds.Table.NumRows())
	}
	for _, c := range []string{"Country", "Continent", "Salary", "Gender", "DevType"} {
		if !ds.Table.HasColumn(c) {
			t.Fatalf("missing column %s", c)
		}
	}
	if len(ds.LinkColumns) != 2 {
		t.Fatalf("link columns = %v", ds.LinkColumns)
	}
}

func TestStackOverflowDefaultSize(t *testing.T) {
	ds := StackOverflow(sharedWorld(), Config{Seed: 1})
	if ds.Table.NumRows() != 47623 {
		t.Fatalf("default rows = %d, want 47623 (Table 1)", ds.Table.NumRows())
	}
}

func TestStackOverflowSalaryConfounded(t *testing.T) {
	w := sharedWorld()
	ds := StackOverflow(w, Config{Rows: 20000, Seed: 2})
	// Group salary by country; country GDP must correlate with mean salary.
	g, err := ds.Table.GroupBy([]string{"Country"}, "Salary", 0) // AggMean
	if err != nil {
		t.Fatal(err)
	}
	var gdp, sal []float64
	cc := g.MustColumn("Country")
	av := g.MustColumn("avg(Salary)")
	for i := 0; i < g.NumRows(); i++ {
		name := cc.StringAt(i)
		// Undo the dataset spelling variants.
		kgName := name
		for orig, variant := range map[string]string{
			"Russia": "Russian Federation", "South Korea": "Republic of Korea",
			"Vietnam": "Viet Nam", "Iran": "Iran (Islamic Republic of)", "United States": "USA",
		} {
			if variant == name {
				kgName = orig
			}
		}
		idx, ok := w.CountryIdx[kgName]
		if !ok {
			continue
		}
		gdp = append(gdp, math.Log(w.Countries[idx].GDP))
		sal = append(sal, math.Log(av.Float(i)))
	}
	if r := stats.Pearson(gdp, sal); r < 0.8 {
		t.Fatalf("corr(log GDP, log mean salary) = %.3f, want strong", r)
	}
}

func TestStackOverflowEuropeLargest(t *testing.T) {
	ds := StackOverflow(sharedWorld(), Config{Rows: 20000, Seed: 3})
	counts := map[string]int{}
	cc := ds.Table.MustColumn("Continent")
	for i := 0; i < ds.Table.NumRows(); i++ {
		counts[cc.StringAt(i)]++
	}
	for cont, c := range counts {
		if cont != "Europe" && c >= counts["Europe"] {
			t.Fatalf("continent %s (%d) ≥ Europe (%d)", cont, c, counts["Europe"])
		}
	}
}

func TestStackOverflowNameVariants(t *testing.T) {
	ds := StackOverflow(sharedWorld(), Config{Rows: 30000, Seed: 4})
	vals := map[string]bool{}
	cc := ds.Table.MustColumn("Country")
	for i := 0; i < ds.Table.NumRows(); i++ {
		vals[cc.StringAt(i)] = true
	}
	if !vals["Russian Federation"] && !vals["USA"] {
		t.Fatal("no variant spellings present; NED failure mode not exercised")
	}
	if vals["Russia"] || vals["United States"] {
		t.Fatal("canonical names should be replaced by variants")
	}
}

func TestCovidShape(t *testing.T) {
	ds := Covid(sharedWorld(), Config{Seed: 5})
	if ds.Table.NumRows() != 188 {
		t.Fatalf("rows = %d, want 188 (Table 1)", ds.Table.NumRows())
	}
	for _, c := range []string{"Country", "WHO_Region", "Confirmed_cases", "Deaths_per_100_cases"} {
		if !ds.Table.HasColumn(c) {
			t.Fatalf("missing column %s", c)
		}
	}
}

func TestCovidDeathRateConfounded(t *testing.T) {
	w := sharedWorld()
	ds := Covid(w, Config{Seed: 6})
	var dev, rate []float64
	dr := ds.Table.MustColumn("Deaths_per_100_cases")
	for i := 0; i < ds.Table.NumRows(); i++ {
		dev = append(dev, w.Countries[i].Dev)
		rate = append(rate, dr.Float(i))
	}
	if r := stats.Pearson(dev, rate); r > -0.4 {
		t.Fatalf("corr(dev, death rate) = %.3f, want strongly negative", r)
	}
}

func TestFlightsShape(t *testing.T) {
	ds := Flights(sharedWorld(), Config{Rows: 10000, Seed: 7})
	if ds.Table.NumRows() != 10000 {
		t.Fatalf("rows = %d", ds.Table.NumRows())
	}
	if len(ds.LinkColumns) != 5 {
		t.Fatalf("link columns = %v (Table 1: airline + origin/dest city/state)", ds.LinkColumns)
	}
}

func TestFlightsDelayDrivenByClimateAndAirline(t *testing.T) {
	w := sharedWorld()
	ds := Flights(w, Config{Rows: 40000, Seed: 8})
	g, err := ds.Table.GroupBy([]string{"Origin_city"}, "Departure_delay", 0)
	if err != nil {
		t.Fatal(err)
	}
	var climate, delay []float64
	cc := g.MustColumn("Origin_city")
	dd := g.MustColumn("avg(Departure_delay)")
	for i := 0; i < g.NumRows(); i++ {
		if idx, ok := w.CityIdx[cc.StringAt(i)]; ok {
			climate = append(climate, w.Cities[idx].Climate)
			delay = append(delay, dd.Float(i))
		}
	}
	if r := stats.Pearson(climate, delay); r < 0.5 {
		t.Fatalf("corr(climate, city mean delay) = %.3f, want positive", r)
	}
	// Airline quality reduces delay.
	ga, err := ds.Table.GroupBy([]string{"Airline"}, "Departure_delay", 0)
	if err != nil {
		t.Fatal(err)
	}
	var quality, adelay []float64
	ac := ga.MustColumn("Airline")
	ad := ga.MustColumn("avg(Departure_delay)")
	for i := 0; i < ga.NumRows(); i++ {
		if idx, ok := w.AirlineIdx[ac.StringAt(i)]; ok {
			quality = append(quality, w.Airlines[idx].Quality)
			adelay = append(adelay, ad.Float(i))
		}
	}
	if r := stats.Pearson(quality, adelay); r > -0.5 {
		t.Fatalf("corr(quality, airline mean delay) = %.3f, want negative", r)
	}
}

func TestFlightsAirlineCityConfounding(t *testing.T) {
	// Airline choice must depend on origin city (affinity), otherwise
	// Airline cannot confound city→delay.
	ds := Flights(sharedWorld(), Config{Rows: 40000, Seed: 9})
	city := ds.Table.MustColumn("Origin_city")
	airline := ds.Table.MustColumn("Airline")
	// Chi-square-flavored check: airline share in one large city differs
	// from global share.
	globalCounts := map[string]int{}
	cityCounts := map[string]map[string]int{}
	for i := 0; i < ds.Table.NumRows(); i++ {
		a := airline.StringAt(i)
		c := city.StringAt(i)
		globalCounts[a]++
		if cityCounts[c] == nil {
			cityCounts[c] = map[string]int{}
		}
		cityCounts[c][a]++
	}
	maxDev := 0.0
	for _, counts := range cityCounts {
		tot := 0
		for _, c := range counts {
			tot += c
		}
		if tot < 500 {
			continue
		}
		for a, c := range counts {
			share := float64(c) / float64(tot)
			global := float64(globalCounts[a]) / float64(ds.Table.NumRows())
			if d := math.Abs(share - global); d > maxDev {
				maxDev = d
			}
		}
	}
	if maxDev < 0.02 {
		t.Fatalf("airline shares uniform across cities (max dev %.4f); no confounding", maxDev)
	}
}

func TestForbesShape(t *testing.T) {
	ds := Forbes(sharedWorld(), Config{Seed: 10})
	if ds.Table.NumRows() != 1647 {
		t.Fatalf("rows = %d, want 1647 (Table 1)", ds.Table.NumRows())
	}
	cat := ds.Table.MustColumn("Category")
	if n := cat.DistinctCount(); n < 4 {
		t.Fatalf("%d categories %v, want at least 4", n, cat.Dict)
	}
}

func TestForbesPayDrivenByFame(t *testing.T) {
	w := sharedWorld()
	ds := Forbes(w, Config{Seed: 11})
	var fame, pay []float64
	pc := ds.Table.MustColumn("Pay")
	for i := 0; i < ds.Table.NumRows(); i++ {
		fame = append(fame, w.People[i].Fame)
		pay = append(pay, math.Log(pc.Float(i)))
	}
	if r := stats.Pearson(fame, pay); r < 0.7 {
		t.Fatalf("corr(fame, log pay) = %.3f", r)
	}
}

func TestForbesActorGenderGap(t *testing.T) {
	w := sharedWorld()
	ds := Forbes(w, Config{Seed: 12})
	var male, female []float64
	pc := ds.Table.MustColumn("Pay")
	cc := ds.Table.MustColumn("Category")
	for i := 0; i < ds.Table.NumRows(); i++ {
		if cc.StringAt(i) != "Actors" {
			continue
		}
		if w.People[i].Gender == "male" {
			male = append(male, math.Log(pc.Float(i)))
		} else {
			female = append(female, math.Log(pc.Float(i)))
		}
	}
	if stats.Mean(male) <= stats.Mean(female) {
		t.Fatal("planted actor gender pay gap missing")
	}
}

func TestDeterminism(t *testing.T) {
	w := sharedWorld()
	a := StackOverflow(w, Config{Rows: 1000, Seed: 99})
	b := StackOverflow(w, Config{Rows: 1000, Seed: 99})
	sa := a.Table.MustColumn("Salary")
	sb := b.Table.MustColumn("Salary")
	for i := 0; i < 1000; i++ {
		if sa.Float(i) != sb.Float(i) {
			t.Fatalf("row %d differs between identical configs", i)
		}
	}
}

func TestRandomQueries(t *testing.T) {
	ds := StackOverflow(sharedWorld(), Config{Rows: 5000, Seed: 13})
	qs := RandomQueries(ds, 10, 1)
	if len(qs) != 10 {
		t.Fatalf("generated %d queries", len(qs))
	}
	for _, q := range qs {
		if q.T != "Country" && q.T != "Continent" {
			t.Fatalf("T = %s not a link column", q.T)
		}
		if !strings.Contains(q.SQL, "GROUP BY "+q.T) {
			t.Fatalf("SQL = %q", q.SQL)
		}
		if q.WhereAttr != "" {
			// Selectivity > 10%.
			col := ds.Table.MustColumn(q.WhereAttr)
			cnt := 0
			for i := 0; i < ds.Table.NumRows(); i++ {
				if col.StringAt(i) == q.WhereValue {
					cnt++
				}
			}
			if float64(cnt) <= 0.1*float64(ds.Table.NumRows()) {
				t.Fatalf("condition %s=%s covers only %d rows", q.WhereAttr, q.WhereValue, cnt)
			}
		}
	}
}

func TestRandomQueriesDeterministic(t *testing.T) {
	ds := Covid(sharedWorld(), Config{Seed: 14})
	a := RandomQueries(ds, 5, 7)
	b := RandomQueries(ds, 5, 7)
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatal("random queries not deterministic")
		}
	}
}
